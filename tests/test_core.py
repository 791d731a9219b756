import random

import pytest

from violator_spaces import ConstraintSet, OracleContractError, ViolationOracle

from conftest import cyclic3_space


def test_construction_and_membership():
    s = ConstraintSet.of([0, 2, 5], 6)
    assert sorted(s) == [0, 2, 5]
    assert len(s) == 3
    assert 2 in s and 1 not in s and 6 not in s
    assert ConstraintSet.empty(4).mask == 0
    assert ConstraintSet.full(4).mask == 0b1111


def test_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        ConstraintSet.of([4], 4)
    with pytest.raises(ValueError):
        ConstraintSet(1 << 4, 4)
    with pytest.raises(ValueError):
        ConstraintSet.of([-1], 4)


def test_algebra_matches_python_sets():
    rnd = random.Random(20240401)
    for _ in range(300):
        n = rnd.randint(0, 70)
        a = {i for i in range(n) if rnd.random() < 0.4}
        b = {i for i in range(n) if rnd.random() < 0.4}
        A = ConstraintSet.of(a, n)
        B = ConstraintSet.of(b, n)
        assert set(A | B) == a | b
        assert set(A & B) == a & b
        assert set(A - B) == a - b
        assert set(A ^ B) == a ^ b
        assert A.issubset(B) == a.issubset(b)
        assert set(A.complement()) == set(range(n)) - a


def test_mixed_ground_sets_rejected():
    with pytest.raises(ValueError):
        ConstraintSet.empty(3) | ConstraintSet.empty(4)


def test_sort_key_orders_by_cardinality_then_members():
    n = 4
    sets = [ConstraintSet.of(m, n) for m in ([0, 3], [1, 2], [2], [], [0, 1, 2])]
    ordered = sorted(sets, key=ConstraintSet.sort_key)
    assert [tuple(s) for s in ordered] == [(), (2,), (0, 3), (1, 2), (0, 1, 2)]


def test_add_remove_do_not_mutate():
    s = ConstraintSet.of([1], 4)
    t = s.add(2)
    assert sorted(s) == [1] and sorted(t) == [1, 2]
    assert sorted(t.remove(1)) == [2]


class _ParityOracle(ViolationOracle):
    def _violates(self, G, h):
        return (G.mask + h) % 2 == 0


def test_counter_increases_by_one_per_query():
    oracle = _ParityOracle(5, 2)
    G = ConstraintSet.of([0, 1], 5)
    for k in range(1, 51):
        oracle.violates(G, 3)
        assert oracle.primitive_calls == k


def test_repeated_queries_are_deterministic():
    space = cyclic3_space()
    oracle = space.oracle()
    G = ConstraintSet.of([0], 3)
    answers = {oracle.violates(G, 2) for _ in range(1000)}
    assert answers == {True}
    assert oracle.primitive_calls == 1000


def test_query_with_member_is_rejected_and_not_counted():
    space = cyclic3_space()
    oracle = space.oracle()
    G = ConstraintSet.of([0, 2], 3)
    with pytest.raises(OracleContractError):
        oracle.violates(G, 0)
    assert oracle.primitive_calls == 0


def test_table_oracle_matches_stored_table():
    rnd = random.Random(77)
    from conftest import random_concrete_space

    space = random_concrete_space(rnd, 6)
    oracle = space.oracle()
    for _ in range(200):
        g = rnd.getrandbits(6)
        h = rnd.randrange(6)
        if (g >> h) & 1:
            continue
        G = ConstraintSet(g, 6)
        assert oracle.violates(G, h) == ((space.violator_mask(g) >> h) & 1 == 1)


def test_delta_hint_validation():
    with pytest.raises(ValueError):
        _ParityOracle(3, 0)


def test_counter_reads_past_2_31_ticks():
    from violator_spaces.core import _Counter

    for start in (2**31 - 1, 2**31 + 7, 2**63 - 2, 2**64 + 3):
        counter = _Counter(start)
        assert counter.value == start
        for _ in range(3):
            counter.increment()
        assert counter.value == start + 3
        assert counter.value == start + 3  # reading takes no tick
    oracle = _ParityOracle(8, 2)
    oracle._calls = _Counter(2**31 + 1)
    oracle.violates(ConstraintSet.of([0], 8), 5)
    assert oracle.primitive_calls == 2**31 + 2


def test_counter_is_safe_under_concurrent_queries():
    import threading

    oracle = _ParityOracle(64, 2)
    G = ConstraintSet.of([0], 64)
    per_thread = 2000

    def worker():
        for _ in range(per_thread):
            oracle.violates(G, 5)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.primitive_calls == 8 * per_thread
