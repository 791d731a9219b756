import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from violator_spaces import (
    ConstraintSet,
    GridPartition,
    IterationGuardExceeded,
    NoBasisFound,
    Rng,
    ViolationOracle,
    basis1,
    basis2,
    coordinate_order_oracle,
    sampling_check,
    solve,
    trivial_basis,
)
from violator_spaces.algorithms import _iterations
from violator_spaces.core import SolveStats

from conftest import cyclic3_space, random_concrete_space, square_space


def _grid_oracle(n, delta, seed):
    part = GridPartition.uniform([n // delta] * (delta - 1) + [n - (n // delta) * (delta - 1)])
    rng = Rng(seed)
    rankings = [rng.subset(list(b), len(b)) for b in part.blocks]
    return coordinate_order_oracle(part, rankings), rankings


# -- rng ---------------------------------------------------------------


def test_rng_is_reproducible():
    a = Rng(123456789)
    b = Rng(123456789)
    assert [a.randbelow(1000) for _ in range(50)] == [
        b.randbelow(1000) for _ in range(50)
    ]
    assert a.subset(range(100), 10) == b.subset(range(100), 10)


def test_rng_spawn_differs_from_parent():
    r = Rng(7)
    assert r.spawn(0).seed != r.seed
    assert r.spawn(0).seed == Rng(7).spawn(0).seed
    assert r.spawn(0).seed != r.spawn(1).seed


def test_subset_is_uniformly_sized_and_contained():
    r = Rng(42)
    members = list(range(30))
    for _ in range(100):
        picked = r.subset(members, 7)
        assert len(picked) == 7 and len(set(picked)) == 7
        assert set(picked) <= set(members)


def test_weighted_support_collapses_duplicates():
    r = Rng(3)
    for _ in range(50):
        support = r.weighted_support([0, 1, 2], [5, 1, 1], 3)
        assert support <= {0, 1, 2}
        assert 1 <= len(support) <= 3


def test_weighted_support_draws_over_uncapped_weights():
    # 3*delta*ln|G| doublings exceed 128 bits for large delta; ints are unbounded
    heavy = 2**200
    for seed in range(20):
        x = Rng(seed).randbelow(heavy + 1)
        expected = {10} if x < heavy else {20}
        assert Rng(seed).weighted_support([10, 20], [heavy, 1], 1) == expected
    assert Rng(0).weighted_support([10, 20], [heavy, 1], 2) <= {10, 20}
    with pytest.raises(ValueError):
        Rng(0).weighted_support([10, 20], [1, 1], 3)


def _linear_weighted_support(rng, members, weights, r):
    """The draws `weighted_support` is held to, frozen here: each copy is
    found by a linear scan of the running weights."""
    weights = list(weights)
    total = sum(weights)
    if r > total:
        raise ValueError(f"cannot draw {r} of {total} copies")
    support = set()
    for _ in range(r):
        x = rng.randbelow(total)
        for idx, w in enumerate(weights):
            if x < w:
                break
            x -= w
        support.add(members[idx])
        weights[idx] -= 1
        total -= 1
    return support


def _assert_same_draws(seed, weights, r):
    members = [100 + i for i in range(len(weights))]
    before = list(weights)
    fast, slow = Rng(seed), Rng(seed)
    assert fast.weighted_support(members, weights, r) == _linear_weighted_support(
        slow, members, weights, r
    )
    assert weights == before
    assert fast.randbelow(1 << 64) == slow.randbelow(1 << 64)


def test_weighted_support_draws_as_the_linear_scan():
    rnd = random.Random(15)
    for seed in range(200):
        g = rnd.choice([0, 1, 2, 3, 7, 8, 9, 31, 64, 100])
        weights = [rnd.choice([0, 0, 1, 2, 5, rnd.randint(0, 2**40)]) for _ in range(g)]
        total = sum(weights)
        for r in {0, min(total, 1), min(total, 40), min(total, rnd.randint(0, 200))}:
            _assert_same_draws(seed, weights, r)
    for weights in ([], [0], [1], [0, 0, 3, 0], [2**40], [2**40, 0, 2**40]):
        for r in range(min(sum(weights), 5) + 1):
            _assert_same_draws(7, weights, r)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(st.integers(0, 4) | st.integers(0, 2**40), max_size=12),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_weighted_support_draws_as_the_linear_scan_on_any_weights(weights, seed, data):
    total = sum(weights)
    r = data.draw(st.integers(0, min(total, 60)))
    if total <= 60:
        r = data.draw(st.sampled_from([r, total]))
    _assert_same_draws(seed, weights, r)
    excess = total + data.draw(st.integers(1, 3))
    with pytest.raises(ValueError) as fast:
        Rng(seed).weighted_support(list(range(len(weights))), weights, excess)
    with pytest.raises(ValueError) as slow:
        _linear_weighted_support(Rng(seed), list(range(len(weights))), weights, excess)
    assert str(fast.value) == str(slow.value)


# -- trivial basis -----------------------------------------------------


def test_trivial_basis_on_cyclic3_full_set():
    oracle = cyclic3_space().oracle(delta=3)
    B = trivial_basis(oracle, oracle.ground_set())
    assert sorted(B) == [0, 1, 2]


def test_trivial_basis_of_empty_set():
    oracle = cyclic3_space().oracle(delta=3)
    assert trivial_basis(oracle, ConstraintSet.empty(3)).mask == 0


def test_trivial_basis_on_square_prefers_lexicographic():
    oracle = square_space().oracle(delta=2)
    B = trivial_basis(oracle, oracle.ground_set())
    assert sorted(B) == [0, 2]  # {a, c} before {b, d}


def test_trivial_basis_raises_when_delta_too_small():
    oracle = cyclic3_space().oracle(delta=2)
    with pytest.raises(NoBasisFound):
        trivial_basis(oracle, oracle.ground_set())


def test_trivial_basis_call_budget():
    space = square_space()
    oracle = space.oracle(delta=2)
    trivial_basis(oracle, oracle.ground_set())
    n = 4
    budget = n * sum(math.comb(n, i) for i in range(3))
    assert oracle.primitive_calls <= budget


# -- clarkson stages ---------------------------------------------------


def test_basis1_delegates_below_threshold():
    # identical randomness stream makes delegation literally equal
    space = square_space()
    for seed in range(20):
        o1 = space.oracle(delta=2)
        o2 = space.oracle(delta=2)
        b1, _ = basis1(o1, o1.ground_set(), Rng(seed))
        b2, _ = basis2(o2, o2.ground_set(), Rng(seed))
        assert b1 == b2


def test_basis1_result_has_no_violators_full_scan():
    oracle, rankings = _grid_oracle(200, 2, 42)
    C, stats = basis1(oracle, oracle.ground_set(), Rng(42))
    fresh, _ = _grid_oracle(200, 2, 42)
    assert all(
        not fresh.violates(C, h) for h in range(200) if h not in C
    )
    assert stats.w_augmentations <= 2


def test_basis1_and_basis2_match_table_violators_on_random_spaces():
    rnd = random.Random(404)
    space = random_concrete_space(rnd, 8)
    target = space.violator_mask((1 << 8) - 1)
    delta = max(space.combinatorial_dimension(), 1)
    for seed in range(100):
        for stage in (basis1, basis2):
            oracle = space.oracle(delta=max(delta, 3))
            C, stats = stage(oracle, oracle.ground_set(), Rng(seed))
            assert space.violator_mask(C.mask) == target
            assert stats.w_augmentations <= oracle.delta


def test_basis2_below_threshold_equals_trivial():
    space = square_space()
    o1 = space.oracle(delta=2)
    o2 = space.oracle(delta=2)
    B2, _ = basis2(o1, o1.ground_set(), Rng(5))
    assert B2 == trivial_basis(o2, o2.ground_set())


def test_basis2_on_sixty_element_grid():
    oracle, _ = _grid_oracle(60, 2, 7)
    C, stats = basis2(oracle, oracle.ground_set(), Rng(7))
    fresh, _ = _grid_oracle(60, 2, 7)
    trivial_best = trivial_basis(fresh, fresh.ground_set())
    assert C == trivial_best  # both are the unique global sink vertex
    assert stats.reweight_iterations < 3 * 2 * math.log(60)


def test_basis2_reweight_bound_over_many_runs():
    bound = 3 * 2 * math.log(100)
    for seed in range(100):
        oracle, _ = _grid_oracle(100, 2, seed)
        C, stats = basis2(oracle, oracle.ground_set(), Rng(seed))
        assert stats.reweight_iterations < bound
        assert stats.primitive_calls > 0


def test_solve_on_one_element_space():
    from violator_spaces import ExplicitViolatorSpace

    space = ExplicitViolatorSpace(1, [0b1, 0])
    space.check_axioms()
    oracle = space.oracle()
    C, _ = solve(oracle, Rng(0))
    assert sorted(C) == [0]


def test_solve_square_returns_empty_violator_basis():
    for seed in range(10):
        oracle = square_space().oracle(delta=2)
        C, _ = solve(oracle, Rng(seed))
        assert sorted(C) in ([0, 2], [1, 3])


def test_seed_determinism_of_solve():
    def run():
        oracle, _ = _grid_oracle(150, 2, 9)
        return solve(oracle, Rng(31337))

    C1, s1 = run()
    C2, s2 = run()
    assert C1 == C2
    assert s1 == s2


# -- guards ------------------------------------------------------------


class _ChasingOracle(ViolationOracle):
    """Not a violator space: the sole violator of any nonempty set chases
    its minimum, so no candidate basis ever stops violating."""

    def _violates(self, G, h):
        if not G:
            return True
        return h == (min(G) + 1) % self.n


def test_basis2_guard_trips_on_non_violator_space():
    oracle = _ChasingOracle(50, 1)
    with pytest.raises(IterationGuardExceeded):
        basis2(oracle, oracle.ground_set(), Rng(1))


def test_basis1_guard_trips_on_non_violator_space():
    oracle = _ChasingOracle(100, 1)
    with pytest.raises(IterationGuardExceeded):
        basis1(oracle, oracle.ground_set(), Rng(1))


# -- sampling ----------------------------------------------------------


def test_sampling_square_equality_case():
    space = square_space()
    oracle = space.oracle()  # exact dimension 2
    report = sampling_check(
        oracle, ConstraintSet.empty(4), 2, 10000, Rng(1234)
    )
    assert report.bound == pytest.approx(4 / 3)
    # exact mean over the six 2-subsets is 4/3; Monte Carlo within 3 sigma
    assert abs(report.mean - 4 / 3) <= 3 * report.stddev / math.sqrt(10000)
    assert report.passed


def test_sampling_r_equal_n_minus_one():
    space = square_space()
    oracle = space.oracle()
    report = sampling_check(oracle, ConstraintSet.empty(4), 3, 500, Rng(7))
    assert report.bound == pytest.approx(oracle.delta / 4)
    assert report.passed


def test_sampling_with_fixed_working_set():
    oracle, _ = _grid_oracle(30, 3, 5)
    W = ConstraintSet.of([0, 10], 30)
    report = sampling_check(oracle, W, 10, 400, Rng(99))
    assert report.passed


def test_sampling_on_grid_uso_meets_closed_form_bound():
    oracle, _ = _grid_oracle(30, 3, 6)
    report = sampling_check(
        oracle, ConstraintSet.empty(30), 10, 10000, Rng(123)
    )
    assert report.bound == pytest.approx(3 * 20 / 11)
    assert report.mean <= report.bound + 3 * report.stddev / math.sqrt(10000)
    assert report.passed


def test_trivial_grows_superlinearly_while_clarkson_stays_linear():
    counts = {}
    for n in (32, 128):
        oracle, _ = _grid_oracle(n, 2, 1)
        trivial_basis(oracle, oracle.ground_set())
        counts[n] = oracle.primitive_calls
    assert counts[128] > 4 * counts[32]  # beyond linear in n
    clarkson = {}
    for n in (32, 128):
        oracle, _ = _grid_oracle(n, 2, 1)
        _, stats = basis1(oracle, oracle.ground_set(), Rng(1))
        clarkson[n] = stats.primitive_calls
    assert clarkson[128] < 4 * max(counts[32], clarkson[32])


def test_sampling_rejects_bad_r():
    oracle = square_space().oracle()
    with pytest.raises(ValueError):
        sampling_check(oracle, ConstraintSet.empty(4), 4, 10, Rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: Rng(0).randbelow(0), "bound must be positive"),
    (lambda: Rng(0).subset([1, 2], 3), "cannot draw 3 of 2 elements"),
    (lambda: sampling_check(square_space().oracle(), ConstraintSet.empty(4), 2, 0, Rng(0)),
     "need at least one trial"),
])
def test_bad_draw_and_trial_counts_raise(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_iteration_guard_stops_a_stage_past_its_limit():
    # 100 * delta * (1 + log2 g) = 200 iterations at delta = 1, g = 2
    stats = SolveStats(rng_seed=0)
    with pytest.raises(IterationGuardExceeded) as raised:
        for _ in _iterations("basis2", 1, 2, stats):
            pass
    assert str(raised.value) == "basis2 exceeded 200 iterations on |G|=2"
    assert stats.loop_iterations == 201


def test_solve_on_halfplane_oracle():
    from violator_spaces import HalfplaneLp, Lp2dOracle

    rows = [(-1, -2, -6), (-1, -1, -4), (3, -4, -2), (1, -2, -2)]
    for seed in range(10):
        oracle = Lp2dOracle(HalfplaneLp.from_rows(rows), names=list("abcd"))
        C, _ = solve(oracle, Rng(seed))
        fresh = Lp2dOracle(HalfplaneLp.from_rows(rows))
        assert all(not fresh.violates(C, h) for h in range(4) if h not in C)
        assert {tuple(sorted(C))} <= {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_basis2_subcalls_stay_within_three_delta_root_bound(monkeypatch):
    import violator_spaces.algorithms as alg

    n, delta = 400, 2
    oracle, _ = _grid_oracle(n, delta, 3)
    seen = []
    inner = alg._basis2

    def spy(oracle_, G, rng, stats):
        seen.append(len(G))
        return inner(oracle_, G, rng, stats)

    monkeypatch.setattr(alg, "_basis2", spy)
    C, _ = alg.basis1(oracle, oracle.ground_set(), Rng(3))
    assert seen
    bound = 3 * delta * math.sqrt(n)
    assert all(size <= bound for size in seen)
