"""The chasing base case against the exhaustive scan.

`_chase_basis` pivots to one basis of G, tests its members for being
extreme in G (every member of G when the chase meets a basis twice) and
scans only supersets of the extreme ones; `trivial_basis` tries every
subset of size <= delta.  On every input both must return the same basis
or raise the same `NoBasisFound` message.  Every oracle here is capped,
so a chase that stops ending fails instead of hanging.
"""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import violator_spaces.algorithms as alg
from violator_spaces import (
    ConstraintSet,
    ExplicitViolatorSpace,
    GridPartition,
    HalfplaneLp,
    Lp2dOracle,
    MiniballOracle,
    NoBasisFound,
    OutmapOracle,
    PointSet,
    Rng,
    cyclic_cube_uso,
    random_uso,
    solve,
    tabulate_oracle,
    trivial_basis,
    uso_oracle,
    validate_uso,
)
from violator_spaces.fileio import load_path

from conftest import random_concrete_space
from golden.regenerate import HERE, combed_cycling
from test_algorithms import _ChasingOracle

CAP = 100_000
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def _capped(oracle):
    """Fail once the oracle has answered CAP queries."""
    inner = oracle._violates

    def violates(G, h):
        if oracle.primitive_calls > CAP:
            raise AssertionError(f"more than {CAP} violation queries")
        return inner(G, h)

    oracle._violates = violates
    return oracle


def _outcome(basis, oracle, gmask):
    try:
        return basis(_capped(oracle), ConstraintSet(gmask, oracle.n)).mask
    except NoBasisFound as exc:
        return str(exc)


def _assert_same_bases(make_oracle, gmasks) -> int:
    """Compare both base cases on every set; return how many raised."""
    raised = 0
    for gmask in gmasks:
        got = _outcome(alg._chase_basis, make_oracle(), gmask)
        assert got == _outcome(trivial_basis, make_oracle(), gmask), gmask
        raised += isinstance(got, str)
    return raised


def _relabeled(space, perm):
    """The same space with constraint i renamed perm[i]."""
    def move(mask):
        return sum(1 << perm[i] for i in range(space.n) if (mask >> i) & 1)

    table = [0] * (1 << space.n)
    for g in range(1 << space.n):
        table[move(g)] = move(space.violator_mask(g))
    return ExplicitViolatorSpace(space.n, table)


def _cyclic_cube():
    space = tabulate_oracle(uso_oracle(cyclic_cube_uso()))
    assert space.check_axioms() is None
    return space


# -- geometry ------------------------------------------------------------


def _point_lists(d):
    # coordinates in -2..2 repeat points and put many on one line
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    return st.lists(point, min_size=1, max_size=9)


@PROPERTY
@given(data=st.data(), d=st.integers(1, 3))
def test_equals_the_scan_on_repeated_and_collinear_points(data, d):
    rows = data.draw(_point_lists(d))
    gmask = data.draw(st.integers(0, (1 << len(rows)) - 1))
    ps = PointSet.from_rows(rows)
    _assert_same_bases(lambda: MiniballOracle(ps), [(1 << len(rows)) - 1, gmask])


CIRCLE = [[5, 0], [-5, 0], [0, 5], [0, -5], [3, 4], [-3, -4], [4, -3], [-4, 3]]


@pytest.mark.parametrize("extra", [[], [[0, 0]], [[5, 0]], [[0, 0], [1, 2]]])
def test_equals_the_scan_on_cocircular_points(extra):
    # antipodal pairs: no point is extreme, and many bases tie
    ps = PointSet.from_rows(CIRCLE + extra)
    n = len(CIRCLE) + len(extra)
    _assert_same_bases(lambda: MiniballOracle(ps), range(1 << n))


def test_equals_the_scan_on_cospherical_points():
    rows = [[s * 3, 0, 0] for s in (1, -1)] + [[0, s * 3, 0] for s in (1, -1)]
    rows += [[0, 0, s * 3] for s in (1, -1)] + [[1, 2, 2], [-2, -1, 2], [0, 0, 0]]
    ps = PointSet.from_rows(rows)
    _assert_same_bases(lambda: MiniballOracle(ps), range(1 << len(rows)))


def test_equals_the_scan_on_an_lp_with_many_rows_through_the_optimum():
    # all but the last two rows pass through the optimum (2, 1), and
    # (0, -2, -2) is (0, -1, -1) scaled by 2
    rows = [(0, -1, -1), (-1, -1, -3), (-1, -2, -4), (1, -1, 1), (-2, -1, -5),
            (0, -2, -2), (1, -3, -1), (-1, 0, -1), (0, -1, 0)]
    lp = HalfplaneLp.from_rows(rows)
    _assert_same_bases(lambda: Lp2dOracle(lp), range(1 << len(rows)))


# -- tables and USOs -----------------------------------------------------


@pytest.mark.parametrize("seed, sizes", [(1, (3, 3)), (2, (3, 2)), (3, (2, 2, 2)), (4, (3, 2, 2))])
def test_equals_the_scan_on_random_usos(seed, sizes):
    u = random_uso(GridPartition.uniform(list(sizes)), Rng(seed))
    _assert_same_bases(lambda: uso_oracle(u), range(1 << u.n))


def test_equals_the_scan_on_concrete_derived_spaces():
    rnd = random.Random(2024)
    raised = 0
    for n in (4, 5, 6, 7, 8):
        for _ in range(3):
            space = random_concrete_space(rnd, n)
            dim = max(space.combinatorial_dimension(), 1)
            for delta in sorted({dim, max(dim - 1, 1)}):
                # a hint below the dimension exercises NoBasisFound
                raised += _assert_same_bases(lambda: space.oracle(delta), range(1 << n))
    assert raised > 0


def test_equals_the_scan_on_every_relabeling_of_the_cyclic_cube():
    cube = _cyclic_cube()
    revisits = []
    full = ConstraintSet.full(cube.n)
    for perm in permutations(range(cube.n)):
        space = _relabeled(cube, perm)
        revisited = alg._chase(_capped(space.oracle(3)), full) is None
        if revisited:
            revisits.append(perm)
        # every subset of the cube itself and wherever the chase revisits
        if revisited or perm == tuple(range(cube.n)):
            _assert_same_bases(lambda: space.oracle(3), range(1 << cube.n))
        else:
            _assert_same_bases(lambda: space.oracle(3), [full.mask])
    # the chase revisits a basis on the full set of 78 of the 720
    assert len(revisits) == 78
    assert (0, 1, 5, 3, 2, 4) in revisits


def test_a_square_returns_the_first_basis_not_the_chased_one():
    # the chase ends on the diagonal {1, 2}; {0, 3} comes first
    ps = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])
    G = ConstraintSet.full(4)
    assert sorted(alg._chase(MiniballOracle(ps), G)) == [1, 2]
    assert sorted(alg._chase_basis(MiniballOracle(ps), G)) == [0, 3]


# -- oracles that break the axioms -----------------------------------------


CHASING = [(6, 1), (9, 2), (12, 1), (50, 1)]


@pytest.mark.parametrize("n, delta", CHASING)
def test_chasing_oracle_falls_back_to_the_scan(n, delta):
    assert alg._chase(_capped(_ChasingOracle(n, delta)), ConstraintSet.full(n)) is None
    rnd = random.Random(n)
    sets = [(1 << n) - 1, 0] + [rnd.getrandbits(n) for _ in range(10)]
    assert _assert_same_bases(lambda: _ChasingOracle(n, delta), sets) > 0


# -- a chase that meets a basis twice --------------------------------------


def _reference_chase_basis(oracle, G):
    """The base case, frozen here: after a chase that meets a basis
    twice, every member of G in ascending order is tested for being
    extreme, and the scan runs over supersets of the extreme ones."""
    n = oracle.n
    try:
        B = alg._chase(oracle, G)
        extreme = 0
        for h in G if B is None else B:
            if oracle.violates(ConstraintSet(G.mask ^ 1 << h, n), h):
                extreme |= 1 << h
        if B is not None and extreme == B.mask:
            return B
        return trivial_basis(oracle, G, extreme)
    except NoBasisFound:
        return trivial_basis(oracle, G)


def _query_log(basis, oracle, gmask):
    """The outcome of basis on G and every (G, h) it asked, in order."""
    log = []
    inner = oracle._violates

    def violates(G, h):
        log.append((G.mask, h))
        return inner(G, h)

    oracle._violates = violates
    return _outcome(basis, oracle, gmask), log


def test_a_repeated_basis_asks_what_the_frozen_base_case_asks():
    cases = [(lambda n=n, delta=delta: _ChasingOracle(n, delta), n) for n, delta in CHASING]
    cube = _cyclic_cube()
    for perm in permutations(range(cube.n)):
        cases.append((lambda space=_relabeled(cube, perm): space.oracle(3), cube.n))
    # a cyclic USO with 20 x 2 x 2 x 2 vertices
    _, (combed, _) = load_path(str(HERE / "uso_combed_cycling_20.json"))
    assert validate_uso(combed) is None
    cases.append((lambda: uso_oracle(combed), combed.n))
    repeated = 0
    for make, n in cases:
        if alg._chase(_capped(make()), ConstraintSet.full(n)) is not None:
            continue
        repeated += 1
        log = _query_log(alg._chase_basis, make(), (1 << n) - 1)
        assert log == _query_log(_reference_chase_basis, make(), (1 << n) - 1)
        _assert_same_bases(make, [(1 << n) - 1])
    assert repeated == len(CHASING) + 78 + 1


def test_a_lazy_cyclic_solve_that_repeats_a_basis_stays_cheap(monkeypatch):
    blocks, member = combed_cycling(1, 100)
    oracle = OutmapOracle(GridPartition(tuple(map(tuple, blocks))), member)
    chase, repeated = alg._chase, []

    def spy(oracle, G):
        B = chase(oracle, G)
        repeated.append(B is None)
        return B

    monkeypatch.setattr(alg, "_chase", spy)
    C, stats = solve(oracle, Rng(1))
    assert any(repeated)
    sink = next(J for J in product(*blocks) if not any(member(J, j) for j in range(oracle.n)))
    assert sorted(C) == sorted(sink)
    assert stats.primitive_calls < 10_000
