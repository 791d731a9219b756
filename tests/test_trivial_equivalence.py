"""The base case against a frozen copy of its set-building form.

The reference below is the earlier `trivial_basis`: every candidate
built with `ConstraintSet.of` from its members, every removal with
`ConstraintSet.remove` and every member tested with `in`.  The current
one builds candidates from precomputed member bits.  On every input both
must make the same violation queries in the same order, return the same
basis (or raise the same message) and leave the same call and
edge-evaluation counts.
"""

import random
from itertools import combinations

import pytest

from violator_spaces import (
    ConstraintSet,
    GridPartition,
    Lp2dOracle,
    MiniballOracle,
    NoBasisFound,
    Rng,
    cyclic_cube_uso,
    random_uso,
    tabulate_oracle,
    trivial_basis,
    uso_oracle,
)

from conftest import random_concrete_space
from test_algorithms import _ChasingOracle
from test_clarkson_equivalence import _grid, _halfplanes, _logged, _points


def _ref_trivial_basis(oracle, G):
    members = sorted(G)
    n = oracle.n
    limit = min(oracle.delta, len(members))
    for size in range(limit + 1):
        for combo in combinations(members, size):
            B = ConstraintSet.of(combo, n)
            ok = True
            for h in combo:
                if not oracle.violates(B.remove(h), h):
                    ok = False
                    break
            if not ok:
                continue
            for h in members:
                if h not in B and oracle.violates(B, h):
                    ok = False
                    break
            if ok:
                return B
    raise NoBasisFound(
        f"no subset of size <= {oracle.delta} is a basis of the given set"
    )


def _run(basis, make_oracle, gmask):
    oracle, log = _logged(make_oracle())
    try:
        outcome = basis(oracle, ConstraintSet(gmask, oracle.n)).mask
    except NoBasisFound as exc:
        outcome = str(exc)
    return outcome, log, oracle.primitive_calls, getattr(oracle, "edge_evals", None)


def _assert_same_queries(make_oracle, gmasks) -> int:
    """Compare both base cases on every set; return how many raised."""
    raised = 0
    for gmask in gmasks:
        got = _run(trivial_basis, make_oracle, gmask)
        assert got == _run(_ref_trivial_basis, make_oracle, gmask)
        raised += isinstance(got[0], str)
    return raised


def _some_sets(n, count, seed):
    rnd = random.Random(seed)
    return [(1 << n) - 1, 0] + [rnd.getrandbits(n) for _ in range(count)]


@pytest.mark.parametrize("n, delta", [(8, 2), (14, 2), (9, 3), (12, 3)])
def test_base_case_matches_reference_on_coordinate_grids(n, delta):
    # sets that miss a block, vertices and sink scans alike
    _assert_same_queries(_grid(n, delta, n * delta), _some_sets(n, 40, n + delta))


@pytest.mark.parametrize("seed, sizes", [(1, (3, 3)), (2, (3, 2)), (3, (2, 2, 2)), (4, (3, 2, 2))])
def test_base_case_matches_reference_on_random_usos(seed, sizes):
    u = random_uso(GridPartition.uniform(list(sizes)), Rng(seed))
    _assert_same_queries(lambda: uso_oracle(u), range(1 << u.n))


def test_base_case_matches_reference_on_the_tabulated_cyclic_cube():
    space = tabulate_oracle(uso_oracle(cyclic_cube_uso()))
    assert space.check_axioms() is None
    _assert_same_queries(space.oracle, range(1 << space.n))


def test_base_case_matches_reference_on_concrete_derived_spaces():
    rnd = random.Random(4242)
    raised = 0
    for n in (4, 5, 6, 7):
        space = random_concrete_space(rnd, n)
        dim = max(space.combinatorial_dimension(), 1)
        for delta in sorted({dim, max(dim - 1, 1)}):
            # a hint below the dimension exercises NoBasisFound
            raised += _assert_same_queries(lambda: space.oracle(delta), range(1 << n))
    assert raised > 0


def test_base_case_matches_reference_on_geometry():
    rnd = random.Random(515)
    for n, d in ((8, 2), (7, 3), (12, 1)):
        ps = _points(rnd, n, d)
        _assert_same_queries(lambda: MiniballOracle(ps), _some_sets(n, 12, n))
    for n in (6, 10, 16):
        lp = _halfplanes(rnd, n)
        _assert_same_queries(lambda: Lp2dOracle(lp), _some_sets(n, 20, n))


def test_base_case_matches_reference_on_a_non_violator_space():
    for n, delta in ((6, 1), (9, 2), (12, 1)):
        raised = _assert_same_queries(lambda: _ChasingOracle(n, delta), _some_sets(n, 10, n))
        assert raised > 0
