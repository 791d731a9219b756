import random
from fractions import Fraction
from itertools import combinations

import pytest

from violator_spaces import (
    ConstraintSet,
    HalfplaneLp,
    InfeasibleRegion,
    Lp2dOracle,
    MiniballOracle,
    PointSet,
    Rng,
    smallest_enclosing_ball,
    solve,
    tabulate,
)
from test_exact_geometry import ref_circumball as _circumball, ref_dist2 as _dist2

from conftest import square_space


UNIT_SQUARE = PointSet.from_rows([[0, 0], [1, 0], [1, 1], [0, 1]])

LP_FIG4_ROWS = [(-1, -2, -6), (-1, -1, -4), (3, -4, -2), (1, -2, -2)]


def _brute_ball(points):
    """Independent oracle: best circumball over all support subsets."""
    best = None
    pts = list(points)
    d = len(pts[0])
    for size in range(1, min(len(pts), d + 1) + 1):
        for combo in combinations(pts, size):
            try:
                ball = _circumball(list(combo))
            except ArithmeticError:
                continue
            center, r2 = ball
            if all(_dist2(p, center) <= r2 for p in pts):
                if best is None or r2 < best[1]:
                    best = ball
    return best


# -- smallest enclosing ball -------------------------------------------


def test_ball_matches_brute_force_in_2d_and_3d():
    rnd = random.Random(61)
    for _ in range(60):
        d = rnd.choice([2, 3])
        n = rnd.randint(1, 6)
        pts = [
            tuple(Fraction(rnd.randint(0, 6), rnd.choice([1, 2])) for _ in range(d))
            for _ in range(n)
        ]
        center, r2 = smallest_enclosing_ball(pts)
        brute = _brute_ball(pts)
        assert brute is not None
        assert r2 == brute[1]
        assert all(_dist2(p, center) <= r2 for p in pts)


def test_ball_of_duplicate_points_has_zero_radius():
    pts = [(Fraction(2), Fraction(3))] * 4
    center, r2 = smallest_enclosing_ball(pts)
    assert center == (2, 3) and r2 == 0


def test_ball_of_collinear_points_is_diameter():
    pts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(5), Fraction(0))]
    center, r2 = smallest_enclosing_ball(pts)
    assert center == (Fraction(5, 2), 0)
    assert r2 == Fraction(25, 4)


# -- miniball oracle ----------------------------------------------------


def test_square_oracle_matches_printed_table():
    space = tabulate(MiniballOracle(UNIT_SQUARE, names=list("abcd")))
    assert space.check_axioms() is None
    expected = square_space()
    assert all(space.violator_mask(g) == expected.violator_mask(g) for g in range(16))


def test_boundary_points_are_not_violators():
    oracle = MiniballOracle(UNIT_SQUARE)
    ac = ConstraintSet.of([0, 2], 4)
    assert not oracle.violates(ac, 1)  # b sits on the diagonal circle
    assert not oracle.violates(ac, 3)
    ab = ConstraintSet.of([0, 1], 4)
    assert oracle.violates(ab, 2) and oracle.violates(ab, 3)


def test_empty_set_is_violated_by_everything():
    oracle = MiniballOracle(UNIT_SQUARE)
    empty = ConstraintSet.empty(4)
    assert all(oracle.violates(empty, h) for h in range(4))


def test_duplicate_point_does_not_violate_zero_ball():
    ps = PointSet.from_rows([[1, 1], [1, 1]])
    oracle = MiniballOracle(ps)
    assert not oracle.violates(ConstraintSet.of([0], 2), 1)


def test_dimension_guard():
    with pytest.raises(ValueError):
        MiniballOracle(PointSet.from_rows([list(range(11))]))


def test_tabulated_random_point_sets_pass_axioms_and_are_acyclic():
    rnd = random.Random(300)
    for _ in range(200):
        d = rnd.choice([2, 3])
        n = rnd.randint(1, 8 if d == 2 else 6)
        rows = [
            [Fraction(rnd.randint(0, 4), rnd.choice([1, 2])) for _ in range(d)]
            for _ in range(n)
        ]
        space = tabulate(MiniballOracle(PointSet.from_rows(rows)))
        assert space.check_axioms() is None
        assert space.structure().acyclic


def test_radius_is_monotone_under_insertion():
    rnd = random.Random(301)
    for _ in range(40):
        n = rnd.randint(2, 7)
        rows = [[rnd.randint(0, 8), rnd.randint(0, 8)] for _ in range(n)]
        oracle = MiniballOracle(PointSet.from_rows(rows))
        g = rnd.getrandbits(n) | 1
        G = ConstraintSet(g, n)
        h = rnd.randrange(n)
        if h in G:
            continue
        _, r2 = oracle.ball_of(G)
        _, r2_bigger = oracle.ball_of(G.add(h))
        assert r2 <= r2_bigger


def test_degenerate_configurations_pass_axioms():
    cases = [
        [[0, 0], [0, 0], [1, 0]],                      # duplicates
        [[0, 0], [1, 0], [2, 0], [3, 0]],              # collinear
        [[0, 0], [2, 0], [1, 1], [1, -1], [0, 0]],     # cocircular + dup
    ]
    for rows in cases:
        space = tabulate(MiniballOracle(PointSet.from_rows(rows)))
        assert space.check_axioms() is None


def test_solve_miniball_preserves_ball():
    rnd = random.Random(302)
    rows = [[rnd.randint(0, 30), rnd.randint(0, 30)] for _ in range(40)]
    oracle = MiniballOracle(PointSet.from_rows(rows))
    C, _ = solve(oracle, Rng(17))
    full_ball = oracle.ball_of(oracle.ground_set())
    basis_ball = oracle.ball_of(C)
    assert basis_ball == full_ball
    assert len(C) <= 3


# -- planar LP oracle ---------------------------------------------------


def test_lp_empty_set_optimum_is_origin():
    lp = HalfplaneLp.from_rows(LP_FIG4_ROWS)
    oracle = Lp2dOracle(lp)
    assert oracle.optimum_of(ConstraintSet.empty(4)) == (0, 0)
    # a halfplane containing the origin is not violated by the empty set
    lp2 = HalfplaneLp.from_rows([(1, 1, 5)])
    oracle2 = Lp2dOracle(lp2)
    assert not oracle2.violates(ConstraintSet.empty(1), 0)


def test_lp_fig4_class_structure():
    oracle = Lp2dOracle(HalfplaneLp.from_rows(LP_FIG4_ROWS), names=list("abcd"))
    space = tabulate(oracle)
    assert space.check_axioms() is None
    st = space.structure()
    assert st.acyclic
    labels = st.class_labels()
    assert labels == ["∅", "a", "b", "c", "d", "[ac]"]
    big = [cls for cls in st.classes if len(cls.members) > 1][0]
    assert {m.label(space.names).replace(",", "") for m in big.members} == {
        "ac", "ad", "bc", "bd",
    }
    idx = {lab: i for i, lab in enumerate(labels)}
    for lo, hi in [("∅", "b"), ("b", "a"), ("a", "[ac]"), ("∅", "c"), ("c", "d"), ("d", "[ac]")]:
        assert (idx[lo], idx[hi]) in st.leq1
    for lo, hi in [("a", "c"), ("c", "a"), ("b", "c"), ("d", "a"), ("a", "b"), ("d", "c")]:
        assert (idx[lo], idx[hi]) not in st.leq1


def test_lp_fig5_shows_nonmonotone_violators():
    lp = HalfplaneLp.from_rows(
        [(-1, -1, -2), (-1, 0, -1), (1, -4, -2), (-1, 2, -2)]
    )
    oracle = Lp2dOracle(lp, names=["h1", "h2", "h3", "hstar"])
    F = ConstraintSet.of([0, 1], 4)
    G = ConstraintSet.of([0, 1, 2], 4)
    assert not oracle.violates(F, 3)
    assert oracle.violates(G, 3)
    space = tabulate(oracle)
    assert space.check_axioms() is None


def test_lp_infeasible_subset_raises():
    # x <= -1 conflicts with the positive orthant
    oracle = Lp2dOracle(HalfplaneLp.from_rows([(1, 0, -1)]))
    with pytest.raises(InfeasibleRegion):
        oracle.optimum_of(ConstraintSet.of([0], 1))


def test_random_lps_with_common_point_pass_axioms():
    rnd = random.Random(500)
    for _ in range(40):
        n = rnd.randint(1, 6)
        rows = []
        for _ in range(n):
            a, b = rnd.randint(-4, 4), rnd.randint(-4, 4)
            while a == 0 and b == 0:
                a, b = rnd.randint(-4, 4), rnd.randint(-4, 4)
            # force (3, 7) feasible so every subset is feasible
            c = a * 3 + b * 7 + rnd.randint(0, 5)
            rows.append((a, b, c))
        space = tabulate(Lp2dOracle(HalfplaneLp.from_rows(rows)))
        assert space.check_axioms() is None
        assert space.structure().acyclic


def test_tabulate_size_guard():
    rows = [[i, 0] for i in range(17)]
    oracle = MiniballOracle(PointSet.from_rows(rows))
    with pytest.raises(ValueError):
        tabulate(oracle)


def test_tabulate_empty_ground_set():
    from violator_spaces import ViolationOracle

    class _Empty(ViolationOracle):
        def _violates(self, G, h):
            raise AssertionError("no queries possible on n=0")

    space = tabulate(_Empty(0, 1))
    assert space.n == 0
    assert space.violator_mask(0) == 0
    assert space.check_axioms() is None
