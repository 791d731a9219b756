"""The integer homogeneous kernels of `instances` against Fraction ones.

The `ref_*` functions are the rational-arithmetic kernels the integer
ones replaced, kept here as the reference: balls, optima, raised errors
and every violation test must agree with them exactly.
"""

import itertools
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from violator_spaces import (
    ConstraintSet,
    HalfplaneLp,
    InfeasibleRegion,
    Lp2dOracle,
    MiniballOracle,
    PointSet,
    smallest_enclosing_ball,
)
from violator_spaces.instances import (
    Scaled, _circumball, _lex_optimum, _shuffle_order, _solve_integer,
)

# the implicit region of every HalfplaneLp: x >= 0 and y >= 0
ORTHANT = [(-1, 0, 0), (0, -1, 0)]


# -- Fraction reference kernels -----------------------------------------


def ref_dist2(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def ref_solve_rational(mat, k):
    """Gaussian elimination over the rationals; free variables become 0.
    Returns None when the system is inconsistent."""
    rows = [list(map(Fraction, row)) for row in mat]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = rows[i][k]
    return sol


def ref_circumball(boundary):
    """Smallest ball with all boundary points on its sphere, or None."""
    if not boundary:
        return None
    p0 = boundary[0]
    vs = [tuple(a - b for a, b in zip(p, p0)) for p in boundary[1:]]
    k = len(vs)
    if k == 0:
        return p0, Fraction(0)
    mat = [
        [2 * sum(vi[t] * vj[t] for t in range(len(p0))) for vj in vs]
        + [sum(c * c for c in vi)]
        for vi in vs
    ]
    lam = ref_solve_rational(mat, k)
    if lam is None:
        raise ArithmeticError("boundary points admit no common sphere")
    center = tuple(
        p0[t] + sum(lam[j] * vs[j][t] for j in range(k)) for t in range(len(p0))
    )
    return center, ref_dist2(center, p0)


def ref_smallest_enclosing_ball(points):
    """Welzl's algorithm on Fractions, with the library's point shuffle."""
    pts = list(points)
    d = len(pts[0])
    random.Random(0x5EB ^ len(pts)).shuffle(pts)

    def md(i, boundary):
        ball = ref_circumball(boundary)
        if len(boundary) == d + 1:
            return ball
        for j in range(i):
            p = pts[j]
            if ball is None or ref_dist2(p, ball[0]) > ball[1]:
                ball = md(j, boundary + [p])
        return ball

    return md(len(pts), [])


def ref_lex_optimum(constraints):
    """Lexicographic (y, then x) minimum by Fraction vertex enumeration:
    the lowest of all pairwise crossings that every row admits.  The
    rows must bound the objective, as the orthant's rows do."""
    constraints = [tuple(map(Fraction, r)) for r in constraints]
    vertices = set()
    m = len(constraints)
    for i in range(m):
        a1, b1, c1 = constraints[i]
        for j in range(i + 1, m):
            a2, b2, c2 = constraints[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            vertices.add(((a1 * c2 - a2 * c1) / det, (c1 * b2 - c2 * b1) / det))
    # the lowest feasible vertex, by y and then x
    for y, x in sorted(vertices):
        if all(a * x + b * y <= c for a, b, c in constraints):
            return x, y
    raise InfeasibleRegion("no feasible vertex: the region is empty")


# -- point sets -----------------------------------------------------------


def _rational(rnd, lo=-30, hi=30):
    return Fraction(rnd.randint(lo, hi), rnd.randint(1, 9))


def _on_sphere(rnd, d):
    """A rational point on a sphere of radius 5 about (1, ..., 1):
    inverse stereographic projection of a rational point of Q^(d-1)."""
    u = [_rational(rnd, -6, 6) for _ in range(d - 1)]
    s = sum(x * x for x in u)
    unit = [2 * x / (s + 1) for x in u] + [(s - 1) / (s + 1)]
    return [1 + 5 * x for x in unit]


def _point_sets(seed, d, count, max_n):
    """Seeded point sets of every kind: integer, p/q, with duplicates,
    collinear, cospherical and on a small grid."""
    rnd = random.Random(seed)
    sets = []
    for k in range(count):
        n = rnd.randint(1, max_n)
        kind = k % 6
        if kind == 0:
            rows = [[rnd.randint(-20, 20) for _ in range(d)] for _ in range(n)]
        elif kind == 1:
            rows = [[_rational(rnd) for _ in range(d)] for _ in range(n)]
        elif kind == 2:
            base = [[_rational(rnd) for _ in range(d)] for _ in range(max(1, n // 2))]
            rows = [rnd.choice(base) for _ in range(n)]
        elif kind == 3:
            p0 = [_rational(rnd) for _ in range(d)]
            v = [rnd.randint(-3, 3) for _ in range(d)]
            rows = [[a + t * b for a, b in zip(p0, v)]
                    for t in (_rational(rnd, -5, 5) for _ in range(n))]
        elif kind == 4:
            rows = [_on_sphere(rnd, d) if d > 1 else [rnd.choice([-4, 6])] for _ in range(n)]
        else:
            rows = [[rnd.randint(0, 2) for _ in range(d)] for _ in range(n)]
        sets.append([tuple(Fraction(x) for x in row) for row in rows])
    return sets


@pytest.mark.parametrize("d, count, max_n", [(1, 60, 10), (2, 120, 14), (3, 90, 12),
                                             (4, 60, 10), (10, 18, 14)])
def test_balls_equal_the_fraction_reference(d, count, max_n):
    for pts in _point_sets(1000 + d, d, count, max_n):
        ball = smallest_enclosing_ball(pts)
        center, r2 = ref_smallest_enclosing_ball(pts)
        assert ball == (center, r2) and tuple(ball) == (center, r2)
        assert ball.D > 0
        # the homogeneous form is the same ball
        assert all(Fraction(c, ball.D) == x for c, x in zip(ball.C, center))
        assert Fraction(ball.R, ball.D ** 2) == r2


def _old_scan_circumballs(points):
    """_circumball calls of Welzl's scan without move-to-front, from the
    same seeded order: the kernel move-to-front replaced."""
    pts = PointSet.from_rows(points).points
    d = len(pts[0].N)
    pts = [pts[i] for i in _shuffle_order(len(pts))]
    calls = 0

    def md(i, boundary):
        nonlocal calls
        ball = None
        if boundary:
            calls += 1
            ball = _circumball(boundary)
        if len(boundary) == d + 1:
            return ball
        for j in range(i):
            if ball is None or ball.excludes(pts[j]):
                ball = md(j, boundary + [pts[j]])
        return ball

    md(len(pts), [])
    return calls


def test_move_to_front_welzl_is_exact_shallow_and_no_costlier(monkeypatch):
    import violator_spaces.instances as inst

    depths = []

    def logged(boundary):
        frame, depth = sys._getframe(1), 0
        while frame is not None:
            code = frame.f_code
            depth += code.co_name == "md" and code.co_filename == inst.__file__
            frame = frame.f_back
        depths.append(depth)
        return _circumball(boundary)

    monkeypatch.setattr(inst, "_circumball", logged)
    cases = [(d, _point_sets(2000 + d, d, 60, 12)) for d in (1, 2, 3)]
    cases.append((10, _point_sets(1010, 10, 18, 14)))
    for d, sets in cases:
        depths.clear()
        old_calls = 0
        for pts in sets:
            assert smallest_enclosing_ball(pts) == ref_smallest_enclosing_ball(pts)
            old_calls += _old_scan_circumballs(pts)
        assert 0 < len(depths) <= old_calls
        assert max(depths) <= d + 2
    # the cached orders are the seeded shuffles, untouched by the scans
    for k in range(1, 15):
        order = list(range(k))
        random.Random(0x5EB ^ k).shuffle(order)
        assert _shuffle_order(k) == tuple(order)


def _small_sets(rnd, d):
    """1-3 point sets in d dimensions: random, repeated, collinear,
    right triangles with the third point on the diameter sphere,
    equilateral (acute in 1-2D) and obtuse triangles."""
    def vec(lo=-9, hi=9):
        return [_rational(rnd, lo, hi) for _ in range(d)]

    def shift(p, v, t=1):
        return [a + t * b for a, b in zip(p, v)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    sets = []
    for _ in range(12):
        a, b, c, v = vec(), vec(), vec(), vec(-3, 3)
        sets += [[a], [a, b], [a, a], [a, b, c], [a, a, a], [a, a, b], [a, b, a]]
        # collinear: a and two more points on the line through a along v
        sets.append([a, shift(a, v, _rational(rnd, -5, 5)), shift(a, v, _rational(rnd, -5, 5))])
        # a right angle at c: (a - c) . (b - c) == 0
        u, w = vec(-4, 4), vec(-4, 4)
        if dot(u, u):
            w = [y - dot(w, u) / dot(u, u) * x for x, y in zip(u, w)]
        sets.append([shift(c, u), shift(c, w), c])
        # obtuse at c: c sits just off the midpoint of a and b
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        sets.append([a, shift(mid, v, Fraction(1, 7)), b])
    if d >= 3:
        # equilateral: three scaled unit vectors about a shifted origin
        for i, j, k in ((0, 1, 2), (d - 1, 0, 1)):
            o, s = vec(), _rational(rnd, 1, 9)
            sets.append([[o[t] + s * (t == e) for t in range(d)] for e in (i, j, k)])
    else:
        # an acute isosceles triangle
        sets.append([[0] * d, [4] + [0] * (d - 1), [2] + [3] * (d - 1)])
    return [[tuple(Fraction(x) for x in p) for p in pts] for pts in sets]


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_balls_of_up_to_three_points_are_closed_form(d, monkeypatch):
    import violator_spaces.instances as inst

    solves = []
    solve = inst._solve_integer

    def counted(rows):
        solves.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(inst, "_solve_integer", counted)
    rnd = random.Random(4000 + d)
    kinds = {"pair": 0, "triangle": 0}
    for pts in _small_sets(rnd, d):
        # every order of the points, so each pair ball comes first once
        for order in set(itertools.permutations(pts)):
            solves.clear()
            ball = smallest_enclosing_ball(order)
            assert ball == ref_smallest_enclosing_ball(order) and ball.D > 0
            assert len(solves) <= 1
            independent = _rank([tuple(a - b for a, b in zip(p, order[0]))
                                 for p in order[1:]]) == 2
            # a triangle's circumball is solved only when no pair ball
            # holds the third point, so only for independent points
            assert not solves or independent
            if len(order) == 3:
                kinds["triangle" if solves else "pair"] += 1
    assert kinds["pair"] > 0 and (d == 1 or kinds["triangle"] > 0)
    a, b = (tuple(_rational(rnd) for _ in range(d)) for _ in range(2))
    solves.clear()
    assert _circumball(PointSet.from_rows([a, b]).points) == ref_circumball([a, b])
    assert solves == []
    with pytest.raises(ArithmeticError):
        _circumball(PointSet.from_rows([a, a]).points)


def test_right_triangles_take_the_diameter_ball():
    # the third point lies exactly on the diameter sphere of the others
    for pts in ([(0, 0), (4, 0), (0, 3)], [(5, 0), (-5, 0), (3, 4)],
                [(0, 0, 0), (2, 0, 0), (1, 1, 0)], [(1, 1, 1), (3, 1, 1), (1, 1, 1)]):
        pts = [tuple(map(Fraction, p)) for p in pts]
        center, r2 = smallest_enclosing_ball(pts)
        assert (center, r2) == ref_smallest_enclosing_ball(pts)
        assert all(ref_dist2(p, center) == r2 for p in pts)


def _rank(vectors):
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_circumball_equals_the_fraction_reference_and_rejects_singular_boundaries():
    rnd = random.Random(71)
    independent = 0
    for k in range(600):
        d = rnd.randint(1, 4)
        size = rnd.randint(1, d + 1)
        pool = [tuple(_rational(rnd, -3, 3) for _ in range(d)) for _ in range(size)]
        # every fourth boundary repeats a point or sits on a line
        rows = [rnd.choice(pool) for _ in range(size)] if k % 4 == 0 else pool
        hom = PointSet.from_rows(rows).points
        if _rank([tuple(a - b for a, b in zip(p, rows[0])) for p in rows[1:]]) < size - 1:
            with pytest.raises(ArithmeticError):
                _circumball(hom)
            continue
        assert _circumball(hom) == ref_circumball(rows)
        independent += 1
    assert 300 < independent < 600
    collinear = [(0, 0), (1, 1), (3, 3)]
    with pytest.raises(ArithmeticError):
        _circumball(PointSet.from_rows(collinear).points)


@pytest.mark.parametrize("d", [2, 3])
def test_circumball_systems_end_on_a_positive_determinant(d, monkeypatch):
    # a positive row-scaling of the Gram matrix of independent vectors:
    # every pivot is a positive leading principal minor, so no sign flip
    import violator_spaces.instances as inst

    dets = []
    solve = inst._solve_integer

    def recorded(rows):
        N, det = solve(rows)
        dets.append(det)
        return N, det

    monkeypatch.setattr(inst, "_solve_integer", recorded)
    rnd = random.Random(77 + d)
    sizes = set()
    while len(dets) < 300:
        rows = [tuple(_rational(rnd, -9, 9) for _ in range(d))
                for _ in range(rnd.randint(3, d + 1))]
        if _rank([tuple(a - b for a, b in zip(p, rows[0])) for p in rows[1:]]) < len(rows) - 1:
            continue
        assert _circumball(PointSet.from_rows(rows).points) == ref_circumball(rows)
        sizes.add(len(rows))
    assert all(det > 0 for det in dets)
    assert sizes == set(range(3, d + 2))


def test_integer_solve_equals_rational_elimination():
    rnd = random.Random(72)
    for _ in range(500):
        k = rnd.randint(1, 6)
        mat = [[rnd.randint(-9, 9) for _ in range(k + 1)] for _ in range(k)]
        ref = ref_solve_rational(mat, k)
        try:
            N, det = _solve_integer([row[:] for row in mat])
        except ArithmeticError:
            continue
        assert [Fraction(x, det) for x in N] == ref


# -- planar LPs -----------------------------------------------------------


def _lp_rows(rnd, n):
    """Halfplanes with rational coefficients, parallel pairs included."""
    rows = []
    while len(rows) < n:
        a, b = _rational(rnd, -4, 4), _rational(rnd, -4, 4)
        if a == 0 and b == 0:
            continue
        rows.append((a, b, _rational(rnd, -20, 40)))
        if rnd.random() < 0.3:
            scale = Fraction(rnd.randint(1, 5), rnd.randint(1, 5))
            rows.append((a * scale, b * scale, _rational(rnd, -20, 40)))
    return rows[:n]


def _outcome(fn, arg):
    try:
        return tuple(fn(arg))
    except InfeasibleRegion as exc:
        return type(exc)


def test_lex_optimum_equals_the_fraction_reference():
    rnd = random.Random(73)
    seen = set()
    for _ in range(600):
        implicit = rnd.choice([
            [(-1, 0, 0), (0, -1, 0)],
            [(0, -1, 0)],
            [(-1, 0, 3), (0, -1, Fraction(-1, 2)), (1, 1, 2)],
        ])
        rows = [tuple(map(Fraction, r)) for r in implicit] + _lp_rows(rnd, rnd.randint(0, 8))
        ref = _outcome(ref_lex_optimum, ORTHANT + rows)
        assert _outcome(_lex_optimum, [Scaled.of(r).N for r in rows]) == ref
        seen.add(ref if isinstance(ref, type) else "optimum")
    assert seen == {InfeasibleRegion, "optimum"}


# A row spec: (kind, a, b, slack, scale).  The rows are integer, over a
# common denominator w of the point P = (px/w, py/w) that the tight rows
# pass through.
_ROW_SPEC = st.tuples(
    st.sampled_from(["tight", "loose", "copy", "parallel", "flat"]),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 9), st.integers(1, 3),
)


def _spec_rows(px, py, w, specs, open_below):
    """Integer rows from specs: lines through P, rows that hold at P with
    slack, scaled copies and parallel shifts of the previous row, and
    horizontal rows at or below P.  With open_below no normal points
    down, so only the orthant bounds the objective."""
    rows = []
    for kind, a, b, slack, scale in specs:
        if open_below:
            b = abs(b)
        if (a, b) == (0, 0) or kind == "flat":
            a, b = 0, (1 if open_below else -1)
        if kind in ("copy", "parallel") and rows:
            a0, b0, c0 = rows[-1]
            shift = 0 if kind == "copy" else (slack - 1) * w
            rows.append((a0 * scale, b0 * scale, c0 * scale + shift))
            continue
        tight = kind == "tight" or (kind == "flat" and slack % 2)
        rows.append((a * w, b * w, a * px + b * py + (0 if tight else slack * w)))
    return rows


@settings(derandomize=True, deadline=None, max_examples=150)
@given(px=st.integers(-20, 20), py=st.integers(-20, 20), w=st.integers(1, 4),
       specs=st.integers(0, 58).flatmap(lambda n: st.lists(_ROW_SPEC, min_size=n, max_size=n)),
       pin=st.booleans(),
       open_below=st.booleans(), infeasible_last=st.booleans())
def test_seidel_lp_equals_the_fraction_reference_on_up_to_60_rows(
    px, py, w, specs, pin, open_below, infeasible_last
):
    rows = _spec_rows(px, py, w, specs, open_below)
    if pin:
        # y >= py/w and a line on the right side through P: P is optimal,
        # and the horizontal row there asks for the tie-break on x
        rows += [(0, -w, -py), (-w, -w, -px - py)]
    if infeasible_last and rows:
        # the opposite of some row, placed where the shuffle takes it last
        a, b, c = rows[len(rows) // 2]
        rows.insert(_shuffle_order(len(rows) + 1)[-1], (-a, -b, -c - 1))
    assert len(rows) <= 60
    expected = _outcome(ref_lex_optimum, ORTHANT + rows)
    assert _outcome(_lex_optimum, rows) == expected
    if pin and infeasible_last:
        assert expected is InfeasibleRegion


# A boundedness spec: (kind, a, b, c, c2).  Each gives one or two rows.
_BOUND_SPEC = st.tuples(
    st.sampled_from(["strip", "single", "across", "floor", "x_bound", "wedge"]),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-9, 9), st.integers(-9, 9),
)


def _bound_rows(specs):
    """Rows that alone would leave the objective bounded or not by their
    nearest normals, so that the orthant binds or does not: strips with
    opposite normals (a, b) and (-a, -b); single rows; normals exactly
    opposite across the descent direction (-eps, -1), (k, b) and (-k, -b)
    with k > 0; the floor (0, -1) alone or with an x bound on either
    side; and wedges (k, b), (-k, b) opening up or down."""
    rows = []
    for kind, a, b, c, c2 in specs:
        if (a, b) == (0, 0):
            a = 1
        if kind == "strip":
            rows += [(a, b, c), (-a, -b, c2)]
        elif kind == "single":
            rows.append((a, b, c))
        elif kind == "across":
            k = abs(a) or 1
            rows += [(k, b, c), (-k, -b, c2)]
        elif kind == "floor":
            rows.append((0, -1, c))
        elif kind == "x_bound":
            rows.append((1 if a > 0 else -1, 0, c))
        else:
            k = abs(a) or 1
            rows += [(k, b, c), (-k, b, c2)]
    return rows


@settings(derandomize=True, deadline=None, max_examples=300)
@given(specs=st.lists(_BOUND_SPEC, min_size=1, max_size=3),
       extra=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-9, 9))
                      .filter(lambda r: r[:2] != (0, 0)), max_size=2))
def test_boundedness_test_equals_the_fraction_reference(specs, extra):
    rows = _bound_rows(specs) + extra
    expected = _outcome(ref_lex_optimum, ORTHANT + rows)
    assert _outcome(_lex_optimum, rows) == expected


# Shapes that bound the objective on their own or leave it unbounded;
# over the orthant its corner is the optimum of every feasible one.
@pytest.mark.parametrize("rows, expected", [
    ([], (0, 0)),
    ([(0, -1, 0)], (0, 0)),
    ([(0, -1, 0), (-1, 0, 2)], (0, 0)),
    ([(0, -1, 0), (1, 0, 2)], (0, 0)),
    ([(3, -2, 1)], (0, 0)),
    # horizontal, vertical and slanted strips: alone, a line of descent
    ([(0, -1, 0), (0, 1, 5)], (0, 0)),
    ([(1, 0, 1), (-1, 0, 1)], (0, 0)),
    ([(1, 1, 2), (-1, -1, 0)], (0, 0)),
    # exactly opposite normals on either side of the descent direction
    ([(1, -1, 0), (-1, 1, 0)], (0, 0)),
    ([(2, -1, 0), (-2, 1, 3)], (0, 0)),
    # wedges with their apex at the corner, opening up and down
    ([(1, -1, 0), (-1, -1, 0)], (0, 0)),
    ([(1, 1, 0), (-1, 1, 0)], (0, 0)),
    # an empty strip is infeasible, with or without an x bound
    ([(0, 1, -1), (0, -1, 0)], InfeasibleRegion),
    ([(0, 1, -1), (0, -1, 0), (-1, 0, 0)], InfeasibleRegion),
])
def test_boundedness_cases(rows, expected):
    assert _outcome(ref_lex_optimum, ORTHANT + rows) == expected
    assert _outcome(_lex_optimum, rows) == expected


def test_rows_through_the_optimum_cost_no_line_solve():
    import violator_spaces.instances as inst

    solves = []
    on_line = inst._lex_on_line

    def counted(row, taken):
        solves.append(row)
        return on_line(row, taken)

    rnd = random.Random(75)
    rows = [(-1, 0, 0), (0, -1, 0)]
    while len(rows) < 40:
        a, b = rnd.randint(-5, 5), rnd.randint(-5, 5)
        if (a, b) != (0, 0) and a + b <= 0:
            # lines through the origin, and halfplanes holding it inside;
            # every one of them admits (3, 3)
            rows.append((a, b, rnd.choice([0, 0, rnd.randint(1, 9)])))
    with mock.patch.object(inst, "_lex_on_line", counted):
        assert _lex_optimum(rows) == (0, 0)
        assert solves == []
        # a row that cuts the origin off is solved on its line first
        cut = (-1, -1, -3)
        expected = ref_lex_optimum([tuple(map(Fraction, r)) for r in rows + [cut]])
        assert _lex_optimum(rows + [cut]) == expected
        assert solves[0] == cut


def test_lp_oracle_equals_the_reference_on_40_halfplanes():
    rnd = random.Random(76)
    for _ in range(3):
        # all halfplanes hold at (5/2, 4/3); some pass through (3, 1)
        rows = []
        for a, b, _ in _lp_rows(rnd, 40):
            inner = a * Fraction(5, 2) + b * Fraction(4, 3)
            through = 3 * a + b
            rows.append((a, b, through if through >= inner and rnd.random() < 0.5
                         else inner + _rational(rnd, 0, 5)))
        oracle = Lp2dOracle(HalfplaneLp.from_rows(rows))
        for _ in range(15):
            G = ConstraintSet(rnd.getrandbits(40), 40)
            x, y = ref_lex_optimum(ORTHANT + [rows[i] for i in G])
            assert oracle.optimum_of(G) == (x, y)
            for h in range(40):
                if h not in G:
                    a, b, c = rows[h]
                    assert oracle.violates(G, h) is (a * x + b * y > c)


def test_lp_errors_are_raised_by_the_oracle():
    # x <= -1/3 conflicts with the positive orthant
    oracle = Lp2dOracle(HalfplaneLp.from_rows([(1, 0, Fraction(-1, 3)), (1, 1, 5)]))
    with pytest.raises(InfeasibleRegion):
        oracle.violates(ConstraintSet.of([0], 2), 1)


# -- every query of small instances --------------------------------------


def _all_queries(oracle):
    n = oracle.n
    return [(ConstraintSet(g, n), h) for g in range(1 << n) for h in range(n) if not g >> h & 1]


def test_every_miniball_query_equals_the_reference():
    sets = [pts for d in (1, 2, 3) for pts in _point_sets(2000 + d, d, 24, 6)]
    for pts in sets:
        oracle = MiniballOracle(PointSet.from_rows(pts))
        for G, h in _all_queries(oracle):
            if not G:
                expected = True
            else:
                center, r2 = ref_smallest_enclosing_ball([pts[i] for i in G])
                expected = ref_dist2(pts[h], center) > r2
                assert oracle.ball_of(G) == (center, r2)
            assert oracle.violates(G, h) is expected


def test_every_lp_query_equals_the_reference():
    rnd = random.Random(74)
    for _ in range(30):
        n = rnd.randint(1, 6)
        # all halfplanes hold at (3/2, 7/3), so every subset is feasible
        rows = []
        for a, b, _ in _lp_rows(rnd, n):
            rows.append((a, b, a * Fraction(3, 2) + b * Fraction(7, 3) + _rational(rnd, 0, 5)))
        oracle = Lp2dOracle(HalfplaneLp.from_rows(rows))
        for G, h in _all_queries(oracle):
            x, y = ref_lex_optimum(ORTHANT + [rows[i] for i in G])
            a, b, c = rows[h]
            assert oracle.optimum_of(G) == (x, y)
            assert oracle.violates(G, h) is (a * x + b * y > c)


def test_answers_read_as_fraction_tuples():
    ball = smallest_enclosing_ball([(Fraction(1, 3), 0), (1, 0)])
    center, r2 = ball
    assert (center, r2) == ((Fraction(2, 3), 0), Fraction(1, 9))
    assert ball[1] == r2 and hash(ball) == hash((center, r2))
    assert repr(ball) == repr((center, r2))
    assert ball == smallest_enclosing_ball([(1, 0), (Fraction(1, 3), 0)])
    point = PointSet.from_rows([["3/4", Fraction(1, 6), 2]]).points[0]
    assert point == (Fraction(3, 4), Fraction(1, 6), 2) and (point.N, point.q) == ((9, 2, 24), 12)
    opt = Lp2dOracle(HalfplaneLp.from_rows([(0, -2, -1)])).optimum_of(ConstraintSet.of([0], 1))
    assert opt == (0, Fraction(1, 2)) and opt[1] == Fraction(1, 2)
