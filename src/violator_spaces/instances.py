"""Geometric violation oracles: smallest enclosing ball and planar LP.

The ball of up to three points has a closed form: the point, the
diameter ball of a pair, or the first pair ball that holds the third
point and otherwise the triangle's circumball.  Larger sets take Welzl's
algorithm with move-to-front.  The LP optimum comes from Seidel's
randomized incremental algorithm in expected O(m) for m rows, after an
O(m) test of the two normals nearest the descent direction decides
whether the objective is bounded.  Both take their input in a fixed
seeded order, so every run does the same work, and both answers are
unique, so the order never shows in them.

Both run on exact integer arithmetic.  Each input is scaled once to
integers: a point becomes an integer vector P over its own positive
denominator q, a halfplane row is multiplied by the lcm of its own
denominators.  Answers stay in homogeneous form (a ball is a centre C/D
with squared radius R/D**2, an LP optimum is (X/W, Y/W)), so a
violation test is one cross-multiplied integer comparison and no gcd is
taken on the hot path.  Boundary cases are the whole point of these
instances (points on the defining circle, optima on a constraint line),
so there are no tolerances anywhere: a point violates a ball only when
its squared distance strictly exceeds the squared radius, and a
halfplane is violated only when the optimum lies strictly outside it.
`Scaled` and `Ball` read as the tuples of Fractions they stand for.

Each `violates` query counts as one logical primitive call regardless of
the internal work; instances may cache their per-subset solution, which
never changes the logical call count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .core import ConstraintSet, ViolationOracle
# re-exported: materialize a live oracle into an explicit table
from .explicit import tabulate_oracle as tabulate

MAX_BALL_DIM = 10
# seeds the input order of smallest_enclosing_ball and _lex_optimum per size
_SHUFFLE_SEED = 0x5EB

Ints = Tuple[int, ...]


class UnboundedProblem(Exception):
    """The lexicographic objective is unbounded over some subset."""


class InfeasibleRegion(Exception):
    """A constraint subset has empty intersection with the implicit
    region; well-formed instances never reach this."""


class _Homogeneous:
    """Exact values held in integer form.  Unpacks, indexes, compares and
    hashes as the tuple of Fractions that `fractions()` returns."""

    __slots__ = ()

    def __iter__(self):
        return iter(self.fractions())

    def __getitem__(self, i):
        return self.fractions()[i]

    def __eq__(self, other) -> bool:
        return self.fractions() == other

    def __hash__(self) -> int:
        return hash(self.fractions())

    def __repr__(self) -> str:
        return repr(self.fractions())


class Scaled(_Homogeneous):
    """The rationals N[i] / q, with integers N and q > 0: a point, a
    halfplane row (whose q the oracles ignore) or an LP vertex."""

    __slots__ = ("N", "q")

    def __init__(self, N: Ints, q: int):
        self.N, self.q = N, q

    @classmethod
    def of(cls, values: Sequence) -> "Scaled":
        """The least common denominator q of `values` and N = q * values."""
        fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
        q = lcm(*(x.denominator for x in fr))
        return cls(tuple(x.numerator * (q // x.denominator) for x in fr), q)

    def fractions(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.q) for x in self.N)


class Ball(_Homogeneous):
    """Centre C/D and squared radius R/D**2, with D > 0; reads as
    (centre, r2)."""

    __slots__ = ("C", "D", "R")

    def __init__(self, C: Ints, D: int, R: int):
        self.C, self.D, self.R = C, D, R

    def fractions(self) -> Tuple[Tuple[Fraction, ...], Fraction]:
        D = self.D
        return tuple(Fraction(c, D) for c in self.C), Fraction(self.R, D * D)

    def excludes(self, p: Scaled) -> bool:
        """p lies strictly outside: |D*P - q*C|**2 > R*q**2."""
        D, q = self.D, p.q
        s = 0
        for x, c in zip(p.N, self.C):
            t = D * x - q * c
            s += t * t
        return s > self.R * q * q


@dataclass
class PointSet:
    """Finite point set in d dimensions with exact coordinates."""

    points: List[Scaled]
    d: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "PointSet":
        if not rows:
            raise ValueError("need at least one point")
        pts = [Scaled.of(row) for row in rows]
        d = len(pts[0].N)
        if d == 0:
            raise ValueError("points need at least one coordinate")
        if any(len(p.N) != d for p in pts):
            raise ValueError("all points must have the same dimension")
        return cls(points=pts, d=d)


def _solve_integer(rows: List[List[int]]) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of a k x (k+1)
    integer system: (N, det) with solution N[i] / det.  Every division
    is exact.  Raises ArithmeticError when the system is singular."""
    k = len(rows)
    prev = 1
    for col in range(k):
        pivot = next((i for i in range(col, k) if rows[i][col]), None)
        if pivot is None:
            raise ArithmeticError("boundary points admit no common sphere")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        pv = top[col]
        for i in range(k):
            if i != col:
                f = rows[i][col]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = pv
    return [row[k] for row in rows], prev


def _pair_ball(p0: Scaled, p1: Scaled) -> Ball:
    """The ball with diameter p0 p1: centre (q1 P0 + q0 P1) / (2 q0 q1)
    and radius |q1 P0 - q0 P1| / (2 q0 q1).  Equal points give the
    point itself."""
    P0, q0, P1, q1 = p0.N, p0.q, p1.N, p1.q
    return Ball(tuple(q1 * a + q0 * b for a, b in zip(P0, P1)), 2 * q0 * q1,
                sum((q1 * a - q0 * b) ** 2 for a, b in zip(P0, P1)))


def _circumball(boundary: Sequence[Scaled]) -> Ball:
    """Smallest ball with all boundary points P/q on its sphere.

    One point is its own ball, and two are the diameter of theirs.
    Beyond that the centre is p0 + sum mu_j u_j with u_j = q0 P_j - q_j P0,
    the direction of p_j - p0 = u_j / (q0 q_j); being equidistant from
    p0 and p_j reads 2 q0 q_j u_j . x = |u_j|**2.  The boundary must be
    affinely independent, as Welzl's recursion keeps it.
    """
    P0, q0 = boundary[0].N, boundary[0].q
    if len(boundary) == 1:
        return Ball(P0, q0, 0)
    if len(boundary) == 2:
        ball = _pair_ball(*boundary)
        if not ball.R:
            raise ArithmeticError("boundary points admit no common sphere")
        return ball
    us = [(tuple(q0 * a - p.q * b for a, b in zip(p.N, P0)), q0 * p.q) for p in boundary[1:]]
    mat = [
        [2 * s * sum(a * b for a, b in zip(u, v)) for v, _ in us] + [sum(a * a for a in u)]
        for u, s in us
    ]
    N, det = _solve_integer(mat)
    U = [sum(n * u[t] for n, (u, _) in zip(N, us)) for t in range(len(P0))]
    if det < 0:
        det, U = -det, [-x for x in U]
    C = [det * a + q0 * x for a, x in zip(P0, U)]
    D = q0 * det
    R = q0 * q0 * sum(x * x for x in U)
    return Ball(tuple(C), D, R)


@lru_cache(maxsize=256)
def _shuffle_order(k: int) -> Tuple[int, ...]:
    """The order in which a seeded shuffle leaves k positions, drawn once
    per k: the seed depends on k alone, and so do the swaps."""
    order = list(range(k))
    random.Random(_SHUFFLE_SEED ^ k).shuffle(order)
    return tuple(order)


def smallest_enclosing_ball(points: Sequence[Sequence]) -> Ball:
    """Exact smallest enclosing ball: in closed form for up to three
    points, via Welzl's algorithm with move-to-front (Gaertner, ESA 1999)
    beyond.

    Points are `Scaled` or sequences of rationals.  One point is its own
    ball, and two points span the ball they are a diameter of.  A pair
    ball that holds the third point of a triple encloses the triple at
    the least radius any ball around the pair can have, so it is the
    answer; when no pair ball holds the third point, the triangle is
    acute, so its points are affinely independent and their circumball
    is the answer.

    Larger sets start in a fixed shuffled order for each number of
    points; a point found outside the ball joins the boundary and then
    moves to the front of this call's own list, so later scans meet the
    points that define the ball first.  The ball itself is unique, so
    the answer does not depend on the order.  A level recurses only
    when a point joins the boundary: depth <= d + 2.
    """
    pts = [p if isinstance(p, Scaled) else Scaled.of(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return _circumball(pts)
    if len(pts) == 2:
        return _pair_ball(*pts)
    if len(pts) == 3:
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            ball = _pair_ball(pts[i], pts[j])
            if not ball.excludes(pts[k]):
                return ball
        return _circumball(pts)
    d = len(pts[0].N)
    pts = [pts[i] for i in _shuffle_order(len(pts))]

    def md(i: int, boundary: List[Scaled]) -> Optional[Ball]:
        ball = _circumball(boundary) if boundary else None
        if len(boundary) == d + 1:
            return ball
        for j in range(i):
            p = pts[j]
            if ball is None or ball.excludes(p):
                ball = md(j, boundary + [p])
                # pts[:j] only permuted inside md, so p is still at j
                pts.insert(0, pts.pop(j))
        return ball

    ball = md(len(pts), [])
    assert ball is not None
    return ball


class MiniballOracle(ViolationOracle):
    """h violates G iff h lies strictly outside the smallest ball of G.

    The empty set has every point as a violator.  delta is d + 1, the
    largest support a smallest enclosing ball can need.
    """

    def __init__(self, ps: PointSet, names: Optional[Sequence[str]] = None):
        if ps.d > MAX_BALL_DIM:
            raise ValueError(f"exact arithmetic supports d <= {MAX_BALL_DIM}")
        super().__init__(len(ps.points), ps.d + 1, names=names)
        self.point_set = ps
        self._ball_cache: Dict[int, Ball] = {}

    def ball_of(self, G: ConstraintSet) -> Ball:
        if not G:
            raise ValueError("the empty set has no enclosing ball")
        cached = self._ball_cache.get(G.mask)
        if cached is None:
            cached = smallest_enclosing_ball(
                [self.point_set.points[i] for i in G]
            )
            self._ball_cache[G.mask] = cached
        return cached

    def _violates(self, G: ConstraintSet, h: int) -> bool:
        if not G:
            return True
        return self.ball_of(G).excludes(self.point_set.points[h])


POSITIVE_ORTHANT: Tuple[Scaled, ...] = (Scaled((-1, 0, 0), 1), Scaled((0, -1, 0), 1))


@dataclass
class HalfplaneLp:
    """Planar LP: minimize y, then x, over halfplanes a*x + b*y <= c.

    The implicit constraints (positive orthant by default) sit outside
    the ground set and must leave the objective bounded and the region
    nonempty on their own.  A halfplane's integer row `N` is the same
    halfplane scaled by the lcm of its denominators.
    """

    halfplanes: List[Scaled]
    implicit: Tuple[Scaled, ...] = POSITIVE_ORTHANT

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence], implicit: Sequence[Sequence] = POSITIVE_ORTHANT
    ) -> "HalfplaneLp":
        hp = [Scaled.of(row) for row in rows]
        imp = tuple(Scaled.of(row) for row in implicit)
        if any(len(h.N) != 3 for h in hp) or any(len(h.N) != 3 for h in imp):
            raise ValueError("halfplanes are (a, b, c) triples")
        if any(h.N[0] == 0 and h.N[1] == 0 for h in hp + list(imp)):
            raise ValueError("halfplane needs a nonzero normal")
        return cls(halfplanes=hp, implicit=imp)

    @cached_property
    def implicit_rows(self) -> Tuple[Ints, ...]:
        """The implicit integer rows, solved alone once per LP: raises
        UnboundedProblem or InfeasibleRegion when they leave the
        objective unbounded or the region empty."""
        rows = tuple(h.N for h in self.implicit)
        _lex_optimum(rows)
        return rows


def _lex_optimum(constraints: Sequence[Ints]) -> Scaled:
    """Lexicographic (y, then x) minimum over an intersection of integer
    halfplanes a*x + b*y <= c, by Seidel's randomized incremental LP
    (DCG 1991): expected O(m) for m rows.

    Two rows bound the objective on their own or none do: the normals
    nearest to the descent direction on either side of it (de Berg et
    al., ch. 4).  When they do not, UnboundedProblem is raised, before
    feasibility is looked at.  Their crossing starts the walk, and the
    other rows follow in a fixed shuffled order.  A vertex (X/W, Y/W),
    W > 0, violates a row iff a*X + b*Y > c*W; the new optimum then
    lies on that row's line, where `_lex_on_line` finds it against the
    rows taken so far, or raises InfeasibleRegion.
    """
    # The descent direction is (-eps, -1).  A normal (a, b) lies left of
    # it iff a > 0 or (a == 0 and b < 0); the nearest one on each side is
    # the one its rivals lie beyond, by the sign of their cross product.
    # The objective is bounded iff the descent direction lies in the cone
    # of the normals, that is strictly inside the cone of these two.
    left = right = None
    la = lb = ra = rb = 0
    for k, (a, b, _) in enumerate(constraints):
        if a > 0 or (a == 0 and b < 0):
            if left is None or la * b < lb * a:
                left, la, lb = k, a, b
        elif right is None or ra * b > rb * a:
            right, ra, rb = k, a, b
    if left is None or right is None or ra * lb - rb * la <= 0:
        raise UnboundedProblem("objective decreases along a feasible ray")
    taken = [constraints[left], constraints[right]]
    X, Y, W = _crossing(*taken)
    for k in _shuffle_order(len(constraints)):
        if k == left or k == right:
            continue
        row = constraints[k]
        a, b, c = row
        if a * X + b * Y > c * W:
            X, Y, W = _crossing(row, _lex_on_line(row, taken))
        taken.append(row)
    return Scaled((X, Y), W)


def _crossing(r1: Ints, r2: Ints) -> Tuple[int, int, int]:
    """The crossing (X/W, Y/W), W > 0, of two nonparallel row lines."""
    a1, b1, c1 = r1
    a2, b2, c2 = r2
    W = a1 * b2 - a2 * b1
    X = c1 * b2 - c2 * b1
    Y = a1 * c2 - a2 * c1
    return (X, Y, W) if W > 0 else (-X, -Y, -W)


def _lex_on_line(row: Ints, taken: Sequence[Ints]) -> Ints:
    """The row of `taken` whose line bounds the lexicographic minimum of
    `taken` on the line of `row`.

    The line is (px, py)/q + s*(dx, dy) with q = a*a + b*b > 0 and
    (px, py) = c*(a, b), and (dx, dy) is the line direction along which
    (y, then x) decreases, so the minimum has the largest feasible s.  A
    taken row bounds s by e * s <= num / q: an upper bound when e > 0
    and a lower one when e < 0.  q is common to all bounds, so they
    compare as the cross-multiplied fractions num / e, signs flipped to
    make every denominator positive.  A parallel row (e == 0) holds on
    the whole line or on none of it.  `taken` bounds the objective, so
    an upper bound exists.
    """
    a, b, c = row
    if a > 0 or (a == 0 and b < 0):
        dx, dy = b, -a
    else:
        dx, dy = -b, a
    q = a * a + b * b
    px, py = c * a, c * b
    hi_row, hi_num, hi_den = None, 0, 1
    lo_num, lo_den = None, 1
    for r in taken:
        a2, b2, c2 = r
        e = a2 * dx + b2 * dy
        num = c2 * q - a2 * px - b2 * py
        if e > 0:
            if hi_row is None or num * hi_den < hi_num * e:
                hi_row, hi_num, hi_den = r, num, e
        elif e < 0:
            num, e = -num, -e
            if lo_num is None or num * lo_den > lo_num * e:
                lo_num, lo_den = num, e
        elif num < 0:
            raise InfeasibleRegion("no feasible vertex: the region is empty")
    if lo_num is not None and lo_num * hi_den > hi_num * lo_den:
        raise InfeasibleRegion("no feasible vertex: the region is empty")
    return hi_row


class Lp2dOracle(ViolationOracle):
    """h violates G iff the optimum of G lies strictly outside h."""

    def __init__(self, lp: HalfplaneLp, names: Optional[Sequence[str]] = None):
        super().__init__(len(lp.halfplanes), 2, names=names)
        self.lp = lp
        # fails fast when the implicit region alone is unbounded or empty
        self._implicit = lp.implicit_rows
        self._opt_cache: Dict[int, Scaled] = {}

    def optimum_of(self, G: ConstraintSet) -> Scaled:
        cached = self._opt_cache.get(G.mask)
        if cached is None:
            halfplanes = self.lp.halfplanes
            cached = _lex_optimum([*self._implicit, *(halfplanes[i].N for i in G)])
            self._opt_cache[G.mask] = cached
        return cached

    def _violates(self, G: ConstraintSet, h: int) -> bool:
        opt = self.optimum_of(G)
        a, b, c = self.lp.halfplanes[h].N
        X, Y = opt.N
        return a * X + b * Y > c * opt.q
