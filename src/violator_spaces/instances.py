"""Geometric violation oracles: smallest enclosing ball and planar LP.

Both run on exact rational arithmetic.  Boundary cases are the whole
point of these instances (points on the defining circle, optima on a
constraint line), so there are no tolerances anywhere: a point violates
a ball only when its squared distance strictly exceeds the squared
radius, and a halfplane is violated only when the optimum lies strictly
outside it.

Each `violates` query counts as one logical primitive call regardless of
the internal work; instances may cache their per-subset solution, which
never changes the logical call count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import ConstraintSet, ViolationOracle
# re-exported: materialize a live oracle into an explicit table
from .explicit import tabulate_oracle as tabulate

MAX_BALL_DIM = 10
# seeds the per-call point shuffle in smallest_enclosing_ball
_SHUFFLE_SEED = 0x5EB

Point = Tuple[Fraction, ...]
Ball = Tuple[Point, Fraction]


class UnboundedProblem(Exception):
    """The lexicographic objective is unbounded over some subset."""


class InfeasibleRegion(Exception):
    """A constraint subset has empty intersection with the implicit
    region; well-formed instances never reach this."""


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class PointSet:
    """Finite point set in d dimensions with exact coordinates."""

    points: List[Point]
    d: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "PointSet":
        if not rows:
            raise ValueError("need at least one point")
        pts = [tuple(_as_fraction(x) for x in row) for row in rows]
        d = len(pts[0])
        if d == 0:
            raise ValueError("points need at least one coordinate")
        if any(len(p) != d for p in pts):
            raise ValueError("all points must have the same dimension")
        return cls(points=pts, d=d)


def _dist2(p: Point, q: Point) -> Fraction:
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def _circumball(boundary: Sequence[Point]) -> Optional[Ball]:
    """Smallest ball with all boundary points on its sphere.

    The center is the unique point of the boundary's affine hull
    equidistant from all of them; solving the Gram system with free
    variables pinned to zero reaches it even when the points are
    affinely dependent.
    """
    if not boundary:
        return None
    p0 = boundary[0]
    vs = [tuple(a - b for a, b in zip(p, p0)) for p in boundary[1:]]
    k = len(vs)
    if k == 0:
        return p0, Fraction(0)
    # rows: 2 * v_i . x = |v_i|^2 over lambda with x = sum lambda_j v_j
    mat = [
        [2 * sum(vi[t] * vj[t] for t in range(len(p0))) for vj in vs]
        + [sum(c * c for c in vi)]
        for vi in vs
    ]
    lam = _solve_rational(mat, k)
    if lam is None:
        raise ArithmeticError("boundary points admit no common sphere")
    center = tuple(
        p0[t] + sum(lam[j] * vs[j][t] for j in range(k)) for t in range(len(p0))
    )
    return center, _dist2(center, p0)


def _solve_rational(mat: List[List[Fraction]], k: int) -> Optional[List[Fraction]]:
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


def smallest_enclosing_ball(points: Sequence[Point]) -> Ball:
    """Exact smallest enclosing ball via Welzl's algorithm.

    The point order is shuffled deterministically per call; the ball
    itself is unique, so the answer does not depend on the order.  A
    level recurses only when a point joins the boundary: depth <= d + 2.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    random.Random(_SHUFFLE_SEED ^ len(pts)).shuffle(pts)

    def md(i: int, boundary: List[Point]) -> Optional[Ball]:
        ball = _circumball(boundary)
        if len(boundary) == d + 1:
            return ball
        for j in range(i):
            p = pts[j]
            if ball is None or _dist2(p, ball[0]) > ball[1]:
                ball = md(j, boundary + [p])
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
        center, r2 = self.ball_of(G)
        return _dist2(self.point_set.points[h], center) > r2


Halfplane = Tuple[Fraction, Fraction, Fraction]

POSITIVE_ORTHANT: Tuple[Halfplane, ...] = (
    (Fraction(-1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(-1), Fraction(0)),
)


@dataclass
class HalfplaneLp:
    """Planar LP: minimize y, then x, over halfplanes a*x + b*y <= c.

    The implicit constraints (positive orthant by default) sit outside
    the ground set and must leave the objective bounded and the region
    nonempty on their own.
    """

    halfplanes: List[Halfplane]
    implicit: Tuple[Halfplane, ...] = POSITIVE_ORTHANT

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence], implicit: Sequence[Sequence] = POSITIVE_ORTHANT
    ) -> "HalfplaneLp":
        hp = [tuple(_as_fraction(x) for x in row) for row in rows]
        imp = tuple(tuple(_as_fraction(x) for x in row) for row in implicit)
        if any(len(h) != 3 for h in hp) or any(len(h) != 3 for h in imp):
            raise ValueError("halfplanes are (a, b, c) triples")
        if any(h[0] == 0 and h[1] == 0 for h in hp + list(imp)):
            raise ValueError("halfplane needs a nonzero normal")
        return cls(halfplanes=hp, implicit=imp)


def _lex_optimum(constraints: Sequence[Halfplane]) -> Tuple[Fraction, Fraction]:
    """Lexicographic (y, then x) minimum over an intersection of
    halfplanes, by exact vertex enumeration.

    Raises UnboundedProblem when the recession cone contains a
    lexicographically decreasing direction, InfeasibleRegion when the
    intersection is empty.  Otherwise the optimum is attained at the
    crossing of two constraint boundaries.
    """
    dirs = [(Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0))]
    for a, b, _ in constraints:
        dirs.append((b, -a))
        dirs.append((-b, a))
    for dx, dy in dirs:
        if dx == 0 and dy == 0:
            continue
        if dy > 0 or (dy == 0 and dx >= 0):
            continue
        if all(a * dx + b * dy <= 0 for a, b, _ in constraints):
            raise UnboundedProblem("objective decreases along a feasible ray")

    best: Optional[Tuple[Fraction, Fraction]] = None
    m = len(constraints)
    for i in range(m):
        a1, b1, c1 = constraints[i]
        for j in range(i + 1, m):
            a2, b2, c2 = constraints[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y <= c for a, b, c in constraints):
                if best is None or (y, x) < (best[1], best[0]):
                    best = (x, y)
    if best is None:
        raise InfeasibleRegion("no feasible vertex: the region is empty")
    return best


class Lp2dOracle(ViolationOracle):
    """h violates G iff the optimum of G lies strictly outside h."""

    def __init__(self, lp: HalfplaneLp, names: Optional[Sequence[str]] = None):
        super().__init__(len(lp.halfplanes), 2, names=names)
        self.lp = lp
        # fail fast when the implicit region alone is unbounded or empty
        _lex_optimum(lp.implicit)
        self._opt_cache: Dict[int, Tuple[Fraction, Fraction]] = {}

    def optimum_of(self, G: ConstraintSet) -> Tuple[Fraction, Fraction]:
        cached = self._opt_cache.get(G.mask)
        if cached is None:
            active = list(self.lp.implicit) + [self.lp.halfplanes[i] for i in G]
            cached = _lex_optimum(active)
            self._opt_cache[G.mask] = cached
        return cached

    def _violates(self, G: ConstraintSet, h: int) -> bool:
        x, y = self.optimum_of(G)
        a, b, c = self.lp.halfplanes[h]
        return a * x + b * y > c
