"""Output checks computed apart from the library under test.

Every check raises CheckError with a reason when an output is wrong.
Nothing here imports violator_spaces: the geometry uses exact rational
arithmetic written for the benchmark, the table checks walk the raw
violator table, so a fault in the library cannot vouch for itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

Point = Tuple[Fraction, Fraction]
Halfplane = Tuple[Fraction, Fraction, Fraction]


class CheckError(Exception):
    """An output of the library failed an independent check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# -- grid USOs -----------------------------------------------------------


def uso_min_vertex(rankings: Sequence[Sequence[int]]) -> int:
    """Mask of the blockwise minimum-rank vertex of a coordinate order.

    Every edge points towards the lower rank, so this vertex is the
    global sink and the only basis of the ground set.
    """
    mask = 0
    for ordering in rankings:
        mask |= 1 << ordering[0]
    return mask


def has_directed_cycle(blocks: Sequence[Sequence[int]], outmap: Dict[tuple, int]) -> bool:
    """Cycle search on the vertex digraph of a grid orientation."""
    block_of = {h: i for i, b in enumerate(blocks) for h in b}

    def succ(J):
        s = outmap[J]
        while s:
            low = s & -s
            j = low.bit_length() - 1
            i = block_of[j]
            yield J[:i] + (j,) + J[i + 1:]
            s ^= low

    state: Dict[tuple, int] = {}
    for start in outmap:
        if start in state:
            continue
        state[start] = 1
        stack = [(start, succ(start))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return True
            elif nxt not in state:
                state[nxt] = 1
                stack.append((nxt, succ(nxt)))
    return False


# -- smallest enclosing ball (2D) ------------------------------------------


def _dist2(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def circumball(pts: Sequence[Point]) -> Tuple[Point, Fraction]:
    """Ball with 1, 2 or 3 points on its circle, centre in their affine hull."""
    if len(pts) == 1:
        return pts[0], Fraction(0)
    if len(pts) == 2:
        p, q = pts
        c = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        return c, _dist2(c, p)
    require(len(pts) == 3, f"a 2D ball has at most 3 support points, got {len(pts)}")
    a, b, d = pts
    # 2 (b - a) . c = |b|^2 - |a|^2 and the same for d
    m11, m12 = 2 * (b[0] - a[0]), 2 * (b[1] - a[1])
    m21, m22 = 2 * (d[0] - a[0]), 2 * (d[1] - a[1])
    r1 = b[0] ** 2 + b[1] ** 2 - a[0] ** 2 - a[1] ** 2
    r2 = d[0] ** 2 + d[1] ** 2 - a[0] ** 2 - a[1] ** 2
    det = m11 * m22 - m12 * m21
    require(det != 0, "three collinear support points have no circumcircle")
    c = ((r1 * m22 - m12 * r2) / det, (m11 * r2 - r1 * m21) / det)
    return c, _dist2(c, a)


def strictly_inside_hull(c: Point, pts: Sequence[Point]) -> bool:
    """True iff c is a convex combination of pts with all weights > 0
    (pts affinely independent, at most 3 of them)."""
    if len(pts) == 1:
        return c == pts[0]
    if len(pts) == 2:
        p, q = pts
        dx, dy = p[0] - q[0], p[1] - q[1]
        norm = dx * dx + dy * dy
        if norm == 0:
            return False
        lam = ((c[0] - q[0]) * dx + (c[1] - q[1]) * dy) / norm
        on_line = (q[0] + lam * dx, q[1] + lam * dy) == tuple(c)
        return on_line and 0 < lam < 1
    a, b, d = pts
    det = (b[0] - a[0]) * (d[1] - a[1]) - (d[0] - a[0]) * (b[1] - a[1])
    if det == 0:
        return False
    l1 = ((c[0] - a[0]) * (d[1] - a[1]) - (d[0] - a[0]) * (c[1] - a[1])) / det
    l2 = ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])) / det
    return l1 > 0 and l2 > 0 and 1 - l1 - l2 > 0


def check_ball(
    points: Sequence[Point],
    members: Sequence[int],
    center: Point,
    r2: Fraction,
    support: Optional[Sequence[int]] = None,
) -> None:
    """Optimality certificate of the smallest ball enclosing `members`.

    The ball encloses every member, and its centre is a strictly
    positive convex combination of members on its circle: `support`
    when given, otherwise some set of at most three tight members.
    """
    tight = []
    for i in members:
        d = _dist2(points[i], center)
        require(d <= r2, f"point {i} lies outside the ball")
        if d == r2:
            tight.append(i)
    if support is not None:
        require(set(support) <= set(tight), "a support point is off the circle")
        candidates = [tuple(support)]
    else:
        candidates = [T for k in (1, 2, 3) for T in combinations(tight, k)]
    require(
        any(strictly_inside_hull(center, [points[i] for i in T]) for T in candidates),
        "the centre is not a positive combination of support points",
    )


def check_miniball_basis(points: Sequence[Point], basis: Sequence[int]) -> None:
    """The basis' own circumball encloses all points, with the centre
    strictly inside the convex hull of the basis."""
    require(1 <= len(basis) <= 3, f"basis of size {len(basis)} in 2D")
    center, r2 = circumball([points[i] for i in basis])
    check_ball(points, range(len(points)), center, r2, support=basis)


def violators_of_ball(points: Sequence[Point], members: int, center: Point, r2: Fraction) -> int:
    """Number of points outside `members` (a mask) strictly outside the ball."""
    return sum(
        1
        for i, p in enumerate(points)
        if not (members >> i) & 1 and _dist2(p, center) > r2
    )


# -- planar LP (minimize y, then x) ----------------------------------------


def _lex_negative(dx: Fraction, dy: Fraction) -> bool:
    return dy < 0 or (dy == 0 and dx < 0)


def lex_optimum(constraints: Sequence[Halfplane]) -> Point:
    """Lexicographic (y, then x) minimum by vertex enumeration.

    Fails the check when the objective is unbounded (some ray of the
    recession cone decreases it) or no vertex is feasible.
    """
    rays = [(Fraction(0), Fraction(-1))]
    for a, b, _ in constraints:
        rays += [(b, -a), (-b, a)]
    for dx, dy in rays:
        if _lex_negative(dx, dy) and all(a * dx + b * dy <= 0 for a, b, _ in constraints):
            raise CheckError("the lexicographic objective is unbounded")
    best = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(constraints, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if (best is None or (y, x) < (best[1], best[0])) and all(
            a * x + b * y <= c for a, b, c in constraints
        ):
            best = (x, y)
    require(best is not None, "no feasible vertex")
    return best


def violated(h: Halfplane, p: Point) -> bool:
    return h[0] * p[0] + h[1] * p[1] > h[2]


def check_lp_basis(
    halfplanes: Sequence[Halfplane], implicit: Sequence[Halfplane], basis: Sequence[int]
) -> Point:
    """The optimum of basis plus implicit constraints, found by vertex
    enumeration, is feasible for every halfplane (so it is the optimum of
    the whole LP), and dropping any basis member moves it."""
    opt = lex_optimum(list(implicit) + [halfplanes[i] for i in basis])
    for i, h in enumerate(halfplanes):
        require(not violated(h, opt), f"halfplane {i} is violated by the basis optimum")
    for i in basis:
        rest = list(implicit) + [halfplanes[j] for j in basis if j != i]
        require(violated(halfplanes[i], lex_optimum(rest)), f"basis member {i} is not extreme")
    return opt


def check_lp_optimum(
    halfplanes: Sequence[Halfplane], implicit: Sequence[Halfplane], members: int, opt: Point
) -> None:
    """Certificate for the optimum of the halfplanes in `members` (a mask):
    it is feasible, and it is also the optimum of the constraints tight at
    it, whose region contains the members' region."""
    active = list(implicit) + [h for i, h in enumerate(halfplanes) if (members >> i) & 1]
    for h in active:
        require(not violated(h, opt), "the optimum violates one of its constraints")
    tight = [h for h in active if h[0] * opt[0] + h[1] * opt[1] == h[2]]
    require(lex_optimum(tight) == tuple(opt), "the optimum is not optimal for its tight constraints")


# -- explicit tables ---------------------------------------------------------


def basis_count(table: Sequence[int], n: int) -> int:
    """Bases by brute force: B is a basis iff every h in B violates B - h.

    For a violator space this equals the definition (no proper subset F
    of B has B disjoint from V(F)): such an F lies in some B - h with
    h outside F, and locality gives V(B - h) = V(F).
    """
    count = 0
    for b in range(1 << n):
        m = b
        while m:
            low = m & -m
            if not table[b ^ low] & low:
                break
            m ^= low
        else:
            count += 1
    return count


def check_witness(table: Sequence[int], n: int, axiom: str, f: int, g: int) -> None:
    """Re-verify an axiom witness against the raw table."""
    if axiom == "consistency":
        require(f == g and g & table[g] != 0, "consistency witness does not hold")
        return
    require(axiom == "locality", f"unknown axiom {axiom!r}")
    require(f & ~g == 0 and f != g, "locality witness F is not a proper subset of G")
    require(g & table[f] == 0, "locality witness has G meeting V(F)")
    require(table[g] != table[f], "locality witness has V(G) == V(F)")


def concrete_violators(n_points: int, constraints: Sequence[Sequence[int]]) -> List[int]:
    """Violator table of a minimum-of-intersection problem: w(G) is the
    least point in the intersection of G (n_points when empty), and h
    violates G iff adding it raises w."""
    n = len(constraints)
    cmask = [sum(1 << p for p in c) for c in constraints]
    inter = [(1 << n_points) - 1]  # inter[g]: points in every constraint of G
    for g in range(1, 1 << n):
        low = g & -g
        inter.append(inter[g ^ low] & cmask[low.bit_length() - 1])
    w = [(x & -x).bit_length() - 1 if x else n_points for x in inter]
    full = (1 << n) - 1
    table = []
    for g, wg in enumerate(w):
        v = 0
        m = full ^ g
        while m:
            low = m & -m
            if w[g | low] > wg:
                v |= low
            m ^= low
        table.append(v)
    return table


def corrupt(table: Sequence[int], n: int, start: int) -> List[int]:
    """Copy of a valid table with one locality fault planted.

    Picks the first non-basis G at or after `start` (some h in G with
    V(G - h) == V(G)) and toggles one element outside G in V(G), so the
    pair (G - h, G) breaks locality.
    """
    size = 1 << n
    full = size - 1
    for k in range(size):
        g = (start + k) % size
        outside = full & ~g
        if not outside:
            continue
        m = g
        while m:
            low = m & -m
            if table[g ^ low] == table[g]:
                bad = list(table)
                bad[g] ^= outside & -outside
                return bad
            m ^= low
    raise ValueError("every set is a basis; nothing to corrupt")
