"""Basis-finding algorithms driven purely by the violation primitive.

`trivial_basis` scans all candidate sets of size up to delta.  The base
case the stages bottom out in returns the same basis with far fewer
queries: it chases one basis by pivoting on violators, tests its
members, or all of G's after a repeated basis, for being extreme in G,
and scans only supersets of the extreme ones.  `basis1` and `basis2`
are Clarkson's two randomized reduction stages; both return a basis of
G for any oracle satisfying the violator-space axioms, cyclic or not.
`solve` runs basis1 on the whole ground set, which is the combination
with expected O(delta*n + delta^O(delta)) primitive calls.

Both randomized loops carry hard safety bounds that hold for every true
violator space: basis1 augments its working set at most delta times and
basis2 performs fewer than 3*delta*ln|G| reweighting iterations.
Exceeding either (or the generous outer loop guard) signals an oracle
that is not a violator space and raises IterationGuardExceeded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, count
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import ConstraintSet, SolveStats, ViolationOracle


class NoBasisFound(Exception):
    """No candidate of size <= delta passed the basis test: the delta
    hint is too small or the oracle is not a violator space."""


class IterationGuardExceeded(Exception):
    """A randomized loop exceeded a bound that holds for every violator
    space; the oracle almost certainly violates the axioms."""


def _mix64(*parts: int) -> int:
    """splitmix64-style mixing, used to derive child seeds."""
    z = 0
    for p in parts:
        z = (z + (p & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 31
    return z


class Rng:
    """Deterministic 64-bit-seeded generator (Mersenne Twister core).

    All sampling routines are implemented on top of getrandbits with a
    fixed rejection scheme, so identical seeds give identical sample
    sequences on any interpreter with the standard MT19937 core.
    """

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self._gen = random.Random(self.seed)

    def spawn(self, *parts: int) -> "Rng":
        """Child generator with a seed derived from this seed and parts."""
        return Rng(_mix64(self.seed, *parts))

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        r = self._gen.getrandbits(bits)
        while r >= bound:
            r = self._gen.getrandbits(bits)
        return r

    def subset(self, members: Sequence[int], r: int) -> List[int]:
        """Uniform r-element subset via partial Fisher-Yates."""
        if not 0 <= r <= len(members):
            raise ValueError(f"cannot draw {r} of {len(members)} elements")
        pool = list(members)
        for i in range(r):
            j = i + self.randbelow(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:r]

    def weighted_support(
        self, members: Sequence[int], weights: Sequence[int], r: int
    ) -> Set[int]:
        """Support of a uniform r-sub-multiset of the weighted members.

        Draws r copies without replacement from the multiset in which
        members[i] appears weights[i] times, then collapses to the
        distinct elements drawn.  Copy x in 0..total-1 belongs to the
        first member whose running weight sum exceeds x; a Fenwick tree
        over a copy of the weights (Fenwick, 1994) finds it as the
        longest prefix summing to at most x, and takes the copy away, in
        O(log g) per draw and O(g) to build.  The caller's weights stay
        untouched.
        """
        # tree[i] will sum the weights of positions i - (i & -i) .. i - 1
        tree = [0, *weights]
        total = sum(tree)
        if r > total:
            raise ValueError(f"cannot draw {r} of {total} copies")
        g = len(tree) - 1
        for i in range(1, g + 1):
            up = i + (i & -i)
            if up <= g:
                tree[up] += tree[i]
        top = (1 << g.bit_length()) >> 1
        support: Set[int] = set()
        for _ in range(r):
            x = self.randbelow(total)
            pos, step = 0, top
            while step:
                nxt = pos + step
                if nxt <= g and tree[nxt] <= x:
                    pos = nxt
                    x -= tree[nxt]
                step >>= 1
            support.add(members[pos])
            i = pos + 1
            while i <= g:
                tree[i] -= 1
                i += i & -i
            total -= 1
        return support


def trivial_basis(
    oracle: ViolationOracle, G: ConstraintSet, required: int = 0
) -> ConstraintSet:
    """Scan candidate sets of size <= delta for a basis of G.

    B qualifies iff every h in B violates B minus h and no h in G
    outside B violates B.  Candidates run by ascending cardinality and
    lexicographically within one cardinality; the first hit is returned,
    after at most n * sum_{i<=delta} C(n, i) primitive calls.  A
    `required` mask inside G restricts the scan to its supersets, which
    keep the same order among themselves.
    """
    n = oracle.n
    violates = oracle.violates
    members = [(h, 1 << h) for h in G]
    fixed = tuple((h, bit) for h, bit in members if required & bit)
    free = [(h, bit) for h, bit in members if not required & bit]
    limit = min(oracle.delta, len(members))
    for size in range(len(fixed), limit + 1):
        for combo in combinations(free, size - len(fixed)):
            combo = fixed + combo
            mask = 0
            for _, bit in combo:
                mask |= bit
            ok = True
            for h, bit in combo:
                if not violates(ConstraintSet(mask ^ bit, n), h):
                    ok = False
                    break
            if not ok:
                continue
            B = ConstraintSet(mask, n)
            for h, bit in members:
                if not mask & bit and violates(B, h):
                    ok = False
                    break
            if ok:
                return B
    raise NoBasisFound(
        f"no subset of size <= {oracle.delta} is a basis of the given set"
    )


def _chase(oracle: ViolationOracle, G: ConstraintSet) -> Optional[ConstraintSet]:
    """A basis of G reached by pivoting, or None once a basis repeats.

    Walks G's members cyclically in ascending order from B = empty; a
    member h that violates B moves B to the basis of B + h, found among
    the sets that hold h, so every query is on a set of at most delta
    members.  The walk stops after one full round without a violator,
    when no member of G violates B.  On LP-type problems every pivot
    raises the value and no basis repeats; on cyclic spaces one can, and
    the chase gives up.
    """
    n = oracle.n
    members = list(G)
    g = len(members)
    B = ConstraintSet.empty(n)
    seen = {0}
    quiet = i = 0
    while quiet < g:
        h = members[i]
        i = (i + 1) % g
        if (B.mask >> h) & 1 or not oracle.violates(B, h):
            quiet += 1
            continue
        # h is extreme in B + h, so every basis of B + h holds it
        B = trivial_basis(oracle, ConstraintSet(B.mask | 1 << h, n), 1 << h)
        if B.mask in seen:
            return None
        seen.add(B.mask)
        quiet = 1
    return B


def _chase_basis(oracle: ViolationOracle, G: ConstraintSet) -> ConstraintSet:
    """The basis `trivial_basis` returns, found by a chase, extreme tests
    on large sets and a scan of the extreme members' supersets.

    h is extreme in G when h violates G - h; consistency and locality
    put it in every basis of G, so the scan over supersets of E, the
    extreme members, meets the same first basis as the full scan.  A
    chase that ends on a basis B leaves no extreme member outside B, so
    only B's are tested, and if E = B, B is the only basis; one that
    repeats a basis tests all of G's.  A NoBasisFound falls back to the
    full scan, which keeps the errors and guard trips of a broken oracle.
    """
    n = oracle.n
    try:
        B = _chase(oracle, G)
        extreme = 0
        for h in G if B is None else B:
            if oracle.violates(ConstraintSet(G.mask ^ 1 << h, n), h):
                extreme |= 1 << h
        if B is not None and extreme == B.mask:
            return B
        return trivial_basis(oracle, G, extreme)
    except NoBasisFound:
        return trivial_basis(oracle, G)


def _violators(
    oracle: ViolationOracle, C: ConstraintSet, members: Sequence[int]
) -> List[int]:
    """Positions in members of the members outside C that violate C."""
    mask = C.mask
    return [
        i for i, h in enumerate(members)
        if not (mask >> h) & 1 and oracle.violates(C, h)
    ]


def _iterations(stage: str, delta: int, g: int, stats: SolveStats) -> Iterator[None]:
    """One step per loop iteration of a stage, counted in stats; past
    the generous 100*delta*(1 + log2 g) the oracle is taken to break the
    axioms."""
    limit = 100.0 * delta * (1.0 + math.log2(max(g, 2)))
    for iterations in count(1):
        stats.loop_iterations += 1
        if iterations > limit:
            raise IterationGuardExceeded(
                f"{stage} exceeded {limit:.0f} iterations on |G|={g}"
            )
        yield


def _trivial(
    oracle: ViolationOracle, G: ConstraintSet, rng: Rng, stats: SolveStats
) -> ConstraintSet:
    stats.trivial_calls += 1
    return _chase_basis(oracle, G)


def _basis2(
    oracle: ViolationOracle, G: ConstraintSet, rng: Rng, stats: SolveStats
) -> ConstraintSet:
    stats.basis2_calls += 1
    delta = oracle.delta
    r = 6 * delta * delta
    members = sorted(G)
    g = len(members)
    if g <= r:
        return _trivial(oracle, G, rng, stats)

    weights = [1] * g
    successful = 0
    max_successful = 3.0 * delta * math.log(g)
    for _ in _iterations("basis2", delta, g, stats):
        R = ConstraintSet.of(rng.weighted_support(members, weights, r), oracle.n)
        C = _trivial(oracle, R, rng, stats)
        viol = _violators(oracle, C, members)
        if not viol:
            return C
        if 3 * delta * sum(weights[i] for i in viol) <= sum(weights):
            for i in viol:
                weights[i] *= 2
            successful += 1
            stats.reweight_iterations += 1
            if successful >= max_successful:
                raise IterationGuardExceeded(
                    f"basis2 performed {successful} reweighting iterations,"
                    f" which contradicts the < {max_successful:.2f} bound"
                )


def _basis1(
    oracle: ViolationOracle, G: ConstraintSet, rng: Rng, stats: SolveStats
) -> ConstraintSet:
    delta = oracle.delta
    members = sorted(G)
    g = len(members)
    if g <= 9 * delta * delta:
        return _basis2(oracle, G, rng, stats)

    r = math.isqrt(delta * delta * g)
    W = ConstraintSet.empty(oracle.n)
    augmentations = 0
    for _ in _iterations("basis1", delta, g, stats):
        R = ConstraintSet.of(rng.subset(members, r), oracle.n)
        C = _basis2(oracle, W | R, rng, stats)
        viol = _violators(oracle, C, members)
        if not viol:
            return C
        if len(viol) * len(viol) <= 4 * g:
            W = W | ConstraintSet.of((members[i] for i in viol), oracle.n)
            augmentations += 1
            stats.w_augmentations += 1
            if augmentations > delta:
                raise IterationGuardExceeded(
                    f"basis1 augmented its working set {augmentations} times,"
                    f" which contradicts the <= {delta} bound"
                )


def _with_stats(
    stage: Callable[..., ConstraintSet],
    oracle: ViolationOracle,
    G: ConstraintSet,
    rng: Rng,
) -> Tuple[ConstraintSet, SolveStats]:
    """Run one stage on fresh statistics charged with its primitive calls."""
    stats = SolveStats(rng_seed=rng.seed)
    before = oracle.primitive_calls
    C = stage(oracle, G, rng, stats)
    stats.primitive_calls = oracle.primitive_calls - before
    return C, stats


def trivial(
    oracle: ViolationOracle, G: ConstraintSet, rng: Rng
) -> Tuple[ConstraintSet, SolveStats]:
    """The base case alone: a basis of G plus run statistics."""
    return _with_stats(_trivial, oracle, G, rng)


def basis2(
    oracle: ViolationOracle, G: ConstraintSet, rng: Rng
) -> Tuple[ConstraintSet, SolveStats]:
    """Clarkson's reweighting stage: a basis of G plus run statistics."""
    return _with_stats(_basis2, oracle, G, rng)


def basis1(
    oracle: ViolationOracle, G: ConstraintSet, rng: Rng
) -> Tuple[ConstraintSet, SolveStats]:
    """Clarkson's sampling stage: a basis of G plus run statistics."""
    return _with_stats(_basis1, oracle, G, rng)


def solve(oracle: ViolationOracle, rng: Rng) -> Tuple[ConstraintSet, SolveStats]:
    """Find a basis of the full ground set."""
    return basis1(oracle, oracle.ground_set(), rng)


@dataclass
class SamplingReport:
    """Monte-Carlo estimate of the expected violator count of W + R."""

    mean: float
    bound: float
    stddev: float
    trials: int
    r: int
    seed: int
    passed: bool


def sampling_check(
    oracle: ViolationOracle,
    W: ConstraintSet,
    r: int,
    trials: int,
    rng: Rng,
) -> SamplingReport:
    """Compare the mean violator count of W union a random r-subset
    against the bound delta * (n - r) / (r + 1).

    Passes when the empirical mean stays below the bound plus three
    standard errors.
    """
    n = oracle.n
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    members = list(range(n))
    counts = [
        len(_violators(oracle, W | ConstraintSet.of(rng.subset(members, r), n), members))
        for _ in range(trials)
    ]
    mean = sum(counts) / trials
    # added left to right: from Python 3.12 on, sum() compensates float
    # rounding, and the printed stddev would depend on the version
    var = 0.0
    for c in counts:
        var += (c - mean) ** 2
    if trials > 1:
        var /= trials - 1
    stddev = math.sqrt(var)
    bound = oracle.delta * (n - r) / (r + 1)
    passed = mean <= bound + 3.0 * stddev / math.sqrt(trials)
    return SamplingReport(
        mean=mean,
        bound=bound,
        stddev=stddev,
        trials=trials,
        r=r,
        seed=rng.seed,
        passed=passed,
    )
