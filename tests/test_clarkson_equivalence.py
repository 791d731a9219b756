"""Clarkson's stages against a frozen copy of their dict-weighted form.

The reference below is the earlier implementation: weights in a
`WeightedGroundSet` dict, re-sorted into (h, w) pairs for every draw, and
the violator scan, iteration guard and base-case count written out in
each stage.  On seeded runs the current stages must return the same
basis (or raise the same message), fill every `SolveStats` field alike,
make the same violation queries in the same order and leave the `Rng`
at the same next draw.  Both sides run the same base case,
`_chase_basis`, so the comparison covers the stages alone.
"""

import math
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Set, Tuple

import pytest

import violator_spaces.algorithms as alg
from violator_spaces import (
    ConstraintSet,
    GridPartition,
    HalfplaneLp,
    IterationGuardExceeded,
    Lp2dOracle,
    MiniballOracle,
    PointSet,
    Rng,
    SolveStats,
    coordinate_order_oracle,
    cyclic_cube_uso,
    random_uso,
    tabulate_oracle,
    uso_oracle,
)

from test_algorithms import _ChasingOracle


# -- reference ---------------------------------------------------------


@dataclass
class _WeightedGroundSet:
    weights: Dict[int, int]

    def __post_init__(self) -> None:
        for h, w in self.weights.items():
            if w < 1:
                raise ValueError(f"multiplicity of {h} must be >= 1")

    @property
    def total(self) -> int:
        return sum(self.weights.values())

    def of(self, members: Sequence[int]) -> int:
        return sum(self.weights[h] for h in members)

    def double(self, members: Sequence[int]) -> None:
        for h in members:
            self.weights[h] *= 2

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self.weights.items())


def _ref_weighted_support(rng: Rng, items: Sequence[Tuple[int, int]], r: int) -> Set[int]:
    weights = [w for _, w in items]
    total = sum(weights)
    if r > total:
        raise ValueError(f"cannot draw {r} of {total} copies")
    support: Set[int] = set()
    for _ in range(r):
        x = rng.randbelow(total)
        for idx, w in enumerate(weights):
            if x < w:
                break
            x -= w
        support.add(items[idx][0])
        weights[idx] -= 1
        total -= 1
    return support


def _ref_loop_limit(delta: int, g: int) -> float:
    return 100.0 * delta * (1.0 + math.log2(max(g, 2)))


def _ref_basis2(oracle, G, rng, stats):
    stats.basis2_calls += 1
    delta = oracle.delta
    members = sorted(G)
    g = len(members)
    if g <= 6 * delta * delta:
        stats.trivial_calls += 1
        return alg._chase_basis(oracle, G)

    r = 6 * delta * delta
    mu = _WeightedGroundSet({h: 1 for h in members})
    successful = 0
    max_successful = 3.0 * delta * math.log(g)
    iterations = 0
    limit = _ref_loop_limit(delta, g)
    while True:
        iterations += 1
        stats.loop_iterations += 1
        if iterations > limit:
            raise IterationGuardExceeded(
                f"basis2 exceeded {limit:.0f} iterations on |G|={g}"
            )
        R = ConstraintSet.of(_ref_weighted_support(rng, mu.items(), r), oracle.n)
        stats.trivial_calls += 1
        C = alg._chase_basis(oracle, R)
        viol = [h for h in members if h not in C and oracle.violates(C, h)]
        if not viol:
            return C
        if 3 * delta * mu.of(viol) <= mu.total:
            mu.double(viol)
            successful += 1
            stats.reweight_iterations += 1
            if successful >= max_successful:
                raise IterationGuardExceeded(
                    f"basis2 performed {successful} reweighting iterations,"
                    f" which contradicts the < {max_successful:.2f} bound"
                )


def _ref_basis1(oracle, G, rng, stats):
    delta = oracle.delta
    members = sorted(G)
    g = len(members)
    if g <= 9 * delta * delta:
        return _ref_basis2(oracle, G, rng, stats)

    r = math.isqrt(delta * delta * g)
    W = ConstraintSet.empty(oracle.n)
    augmentations = 0
    iterations = 0
    limit = _ref_loop_limit(delta, g)
    while True:
        iterations += 1
        stats.loop_iterations += 1
        if iterations > limit:
            raise IterationGuardExceeded(
                f"basis1 exceeded {limit:.0f} iterations on |G|={g}"
            )
        R = ConstraintSet.of(rng.subset(members, r), oracle.n)
        C = _ref_basis2(oracle, W | R, rng, stats)
        viol = [h for h in members if h not in C and oracle.violates(C, h)]
        if not viol:
            return C
        if len(viol) * len(viol) <= 4 * g:
            W = W | ConstraintSet.of(viol, oracle.n)
            augmentations += 1
            stats.w_augmentations += 1
            if augmentations > delta:
                raise IterationGuardExceeded(
                    f"basis1 augmented its working set {augmentations} times,"
                    f" which contradicts the <= {delta} bound"
                )


def _ref_sampling_counts(oracle, W, r, trials, rng) -> List[int]:
    n = oracle.n
    members = list(range(n))
    counts = []
    for _ in range(trials):
        R = ConstraintSet.of(rng.subset(members, r), n)
        base = W | R
        count = 0
        for h in range(n):
            if h not in base and oracle.violates(base, h):
                count += 1
        counts.append(count)
    return counts


# -- harness -----------------------------------------------------------


def _logged(oracle):
    """Record every violation query the oracle answers, in order."""
    log = []
    inner = oracle._violates

    def violates(G, h):
        log.append((G.mask, h))
        return inner(G, h)

    oracle._violates = violates
    return oracle, log


def _run(stage, make_oracle, seed):
    oracle, log = _logged(make_oracle())
    rng = Rng(seed)
    stats = SolveStats(rng_seed=rng.seed)
    try:
        outcome = stage(oracle, oracle.ground_set(), rng, stats).mask
    except IterationGuardExceeded as exc:
        outcome = str(exc)
    stats.primitive_calls = oracle.primitive_calls
    return outcome, asdict(stats), log, rng.randbelow(1 << 64)


def _assert_same_runs(make_oracle, seeds) -> List[dict]:
    """Compare both stages with the reference; return the runs' stats."""
    stats = []
    for seed in seeds:
        for new, ref in ((alg._basis1, _ref_basis1), (alg._basis2, _ref_basis2)):
            got = _run(new, make_oracle, seed)
            assert got == _run(ref, make_oracle, seed)
            stats.append(got[1])
    return stats


# -- inputs ------------------------------------------------------------


def _grid(n, delta, seed):
    sizes = [n // delta] * (delta - 1) + [n - (n // delta) * (delta - 1)]
    part = GridPartition.uniform(sizes)
    rng = Rng(seed)
    rankings = [rng.subset(list(b), len(b)) for b in part.blocks]
    return lambda: coordinate_order_oracle(part, rankings)


def _points(rnd, n, d):
    return PointSet.from_rows([[rnd.randrange(1000) for _ in range(d)] for _ in range(n)])


def _halfplanes(rnd, n):
    """n halfplanes that all hold strictly at one interior point."""
    px, py = rnd.randrange(20, 80), rnd.randrange(20, 80)
    rows = []
    while len(rows) < n:
        a, b = rnd.randrange(-9, 10), rnd.randrange(-9, 10)
        if a or b:
            rows.append((a, b, a * px + b * py + rnd.randrange(1, 100)))
    return HalfplaneLp.from_rows(rows)


@pytest.mark.parametrize("n, delta", [(30, 2), (60, 2), (150, 2), (60, 3), (200, 3)])
def test_stages_match_reference_on_coordinate_grids(n, delta):
    # delta = 3 base cases scan C(54, 3) candidates: fewer seeds
    _assert_same_runs(_grid(n, delta, n + delta), range(4 if delta == 2 else 2))


def test_stages_match_reference_on_tabulated_usos():
    cyclic = tabulate_oracle(uso_oracle(cyclic_cube_uso()))
    assert cyclic.check_axioms() is None
    _assert_same_runs(cyclic.oracle, range(4))
    for seed, sizes in ((1, (2, 2, 2)), (2, (3, 3)), (3, (3, 2)), (4, (2, 2, 2, 2))):
        space = tabulate_oracle(uso_oracle(random_uso(GridPartition.uniform(list(sizes)), Rng(seed))))
        assert space.check_axioms() is None
        _assert_same_runs(space.oracle, range(4))


def test_stages_match_reference_on_geometry_above_the_base_case():
    rnd = random.Random(808)
    stats = []
    # 1D miniball and planar LP have delta = 2: reweighting runs above
    # 24 constraints and sampling above 36 (planar miniball, delta = 3,
    # would need 55 points and a base case of about 40000 queries)
    for n in (30, 50):
        ps = _points(rnd, n, 1)
        stats += _assert_same_runs(lambda: MiniballOracle(ps), range(3))
        lp = _halfplanes(rnd, n)
        stats += _assert_same_runs(lambda: Lp2dOracle(lp), range(3))
    assert sum(s["reweight_iterations"] for s in stats) > 0
    assert sum(s["w_augmentations"] for s in stats) > 0


@pytest.mark.parametrize("n", [50, 100])
def test_stages_raise_the_reference_message_on_a_non_violator_space(n):
    make = lambda: _ChasingOracle(n, 1)
    for seed in range(3):
        for new, ref in ((alg._basis1, _ref_basis1), (alg._basis2, _ref_basis2)):
            got = _run(new, make, seed)
            assert isinstance(got[0], str)
            assert got == _run(ref, make, seed)


def test_sampling_matches_reference_loop():
    rnd = random.Random(909)
    cases = [
        (_grid(30, 3, 5), ConstraintSet.of([0, 10], 30), 10),
        (lambda ps=_points(rnd, 20, 2): MiniballOracle(ps), ConstraintSet.empty(20), 10),
        (lambda lp=_halfplanes(rnd, 25): Lp2dOracle(lp), ConstraintSet.of([3], 25), 12),
    ]
    for make, W, r in cases:
        for seed in range(3):
            new_oracle, new_log = _logged(make())
            new_rng = Rng(seed)
            report = alg.sampling_check(new_oracle, W, r, 40, new_rng)
            ref_oracle, ref_log = _logged(make())
            ref_rng = Rng(seed)
            counts = _ref_sampling_counts(ref_oracle, W, r, 40, ref_rng)
            assert report.mean == sum(counts) / 40
            # the squares are added left to right, whatever sum() does
            sq = 0.0
            for c in counts:
                sq += (c - report.mean) ** 2
            assert report.stddev == math.sqrt(sq / 39)
            assert new_log == ref_log
            assert new_oracle.primitive_calls == ref_oracle.primitive_calls
            assert new_rng.randbelow(1 << 64) == ref_rng.randbelow(1 << 64)
