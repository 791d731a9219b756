"""Single-solve timings at the sizes of the ROADMAP's recorded baselines.

    python3 bench/baselines.py

Run from the root of a checkout.  Uses the workloads' own operations
(coordinate-order grid USOs with clarkson1, 2D miniball with `solve`),
checks every basis as the workloads do, and prints the median wall time
and median violation tests over SEEDS seeds for each size, then one 3D
miniball solve at n=40 (about 20 s), whose basis is not checked: the
benchmark's ball certificate is written for the plane.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = 3

def timed(op):
    t0 = time.perf_counter()
    out = op.run()
    ms = (time.perf_counter() - t0) * 1e3
    op.check(out)
    return ms, out.calls


def main() -> int:
    vs = bench_run.import_library()
    rows = []
    for n in (100, 200, 400, 800, 1600):
        part = vs.grid_uso.GridPartition.uniform([(n + 1) // 2, n // 2])
        runs = []
        for seed in range(SEEDS):
            rnd = random.Random(f"baseline-uso/{n}/{seed}")
            rankings = [rnd.sample(list(b), len(b)) for b in part.blocks]
            runs.append(timed(wl._uso_op(vs, part, rankings, "clarkson1", rnd.getrandbits(64))))
        rows.append(("coordinate USO delta=2 clarkson1", n, runs))
    for n in (50, 200):
        runs = []
        for seed in range(SEEDS):
            rnd = random.Random(f"baseline-miniball/{n}/{seed}")
            pts = wl._points(rnd, n)
            runs.append(timed(wl._miniball_solve_op(
                vs, vs.instances.PointSet.from_rows(pts), wl._fractions(pts), rnd.getrandbits(64))))
        rows.append(("miniball 2D solve", n, runs))
    rnd = random.Random("baseline-miniball3d/40/0")
    ps = vs.instances.PointSet.from_rows(
        [(rnd.randrange(1000), rnd.randrange(1000), rnd.randrange(1000)) for _ in range(40)])
    oracle = vs.instances.MiniballOracle(ps)
    t0 = time.perf_counter()
    _, stats = vs.algorithms.solve(oracle, vs.algorithms.Rng(rnd.getrandbits(64)))
    rows.append(("miniball 3D solve (unchecked)", 40,
                 [((time.perf_counter() - t0) * 1e3, stats.primitive_calls)]))
    print(f"{'family':34s} {'n':>5s} {'median ms':>10s} {'median calls':>13s} runs")
    for family, n, runs in rows:
        ms = statistics.median(r[0] for r in runs)
        calls = statistics.median(r[1] for r in runs)
        print(f"{family:34s} {n:5d} {ms:10.1f} {calls:13.0f} {len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
