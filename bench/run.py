"""Benchmark of the violator-spaces library, one workload per process.

    python3 bench/run.py --workload uso-solve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy.  The run builds the workload's
inputs from the seed, then repeats its fixed list of operations in whole
rounds until the time is spent, checks every output, and prints one JSON
object as its last line of output.  With --trace 0 that object holds the
end-to-end metrics; with --trace 1 every operation also runs under the
layer tracer and the object holds the per-layer metrics.  Result and
trace files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import workloads
from checks import CheckError
from tracing import Tracer

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"


def reference_ns() -> int:
    """Time of a fixed pure-Python task (integer, dict, tuple and Fraction
    work, like the library's), about 1 ms on an idle 2.1 GHz Xeon core.

    Every reported time is divided by reference timings taken next to it.
    The container this benchmark was built on runs the same code up to
    twice as slow for seconds at a time; the wall time of one solve
    drifted by 40% within a minute while its ratio to the reference
    stayed within 4%.
    """
    t0 = time.perf_counter_ns()
    s, d = 0, {}
    for i in range(4000):
        s += (i * i) ^ (s >> 3)
        d[i & 255] = (s & 0xFFFF, i)
    f = Fraction(1)
    for i in range(1, 60):
        f = f * Fraction(i + 1, i) - Fraction(1, i * i)
    return time.perf_counter_ns() - t0


# Reported times are in reference milliseconds (and set-up in reference
# seconds): a time divided by the reference task's, as if that took 1 ms.
REF_WINDOW = 8  # reference timings around an operation whose median scales it


def reference_window() -> int:
    """Median of REF_WINDOW reference timings taken now, in ns."""
    return statistics.median(reference_ns() for _ in range(REF_WINDOW))


def import_library():
    src = ROOT / "src"
    if not (src / "violator_spaces" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import violator_spaces
    import violator_spaces.cli  # noqa: F401  (the package does not import it)

    if Path(violator_spaces.__file__).resolve().parent != (src / "violator_spaces").resolve():
        sys.exit(f"error: imported violator_spaces from {violator_spaces.__file__}, not {src}")
    return violator_spaces


class Run:
    """Counts, samples and check results of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ratios = {}  # operation index -> its times over the reference task
        self.raw_ns = {}  # operation index -> its wall times
        self.calls = {}  # operation index -> violation tests it made
        self.traced = 0
        self.errors = []

    def wrong(self, label: str, msg: str) -> None:
        self.correct = False
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {msg}")


def run_op(run, op, index, digests, outcomes, tracer=None, op_number=0):
    """Time one operation, then check it: fully in the first round, by
    comparing its digest with the first round's afterwards."""
    run.attempted += 1
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.operation(op_number, op.label):
                out = op.run()
    except Exception:  # a failed operation is counted, the run goes on
        run.failed += 1
        if len(run.errors) < 20:
            run.errors.append(f"{op.label}: failed\n{traceback.format_exc()}")
        return None, 0
    elapsed = time.perf_counter_ns() - t0
    try:
        if index not in digests:
            op.check(out)
            digests[index] = op.digest(out)
            if outcomes is not None:
                outcomes.append(out)
        elif op.digest(out) != digests[index]:
            raise CheckError("output differs from the first round")
    except CheckError as exc:
        run.wrong(op.label, str(exc))
    return out, elapsed


def measure(workload, seconds, tracer=None):
    """Whole rounds of the operation list until `seconds` have passed.

    Another round starts only while at least half of it fits in the time
    left, so a run ends close to `seconds` and always holds whole rounds.
    Between operations the reference task is timed; each operation's
    time is divided by the median of the REF_WINDOW reference timings
    around it, which follows the machine's slow stretches (seconds long)
    without the jitter of a single 1 ms timing.
    """
    run = Run()
    digests = {}
    counters = Counter()
    traced_ns = untraced_ns = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        outcomes = [] if workload.round_check is not None else None
        round_ns = 0
        refs = [reference_ns()]  # refs[i] is timed just before operation i
        timed = []
        for i, op in enumerate(workload.ops):
            if tracer is None:
                out, dt = run_op(run, op, i, digests, outcomes)
                refs.append(reference_ns())
                if out is not None:
                    timed.append((i, dt))
                    run.raw_ns.setdefault(i, []).append(dt)
                    run.calls[i] = out.calls
                round_ns += dt
                continue
            # traced run: the same operation untraced, then traced
            out, dt = run_op(run, op, i, digests, outcomes)
            before = tracer.count("core.violates")
            tout, tdt = run_op(run, op, i, digests, None, tracer, run.attempted)
            round_ns += dt + tdt
            if out is None or tout is None:
                continue
            untraced_ns += dt
            traced_ns += tdt
            run.traced += 1
            counters.update(tout.counters)
            wrapped = tracer.count("core.violates") - before
            if wrapped != tout.calls:
                run.wrong(op.label, f"wrapper counted {wrapped} violation tests,"
                                    f" the library reports {tout.calls}")
        half = REF_WINDOW // 2
        for i, dt in timed:
            ref = statistics.median(refs[max(0, i - half + 1):i + half + 1])
            run.ratios.setdefault(i, []).append(dt / ref)
        if rounds == 0 and workload.round_check is not None and run.correct:
            try:
                workload.round_check(outcomes)
            except CheckError as exc:
                run.wrong("round", str(exc))
        rounds += 1
        left = seconds - (time.perf_counter() - start)
        if left < round_ns / 2e9:
            break
    if tracer is not None:
        seen = tracer.pairs[("rng.draw", "basis1")] + tracer.pairs[("rng.draw", "basis2")]
        if seen != counters["loop_iterations"]:
            run.wrong("trace", f"wrappers saw {seen} stage iterations, the library"
                               f" reports {counters['loop_iterations']}")
    return run, rounds, counters, (traced_ns / untraced_ns if untraced_ns else 0.0)


def end_to_end(run, setup_s):
    ms = [statistics.median(r) for r in run.ratios.values()]
    done = len(ms)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / (sum(ms) / 1e3), "ops/ref_s"),
        "op_ms_p50": (statistics.median(ms), "ref_ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ref_ms"),
        "calls_per_op": (sum(run.calls.values()) / done, "count"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


LAYER_UNITS = {"calls": "count", "iterations": "count", "augmentations": "count",
               "reweights": "count", "edge_evals": "count", "distinct_sets": "count",
               "cache_hit_ratio": "ratio", "call_share": "ratio", "overhead": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return "ms" if last.endswith("ms") else LAYER_UNITS[last]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up in reference seconds, in two parts, each over the reference
    # timed right after it: the library import, then the building of the
    # inputs.  Interpreter start-up and the benchmark's own modules are
    # left out: they do not depend on the library.
    t0 = time.perf_counter()
    vs = import_library()
    import_s = time.perf_counter() - t0
    import_ref = reference_window()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r};"
                 f" choose from {', '.join(workloads.WORKLOADS)}")
    t0 = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](vs, args.seed, str(workdir))
        tracer = Tracer(vs) if args.trace else None
        build_s = time.perf_counter() - t0
        setup_s = (import_s / import_ref + build_s / reference_window()) * 1e6
        run, rounds, counters, overhead = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.errors:
        print(line, file=sys.stderr)
    if not (run.ratios or run.traced):
        print("error: no operation completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(run, setup_s)
    else:
        layers = tracer.layer_metrics(run.traced, counters, overhead)
        metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "rounds": rounds, "ops_per_round": len(workload.ops)}
    per_op = [{"op": workload.ops[i].label, "calls": run.calls[i],
               "ref_ms": statistics.median(run.ratios[i]),
               "wall_ms": [ns / 1e6 for ns in run.raw_ns[i]]}
              for i in sorted(run.ratios)]
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**info, **result, "operations": per_op}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{tag}.jsonl", info, result["metrics"])
    print(f"{args.workload}: {rounds} rounds of {len(workload.ops)} operations", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
