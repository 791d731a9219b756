"""The benchmark's own tests: every output check rejects a wrong output.

    python3 bench/selftest.py        (from the root of a checkout)

Each test runs one small operation of a workload, confirms that its check
accepts the library's real output, then plants a fault in that output
(a basis with one member swapped, a shrunken ball, a changed count, a
flipped table entry, ...) and confirms that the check rejects it.
Prints one line per test and exits 1 if any test fails.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError  # noqa: E402

vs = bench_run.import_library()
TESTS = []


def test(fn):
    TESTS.append(fn)
    return fn


def rejects(fn, *args) -> None:
    try:
        fn(*args)
    except CheckError:
        return
    raise AssertionError(f"{getattr(fn, '__name__', fn)} accepted a wrong output")


def _swap_one(members, n):
    """The same set with its first member replaced by the first non-member."""
    outside = next(h for h in range(n) if h not in members)
    return (outside,) + tuple(members[1:])


@test
def uso_basis_with_a_swapped_member():
    part = vs.grid_uso.GridPartition.uniform([6, 5])
    rankings = [[2, 0, 4, 1, 3, 5], [9, 7, 6, 10, 8]]
    for algo in ("clarkson1", "clarkson2"):
        op = wl._uso_op(vs, part, rankings, algo, 17)
        out = op.run()
        op.check(out)
        mask, calls, oracle_calls = out.value
        members = tuple(h for h in range(11) if (mask >> h) & 1)
        swapped = sum(1 << h for h in _swap_one(members, 11))
        rejects(op.check, wl.Outcome((swapped, calls, oracle_calls), calls))
        rejects(op.check, wl.Outcome((mask, calls + 1, oracle_calls), calls))


@test
def miniball_basis_swapped_or_short():
    rows = [(0, 0), (10, 0), (5, 9), (4, 3), (6, 2), (5, 5), (3, 1)]
    op = wl._miniball_solve_op(vs, vs.instances.PointSet.from_rows(rows), wl._fractions(rows), 3)
    out = op.run()
    op.check(out)
    rejects(op.check, wl.Outcome(_swap_one(out.value, len(rows)), 0))
    rejects(op.check, wl.Outcome(out.value[1:], 0))


@test
def lp_basis_swapped_or_short():
    rows = wl._halfplanes(wl.random.Random(11), 12)
    op = wl._lp_solve_op(vs, vs.instances.HalfplaneLp.from_rows(rows), wl._fractions(rows), 3)
    out = op.run()
    op.check(out)
    rejects(op.check, wl.Outcome(_swap_one(out.value, len(rows)), 0))
    rejects(op.check, wl.Outcome(out.value[1:], 0))


@test
def ball_certificate_rejects_wrong_balls():
    pts = wl._fractions([(0, 0), (4, 0), (2, 1), (1, 3)])
    center, r2 = checks.circumball([pts[0], pts[1], pts[3]])
    checks.check_ball(pts, range(4), center, r2)
    rejects(checks.check_ball, pts, range(4), center, r2 * 2)  # too large: no tight point
    rejects(checks.check_ball, pts, range(4), center, r2 / 2)  # too small: misses points
    big = checks.circumball([pts[0], pts[1]])  # the diameter ball misses (1, 3)
    rejects(checks.check_ball, pts, range(4), *big)


@test
def lp_optimum_certificate_rejects_other_points():
    hps = wl._fractions([(-1, -2, -6), (-1, -1, -4), (3, -4, -2)])
    opt = checks.lex_optimum(list(wl.IMPLICIT) + hps)
    checks.check_lp_optimum(hps, wl.IMPLICIT, 0b111, opt)
    rejects(checks.check_lp_optimum, hps, wl.IMPLICIT, 0b111, (opt[0] + 1, opt[1]))
    rejects(checks.check_lp_optimum, hps, wl.IMPLICIT, 0b111, (opt[0], opt[1] + 1))


@test
def sampling_report_and_pooled_bound():
    for kind, rows in (("miniball", wl._points(wl.random.Random(5), 30)),
                       ("lp", wl._halfplanes(wl.random.Random(5), 30))):
        inst = vs.instances
        if kind == "miniball":
            make = lambda: inst.MiniballOracle(inst.PointSet.from_rows(rows))  # noqa: E731
        else:
            make = lambda: inst.Lp2dOracle(inst.HalfplaneLp.from_rows(rows))  # noqa: E731
        op = wl._sampling_op(vs, kind, make, wl._fractions(rows), 15, 5, 99)
        out = op.run()
        report, oracle = out.value
        bad_mean = dataclasses.replace(report, mean=report.mean + 0.2)
        rejects(op.check, wl.Outcome((bad_mean, oracle), out.calls))
        bad_bound = dataclasses.replace(report, bound=report.bound * 2)
        rejects(op.check, wl.Outcome((bad_bound, oracle), out.calls))
        rejects(op.check, wl.Outcome((report, oracle), out.calls - 1))
        op.check(out)
        wl._sampling_round_check([out])
        report, counts, bound = out.value
        inflated = wl.Outcome((report, [c + 3 * bound for c in counts], bound), 0)
        rejects(wl._sampling_round_check, [inflated])


def _table_space():
    rows = [(0, 0), (7, 1), (3, 8), (5, 4), (2, 2), (6, 6)]
    ps = vs.instances.PointSet.from_rows(rows)
    return wl._tabulate_op(vs, "test", lambda: vs.instances.MiniballOracle(ps), "acyclic")


@test
def tabulated_pipeline_rejects_wrong_structure():
    op = _table_space()
    out = op.run()
    witness, st, back, doc, space, oracle = out.value
    table = [space.violator_mask(g) for g in range(1 << space.n)]
    op.check(wl.Outcome(out.value, out.calls))
    rejects(op.check, wl.Outcome(out.value, out.calls + 1))
    fewer = dataclasses.replace(st, bases=st.bases[1:])
    rejects(wl._check_pipeline, vs, wl.Outcome((witness, fewer, back, doc, space), 0),
            table, space.n, "acyclic")
    cyclic = dataclasses.replace(st, acyclic=False)
    rejects(wl._check_pipeline, vs, wl.Outcome((witness, cyclic, back, doc, space), 0),
            table, space.n, "acyclic")
    flipped = list(table)
    flipped[1] ^= 1 << 2
    wrong_back = vs.explicit.ExplicitViolatorSpace(space.n, flipped)
    rejects(wl._check_pipeline, vs, wl.Outcome((witness, st, wrong_back, doc, space), 0),
            table, space.n, "acyclic")
    wrong_doc = vs.fileio.explicit_to_dict(wrong_back)
    rejects(wl._check_pipeline, vs, wl.Outcome((witness, st, back, wrong_doc, space), 0),
            table, space.n, "acyclic")


@test
def cli_structure_and_corrupted_tables():
    rnd = wl.random.Random(3)
    n, m = 6, 5
    table = checks.concrete_violators(m, wl._random_concrete(rnd, n, m))
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = str(Path(tmp) / "t.json")
        with open(path, "w", encoding="utf-8") as fh:
            wl.json.dump(wl._explicit_doc(table, n), fh)
        op = wl._cli_op(vs, path, table, n)
        out = op.run()
        op.check(out)
        code, text = out.value
        payload = wl.json.loads(text)
        payload["s_table"]["h0"] = payload["s_table"]["h0"][1:] or payload["linear_extension"][:1]
        rejects(op.check, wl.Outcome((code, wl.json.dumps(payload)), 0))
        rejects(op.check, wl.Outcome((1, text), 0))

        bad = checks.corrupt(table, n, 5)
        with open(path, "w", encoding="utf-8") as fh:
            wl.json.dump(wl._explicit_doc(bad, n), fh)
        op = wl._corrupt_op(vs, path, bad, n)
        out = op.run()
        op.check(out)
        rejects(op.check, wl.Outcome(None, 0))
        w = out.value
        rejects(checks.check_witness, table, n, w.axiom, w.F.mask, w.G.mask)
        rejects(checks.check_witness, bad, n, "consistency", 0, 0)


@test
def tracer_counts_match_the_library():
    from tracing import Tracer

    tracer = Tracer(vs)
    rows = wl._points(wl.random.Random(8), 40)
    op = wl._miniball_solve_op(vs, vs.instances.PointSet.from_rows(rows), wl._fractions(rows), 4)
    plain = op.run()
    with tracer.operation(0, op.label):
        traced = op.run()
    assert traced.value == plain.value and traced.calls == plain.calls
    assert tracer.count("core.violates") == traced.calls
    # the wrappers are gone again once the operation ends
    assert all(getattr(holder, attr) is original for holder, attr, original, _ in tracer._patches)


def main() -> int:
    failed = 0
    for fn in TESTS:
        try:
            fn()
            print(f"PASS {fn.__name__}")
        except Exception:  # report every test, then exit non-zero
            failed += 1
            print(f"FAIL {fn.__name__}\n{traceback.format_exc()}")
    print(f"{len(TESTS) - failed} of {len(TESTS)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
