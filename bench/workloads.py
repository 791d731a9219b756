"""The four workloads: seeded inputs, the operations on them, and checks.

Each workload turns a seed into a fixed list of operations.  An operation
builds fresh program state from prepared inputs (an oracle, or a file
read), calls the library, and returns an Outcome; nothing the library
caches survives from one operation to the next, so repeating the list
repeats the same work.  Inputs (points, halfplanes, rankings, tables,
solver seeds) come from the standard library's `random` seeded by the
string "<workload>/<seed>"; only random grid USOs are drawn by the
library's own generator, from a seed made that way.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import checks
from checks import require

IMPLICIT = ((Fraction(-1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1), Fraction(0)))

# One round holds some 300 to 550 distinct operations and takes about 15 s
# on the 2-core x86 container this was built on, so that a 20 s run is
# mostly one round: the more distinct inputs a run holds, the less its
# figures depend on the seed.  Sizes are spread evenly over a range rather
# than drawn from a few values, so that the median and the 90th percentile
# of a round fall where operations are dense.

# uso-solve: lazy coordinate-order grid USOs with two blocks (delta = 2),
# alternating clarkson1 and clarkson2, plus one clarkson1 solve in the
# low thousands.  A solve takes about 20 ms at n=100, 150 ms at n=400 and
# 0.5-1.4 s at n=1000, and the solver's own draws make it vary 2-4x at one
# size, so a round that fits the run holds many solves only at small n:
# 120 solves over n=100-395 spread op_ms_p90 by 0.22 over five seeds, 300
# over n=100-249 by 0.14, these 340 over n=100-159 by 0.06.
USO_OPS = 340
USO_SIZES = (100, 160)  # n from 100 up to 159
USO_LARGE = (1000, "clarkson1")

# geometry-solve: 2D miniball (delta 3; up to 54 points the base case runs
# directly) and halfplane LPs (delta 2; the base case up to 24, the
# reweighting stage up to 36, the sampling stage above), alternating.
GEOMETRY_OPS = 275  # of each kind
MINIBALL_SOLVE_SIZES = (8, 17)  # n from 8 up to 16
LP_SOLVE_SIZES = (20, 120)

# geometry-sampling: alternating miniball and LP instances, r = n // 2.
SAMPLING_OPS = 160  # of each kind
SAMPLING_TRIALS = 2
MINIBALL_SAMPLING_SIZES = (40, 320)
LP_SAMPLING_SIZES = (30, 70)

# table-structure, per block: live instances tabulated inside the
# operation, then tables read from files (concrete, explicit through the
# library, explicit through `vspace structure`, corrupted explicit).
TABLE_LIVE_SIZES = [6, 7]
TABLE_FILE_SIZES = {"concrete": [10], "explicit": [10, 11], "cli": [10, 11],
                    "corrupt": [10, 12]}
TABLE_REPEAT = 24


def _spread(k: int, count: int, lo_hi) -> int:
    """The k-th of `count` sizes spread evenly over [lo, hi)."""
    lo, hi = lo_hi
    return lo + (k * (hi - lo)) // count


@dataclass
class Outcome:
    value: object  # what the checks read
    calls: int  # violation tests the library reports for this operation
    counters: Counter = field(default_factory=Counter)  # library counters


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]  # raises CheckError
    digest: Callable[[Outcome], object]  # small, comparable summary of the output


@dataclass
class Workload:
    ops: List[Op]
    round_check: Optional[Callable[[List[Outcome]], None]] = None  # on a whole round


def _solve_counters(stats, oracle) -> Counter:
    c = Counter(
        w_augmentations=stats.w_augmentations,
        reweight_iterations=stats.reweight_iterations,
        loop_iterations=stats.loop_iterations,
    )
    c["edge_evals"] = getattr(oracle, "edge_evals", 0)
    return c


# -- uso-solve -------------------------------------------------------------


def uso_solve(vs, seed: int, workdir: str) -> Workload:
    rnd = random.Random(f"uso-solve/{seed}")
    ops = []
    cases = [(_spread(k, USO_OPS, USO_SIZES), ("clarkson1", "clarkson2")[k % 2])
             for k in range(USO_OPS)]
    for n, algo in cases + [USO_LARGE]:
        part = vs.grid_uso.GridPartition.uniform([(n + 1) // 2, n // 2])
        rankings = [rnd.sample(list(b), len(b)) for b in part.blocks]
        ops.append(_uso_op(vs, part, rankings, algo, rnd.getrandbits(64)))
    return Workload(ops)


def _uso_op(vs, part, rankings, algo, solver_seed) -> Op:
    alg = vs.algorithms

    def run():
        oracle = vs.grid_uso.coordinate_order_oracle(part, rankings)
        stage = alg.basis1 if algo == "clarkson1" else alg.basis2
        basis, stats = stage(oracle, oracle.ground_set(), alg.Rng(solver_seed))
        return Outcome((basis.mask, stats.primitive_calls, oracle.primitive_calls),
                       stats.primitive_calls, _solve_counters(stats, oracle))

    def check(out):
        mask, calls, oracle_calls = out.value
        require(mask == checks.uso_min_vertex(rankings),
                "basis is not the blockwise minimum-rank vertex")
        require(calls == oracle_calls, "reported calls differ from the oracle's counter")

    return Op(f"uso n={part.n} {algo}", run, check, lambda out: out.value)


# -- geometry-solve --------------------------------------------------------


def _points(rnd, n):
    return [(rnd.randrange(1000), rnd.randrange(1000)) for _ in range(n)]


def _halfplanes(rnd, n):
    """n halfplanes a*x + b*y <= c that all hold strictly at one interior
    point of the positive orthant, so every subset is feasible."""
    px, py = rnd.randrange(20, 80), rnd.randrange(20, 80)
    rows = []
    while len(rows) < n:
        a, b = rnd.randrange(-9, 10), rnd.randrange(-9, 10)
        if a or b:
            rows.append((a, b, a * px + b * py + rnd.randrange(1, 100)))
    return rows


def _fractions(rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


def geometry_solve(vs, seed: int, workdir: str) -> Workload:
    rnd = random.Random(f"geometry-solve/{seed}")
    inst = vs.instances
    ops = []
    for k in range(GEOMETRY_OPS):
        rows = _points(rnd, _spread(k, GEOMETRY_OPS, MINIBALL_SOLVE_SIZES))
        ops.append(_miniball_solve_op(vs, inst.PointSet.from_rows(rows), _fractions(rows),
                                      rnd.getrandbits(64)))
        rows = _halfplanes(rnd, _spread(k, GEOMETRY_OPS, LP_SOLVE_SIZES))
        ops.append(_lp_solve_op(vs, inst.HalfplaneLp.from_rows(rows), _fractions(rows),
                                rnd.getrandbits(64)))
    return Workload(ops)


def _miniball_solve_op(vs, ps, pts, solver_seed) -> Op:
    def run():
        oracle = vs.instances.MiniballOracle(ps)
        basis, stats = vs.algorithms.solve(oracle, vs.algorithms.Rng(solver_seed))
        return Outcome(tuple(basis), stats.primitive_calls, _solve_counters(stats, oracle))

    return Op(f"miniball n={len(pts)} solve", run,
              lambda out: checks.check_miniball_basis(pts, out.value), lambda out: out.value)


def _lp_solve_op(vs, lp, hps, solver_seed) -> Op:
    def run():
        oracle = vs.instances.Lp2dOracle(lp)
        basis, stats = vs.algorithms.solve(oracle, vs.algorithms.Rng(solver_seed))
        return Outcome(tuple(basis), stats.primitive_calls, _solve_counters(stats, oracle))

    return Op(f"lp n={len(hps)} solve", run,
              lambda out: checks.check_lp_basis(hps, IMPLICIT, out.value), lambda out: out.value)


# -- geometry-sampling -----------------------------------------------------


def geometry_sampling(vs, seed: int, workdir: str) -> Workload:
    rnd = random.Random(f"geometry-sampling/{seed}")
    inst = vs.instances
    ops = []
    for k in range(SAMPLING_OPS):
        rows = _points(rnd, _spread(k, SAMPLING_OPS, MINIBALL_SAMPLING_SIZES))
        make = lambda ps=inst.PointSet.from_rows(rows): inst.MiniballOracle(ps)
        ops.append(_sampling_op(vs, "miniball", make, _fractions(rows), len(rows) // 2,
                                SAMPLING_TRIALS, rnd.getrandbits(64)))
        rows = _halfplanes(rnd, _spread(k, SAMPLING_OPS, LP_SAMPLING_SIZES))
        make = lambda lp=inst.HalfplaneLp.from_rows(rows): inst.Lp2dOracle(lp)
        ops.append(_sampling_op(vs, "lp", make, _fractions(rows), len(rows) // 2,
                                SAMPLING_TRIALS, rnd.getrandbits(64)))
    return Workload(ops, _sampling_round_check)


def _sampling_op(vs, kind, make, rows, r, trials, rng_seed) -> Op:
    alg = vs.algorithms
    n = len(rows)

    def run():
        oracle = make()
        report = alg.sampling_check(oracle, vs.core.ConstraintSet.empty(n), r, trials,
                                    alg.Rng(rng_seed))
        return Outcome((report, oracle), oracle.primitive_calls)

    def check(out):
        report, oracle = out.value
        # Replay the trial sets: sampling_check draws one r-subset of
        # 0..n-1 per trial from the generator it is given.
        rng = alg.Rng(rng_seed)
        counts = []
        for _ in range(trials):
            mask = sum(1 << h for h in rng.subset(list(range(n)), r))
            G = vs.core.ConstraintSet(mask, n)
            if kind == "miniball":
                center, r2 = oracle.ball_of(G)
                members = [i for i in range(n) if (mask >> i) & 1]
                checks.check_ball(rows, members, center, r2)
                counts.append(checks.violators_of_ball(rows, mask, center, r2))
            else:
                opt = oracle.optimum_of(G)
                checks.check_lp_optimum(rows, IMPLICIT, mask, opt)
                counts.append(sum(1 for i, h in enumerate(rows)
                                  if not (mask >> i) & 1 and checks.violated(h, opt)))
        require(out.calls == trials * (n - r), "every trial tests each point outside R once")
        require(report.mean == sum(counts) / trials, "mean violator count differs from the certified balls")
        bound = oracle.delta * (n - r) / (r + 1)
        require(report.bound == bound, "bound is not delta (n - r) / (r + 1)")
        mean = sum(counts) / trials
        sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (trials - 1)) if trials > 1 else 0.0
        require(math.isclose(report.stddev, sd, rel_tol=1e-9, abs_tol=1e-12), "stddev differs")
        require(report.passed == (report.mean <= bound + 3.0 * sd / math.sqrt(trials)),
                "passed flag disagrees with mean, bound and standard error")
        out.value = (report, counts, bound)

    return Op(f"{kind} n={n} sampling r={r} x{trials}", run, check,
              lambda out: (out.value[0].mean, out.value[0].stddev, out.calls))


def _sampling_round_check(outcomes: List[Outcome]) -> None:
    """All trials of a round, each scaled by its bound, average at most 1
    plus three standard errors: the paper's bound, pooled over the round."""
    scaled = [c / out.value[2] for out in outcomes for c in out.value[1]]
    k = len(scaled)
    mean = sum(scaled) / k
    se = math.sqrt(sum((x - mean) ** 2 for x in scaled) / (k - 1) / k)
    require(mean <= 1.0 + 3.0 * se,
            f"pooled violator count {mean:.3f} of the bound exceeds 1 + 3 se ({se:.3f})")


# -- table-structure -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _member_names(n):
    """names[i] of h0..h(n-1), and for every mask the names of its members."""
    names = [f"h{i}" for i in range(n)]
    members = [[]]
    for g in range(1, 1 << n):
        high = g.bit_length() - 1
        members.append(members[g ^ (1 << high)] + [names[high]])
    return names, members, [",".join(m) for m in members]


def _explicit_doc(table, n):
    names, members, keys = _member_names(n)
    return {"names": names, "violators": {keys[g]: members[v] for g, v in enumerate(table)}}


def _random_concrete(rnd, n, m):
    return [[p for p in range(m) if rnd.random() < 0.55] for _ in range(n)]


def table_structure(vs, seed: int, workdir: str) -> Workload:
    rnd = random.Random(f"table-structure/{seed}")
    inst, gu = vs.instances, vs.grid_uso
    ops = []

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))  # dumps encodes in C; dump streams in Python
        return path

    for rep in range(TABLE_REPEAT):
        for n in TABLE_LIVE_SIZES:
            ps = inst.PointSet.from_rows(_points(rnd, n))
            ops.append(_tabulate_op(vs, f"miniball n={n}", lambda ps=ps: inst.MiniballOracle(ps),
                                    "acyclic"))
            lp = inst.HalfplaneLp.from_rows(_halfplanes(rnd, n))
            ops.append(_tabulate_op(vs, f"lp n={n}", lambda lp=lp: inst.Lp2dOracle(lp), "acyclic"))
        # shapes where rejection sampling accepts often (1.5% of draws or more)
        sizes = ((2, 2, 2), (3, 3), (3, 2), (4, 2))[rep % 4]
        u = gu.random_uso(gu.GridPartition.uniform(list(sizes)), vs.algorithms.Rng(rnd.getrandbits(64)))
        expect = "cyclic" if checks.has_directed_cycle(u.partition.blocks, u.outmap) else None
        ops.append(_tabulate_op(vs, f"random uso {sizes}", lambda u=u: gu.uso_oracle(u), expect))
        for kind, sizes in TABLE_FILE_SIZES.items():
            for n in sizes:
                m = rnd.randint(4, 8)
                constraints = _random_concrete(rnd, n, m)
                table = checks.concrete_violators(m, constraints)
                name = f"{kind}{rep}-{n}.json"
                if kind == "concrete":
                    doc = {"points": [f"x{p}" for p in range(m)], "constraints": constraints}
                    ops.append(_file_op(vs, write(name, doc), table, n))
                elif kind == "explicit":
                    ops.append(_file_op(vs, write(name, _explicit_doc(table, n)), table, n))
                elif kind == "cli":
                    # the CLI tabulates a concrete file's table oracle and
                    # reports no call count, so it reads explicit files only
                    ops.append(_cli_op(vs, write(name, _explicit_doc(table, n)), table, n))
                else:
                    bad = checks.corrupt(table, n, rnd.randrange(1 << n))
                    ops.append(_corrupt_op(vs, write(name, _explicit_doc(bad, n)), bad, n))
    cube = gu.cyclic_cube_uso()
    ops.append(_tabulate_op(vs, "cyclic cube", lambda: gu.uso_oracle(cube), "cyclic"))
    part = gu.GridPartition.uniform([4, 4, 3])
    u = gu.coordinate_order_uso(part, [rnd.sample(list(b), len(b)) for b in part.blocks])
    ops.append(_tabulate_op(vs, "coordinate uso (4, 4, 3)", lambda: gu.uso_oracle(u), "acyclic"))
    m = rnd.randint(4, 8)
    table = checks.concrete_violators(m, _random_concrete(rnd, 13, m))
    ops.append(_file_op(vs, write("explicit-13.json", _explicit_doc(table, 13)), table, 13))
    _member_names.cache_clear()  # needed only while the files are written
    return Workload(ops)


def _check_structure(space, st, table, n, expect):
    require(list(space.violator_mask(g) for g in range(1 << n)) == list(table),
            "table differs from its source")
    require(len(st.bases) == checks.basis_count(table, n), "basis count differs from brute force")
    if expect == "acyclic":
        require(st.acyclic, "an LP-type source came out cyclic")
    elif expect == "cyclic":
        require(not st.acyclic, "a cyclic source came out acyclic")


def _pipeline(vs, space):
    """Axiom check, structure, round trip and dump of one checked table."""
    witness = space.check_axioms()
    st = space.structure()
    back = None
    if st.acyclic:
        back = space.to_concrete().to_abstract().violator_map()
    doc = vs.fileio.explicit_to_dict(space)
    return witness, st, back, doc


def _table_digest(out):
    witness, st, back, doc = out.value[:4]
    # a 64-bit string hash: rounds are compared within one process, and
    # hashlib would load OpenSSL, 3 MiB of resident memory
    text = json.dumps(doc, sort_keys=True)
    return (witness, len(st.bases), st.acyclic, len(st.classes), hash(text))


def _check_pipeline(vs, out, table, n, expect):
    witness, st, back, doc = out.value[:4]
    space = out.value[4]
    require(witness is None, "a valid table failed the axiom check")
    _check_structure(space, st, table, n, expect)
    if back is not None:
        require([back.violator_mask(g) for g in range(1 << n)] == list(table),
                "concrete -> abstract -> violator round trip changed the table")
    kind, reread = vs.fileio.load_text(json.dumps(doc))
    require(kind == "explicit" and [reread.violator_mask(g) for g in range(1 << n)] == list(table),
            "dumped table does not load back to the same table")


def _tabulate_op(vs, label, make_oracle, expect) -> Op:
    def run():
        oracle = make_oracle()
        space = vs.instances.tabulate(oracle)
        return Outcome((*_pipeline(vs, space), space, oracle), oracle.primitive_calls,
                       Counter(edge_evals=getattr(oracle, "edge_evals", 0)))

    def check(out):
        space, oracle = out.value[4], out.value[5]
        n = oracle.n
        # the table must hold what the oracle answers; re-ask it directly
        G = vs.core.ConstraintSet
        table = [sum(1 << h for h in range(n)
                     if not (g >> h) & 1 and oracle.violates(G(g, n), h))
                 for g in range(1 << n)]
        require(out.calls == n * (1 << (n - 1)), "tabulation made a test per (G, h outside G)")
        _check_pipeline(vs, out, table, n, expect)

    return Op(f"tabulate {label}", run, check, _table_digest)


def _file_op(vs, path, table, n) -> Op:
    def run():
        kind, obj = vs.fileio.load_path(path)
        space = obj if kind == "explicit" else obj.to_abstract().violator_map()
        return Outcome((*_pipeline(vs, space), space), 0)

    return Op(f"load {os.path.basename(path)} n={n}", run,
              lambda out: _check_pipeline(vs, out, table, n, "acyclic"), _table_digest)


def _cli_op(vs, path, table, n) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = vs.cli.main(["structure", path, "--format", "json"])
        return Outcome((code, buf.getvalue()), 0)

    def check(out):
        code, text = out.value
        require(code == 0, f"vspace structure exited {code}")
        payload = json.loads(text)
        require(len(payload["bases"]) == checks.basis_count(table, n),
                "basis count differs from brute force")
        require(payload["acyclic"] is True, "an LP-type source came out cyclic")
        # rebuild the concrete problem from the printed S table and
        # recompute its violator table
        order = payload["linear_extension"]
        index = {label: p for p, label in enumerate(order)}
        constraints = [[index[x] for x in payload["s_table"][f"h{h}"]] for h in range(n)]
        require(checks.concrete_violators(len(order), constraints) == list(table),
                "printed concretization does not reproduce the table")

    return Op(f"vspace structure {os.path.basename(path)} n={n}", run, check,
              lambda out: out.value)


def _corrupt_op(vs, path, bad, n) -> Op:
    def run():
        kind, space = vs.fileio.load_path(path)
        return Outcome(space.check_axioms(), 0)

    def check(out):
        w = out.value
        require(w is not None, "a corrupted table passed the axiom check")
        checks.check_witness(bad, n, w.axiom, w.F.mask, w.G.mask)

    return Op(f"check {os.path.basename(path)} n={n}", run, check,
              lambda out: (out.value.axiom, out.value.F.mask, out.value.G.mask))


WORKLOADS = {
    "uso-solve": uso_solve,
    "geometry-solve": geometry_solve,
    "geometry-sampling": geometry_sampling,
    "table-structure": table_structure,
}
