"""Command-line front end.

Subcommands: check, solve, structure, uso, bench, sampling, probe.
Every randomized command prints its seed, and identical inputs, flags,
and seed produce byte-identical output.  Exit codes: 0 success, 1 axiom
or validation witness, 2 parse error, 3 solver failure, 4 size guard.

Every command parses its input once with `load_path` and opens it with
`_open`, which validates it and comes back with a live input (a USO,
point or halfplane file) as its violation oracle; a table comes from
`_table`, and `solve`, `structure` and `sampling` write their result
through `_emit`, as JSON or text.  Only `main` turns an error into its
`error:` line and exit code.  `check` prints a witness on stdout, as
the witness is its result; every other command reports an invalid
input on stderr as "error: input failed validation: <witness>".  A
halfplane subset whose region is empty is such a witness.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

from .algorithms import (
    IterationGuardExceeded,
    NoBasisFound,
    Rng,
    basis1,
    basis2,
    sampling_check,
    trivial,
)
from .core import ConstraintSet, SolveStats, ViolationOracle, _bits
from .explicit import (
    EXHAUSTIVE_WARN_N, ExplicitViolatorSpace, check_table_size, check_tabulation_size,
    tabulate_oracle,
)
from .fileio import (
    ParseError,
    explicit_to_dict,
    load_path,
    uso_to_dict,
)
from .grid_uso import (
    EdgeConsistencyError,
    GenerationExhausted,
    GridPartition,
    combed_random_uso,
    coordinate_order_oracle,
    coordinate_order_uso,
    cyclic_cube_uso,
    random_uso,
    uso_oracle,
    validate_uso,
)
from .instances import InfeasibleRegion, Lp2dOracle, MiniballOracle

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_SIZE = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, out: Optional[str]) -> None:
    _write(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", out)


def _emit(args, payload: dict, lines: List[str]) -> int:
    """Write a command's result: the payload as JSON under --format json,
    otherwise the text lines."""
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


class CheckFailed(Exception):
    """An input failed its axiom or USO validation; carries the witness."""


def _validate(kind: str, obj) -> None:
    """Check a loaded file the way its kind calls for; a failure raises
    CheckFailed with the witness.  Concrete problems and geometric
    instances are valid by construction."""
    if kind == "explicit" and obj.n > EXHAUSTIVE_WARN_N:
        sys.stderr.write(
            f"warning: exhaustive axiom check over n={obj.n} subsets is slow\n"
        )
    if kind in ("explicit", "abstract"):
        witness, names = obj.check_axioms(), obj.names
    elif kind == "uso":
        witness, names = validate_uso(obj[0]), obj[1]
    else:
        return
    if witness is not None:
        raise CheckFailed(witness.describe(names))


# the oracle each kind of live input opens as
LIVE_ORACLES = {"uso": uso_oracle, "points": MiniballOracle, "halfplanes": Lp2dOracle}


def _open(kind: str, obj):
    """Validate a file `load_path` returned, then open a live input as its
    oracle; a table file stays as loaded.  It takes the loaded file, not
    its path, so that `uso tabulate` can check the kind first."""
    _validate(kind, obj)
    if kind in LIVE_ORACLES:
        instance, names = obj
        obj = LIVE_ORACLES[kind](instance, names=names)
    return kind, obj


def _table(kind: str, obj) -> ExplicitViolatorSpace:
    """The checked violator table of an opened file; a live input's oracle
    is tabulated and checked here, and a failure raises CheckFailed."""
    if kind == "explicit":
        return obj
    if kind == "abstract":
        return obj.violator_map()
    if kind == "concrete":
        return obj.to_abstract().violator_map()
    space = tabulate_oracle(obj)
    _validate("explicit", space)
    return space


def _oracle(kind: str, obj, delta: Optional[int]) -> ViolationOracle:
    """The violation oracle of an opened file, with --delta applied."""
    if kind not in LIVE_ORACLES:
        return _table(kind, obj).oracle(delta=delta)
    if delta is not None:
        obj.delta = delta
    return obj


# -- check -------------------------------------------------------------


def cmd_check(args) -> int:
    """Validate a file.  A witness is this command's result, so unlike
    every other command it goes to stdout."""
    try:
        kind, obj = _open(*load_path(args.path))
        if kind in ("points", "halfplanes") and obj.n > EXHAUSTIVE_WARN_N:
            print(f"ok: parsed {kind} instance with n={obj.n} (too large to tabulate)")
            return EXIT_OK
        # a USO passed its own check when it was opened
        if kind != "uso":
            space = _table(kind, obj)
    except EdgeConsistencyError as exc:
        print(f"edge consistency violated: {exc}")
        return EXIT_WITNESS
    except (CheckFailed, InfeasibleRegion) as exc:
        print(exc)
        return EXIT_WITNESS

    if kind == "explicit":
        print(f"ok: violator space over n={obj.n} satisfies both axioms")
    elif kind == "abstract":
        print(f"ok: value table over n={obj.n} is monotone and local")
    elif kind == "concrete":
        print(
            f"ok: concrete problem with {len(obj.points)} points and"
            f" {obj.n} constraints"
        )
    elif kind == "uso":
        print(f"ok: unique-sink orientation over n={obj.n}, {obj.delta} blocks")
    else:
        print(f"ok: tabulated {kind} instance over n={space.n} satisfies both axioms")
    return EXIT_OK


# -- solve -------------------------------------------------------------


# every --algo choice, in the order usage lists them
ALGORITHMS = {"trivial": trivial, "clarkson1": basis1, "clarkson2": basis2, "auto": basis1}


def _run_algorithm(
    oracle: ViolationOracle, algo: str, rng: Rng
) -> Tuple[ConstraintSet, SolveStats]:
    return ALGORITHMS[algo](oracle, oracle.ground_set(), rng)


def _parse_algos(text: str) -> List[str]:
    algos = [a.strip() for a in text.split(",") if a.strip()]
    if not algos or any(a not in ALGORITHMS for a in algos):
        raise argparse.ArgumentTypeError(
            f"bad algorithm list {text!r}; choose from {', '.join(ALGORITHMS)}"
        )
    return algos


def cmd_solve(args) -> int:
    kind, obj = _open(*load_path(args.path))
    oracle = _oracle(kind, obj, args.delta)
    basis, stats = _run_algorithm(oracle, args.algo, Rng(args.seed))
    names = oracle.names
    payload = {
        "instance": args.path,
        "kind": kind,
        "n": oracle.n,
        "delta": oracle.delta,
        "algorithm": args.algo,
        "seed": args.seed,
        "basis": [names[h] for h in basis],
        "stats": asdict(stats),
    }
    if hasattr(oracle, "edge_evals"):
        payload["edge_evals"] = oracle.edge_evals
    lines = [
        f"instance: {args.path} ({kind}, n={oracle.n}, delta={oracle.delta})",
        f"algorithm: {args.algo}",
        f"seed: {args.seed}",
        f"basis: {{{', '.join(payload['basis'])}}}",
    ]
    for key, value in payload["stats"].items():
        if key != "rng_seed":
            lines.append(f"{key}: {value}")
    if "edge_evals" in payload:
        lines.append(f"edge_evals: {payload['edge_evals']}")
    return _emit(args, payload, lines)


# -- structure ---------------------------------------------------------


def cmd_structure(args) -> int:
    kind, obj = load_path(args.path)
    # an explicit file is a table already; only derived tables are
    # guarded, before the file is validated or a table is built
    n = len(obj[1]) if kind in LIVE_ORACLES else obj.n
    if kind != "explicit" and n > EXHAUSTIVE_WARN_N:
        raise ValueError(
            f"structure needs a table; n={n} exceeds"
            f" the n <= {EXHAUSTIVE_WARN_N} tabulation guard"
        )
    space = _table(*_open(kind, obj))
    st = space.structure()
    names = space.names
    labels = st.class_labels()

    payload = {
        "instance": args.path,
        "n": space.n,
        "combinatorial_dimension": max(len(b) for b in st.bases),
        "bases": [b.label(names).replace(",", "") for b in st.bases],
        "classes": [
            {
                "label": labels[i],
                "members": [m.label(names).replace(",", "") for m in cls.members],
                "violators": cls.violators.label(names),
            }
            for i, cls in enumerate(st.classes)
        ],
        "acyclic": st.acyclic,
    }
    if st.acyclic:
        payload["linear_extension"] = [labels[i] for i in st.linear_extension]
        concrete = space.to_concrete()
        payload["s_table"] = {
            name: [concrete.points[p] for p in s]
            for name, s in zip(concrete.names, concrete.constraints)
        }
    else:
        payload["cycle"] = [labels[i] for i in st.cycle]
    lines = [
        f"instance: {args.path} (n={space.n})",
        f"combinatorial dimension: {payload['combinatorial_dimension']}",
        f"bases ({len(st.bases)}): {' '.join(payload['bases'])}",
        f"classes ({len(st.classes)}): {' '.join(labels)}",
        f"acyclic: {'yes' if st.acyclic else 'no'}",
    ]
    if st.acyclic:
        lines.append("linear extension: " + " < ".join(payload["linear_extension"]))
        lines.append("concretization:")
        for name, s in payload["s_table"].items():
            lines.append(f"  S({name}) = {{{', '.join(s)}}}")
    else:
        cyc = payload["cycle"] + [payload["cycle"][0]]
        lines.append("cycle: " + " <=0 ".join(cyc))
    return _emit(args, payload, lines)


# -- uso ---------------------------------------------------------------


def cmd_uso_generate(args) -> int:
    if args.kind == "cyclic-cube":
        u = cyclic_cube_uso()
    else:
        partition = GridPartition.uniform(args.blocks)
        rng = Rng(args.seed)
        if args.kind == "coordinate":
            rankings = [rng.subset(list(b), len(b)) for b in partition.blocks]
            u = coordinate_order_uso(partition, rankings)
        else:
            try:
                u = random_uso(partition, rng)
            except GenerationExhausted as exc:
                sys.stderr.write(
                    f"warning: {exc}; writing a combed random USO instead\n"
                )
                u = combed_random_uso(partition, rng)
    _emit_json(uso_to_dict(u), args.out)
    return EXIT_OK


def cmd_uso_tabulate(args) -> int:
    # reject other kinds, and grids too large to tabulate, before
    # validating anything
    kind, obj = load_path(args.path)
    if kind != "uso":
        raise ParseError(f"{args.path} is not a USO file")
    check_tabulation_size(obj[0].n)
    _, oracle = _open(kind, obj)
    # the tabulated table of a valid USO is valid: it is not re-checked
    _emit_json(explicit_to_dict(tabulate_oracle(oracle)), args.out)
    return EXIT_OK


# -- bench -------------------------------------------------------------


def _parse_sizes(text: str) -> List[int]:
    try:
        sizes = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _uniform_blocks(n: int, delta: int) -> List[int]:
    base = n // delta
    sizes = [base + (1 if i < n % delta else 0) for i in range(delta)]
    if any(s < 1 for s in sizes):
        raise ValueError(f"cannot split n={n} into {delta} nonempty blocks")
    return sizes


def cmd_bench(args) -> int:
    rows = ["n,delta,algo,mean_primitive_calls,mean_loop_iterations,trials,seed"]
    root = Rng(args.seed)
    for n in args.sizes:
        partition = GridPartition.uniform(_uniform_blocks(n, args.delta))
        for algo in args.algos:
            total_calls = 0
            total_iters = 0
            for trial in range(args.trials):
                # same instance and randomness for every algorithm
                trial_rng = root.spawn(n, trial)
                rankings = [
                    trial_rng.subset(list(b), len(b)) for b in partition.blocks
                ]
                oracle = coordinate_order_oracle(partition, rankings)
                _, stats = _run_algorithm(oracle, algo, trial_rng)
                total_calls += stats.primitive_calls
                total_iters += stats.loop_iterations
            rows.append(
                f"{n},{args.delta},{algo},{total_calls / args.trials!r},"
                f"{total_iters / args.trials!r},{args.trials},{args.seed}"
            )
    _write("\n".join(rows) + "\n", args.out)
    return EXIT_OK


# -- sampling ----------------------------------------------------------


def cmd_sampling(args) -> int:
    kind, obj = _open(*load_path(args.path))
    oracle = _oracle(kind, obj, args.delta)
    W = ConstraintSet.empty(oracle.n)
    if args.w:
        index = {name: i for i, name in enumerate(oracle.names)}
        for name in args.w.split(","):
            name = name.strip()
            if name not in index:
                raise ParseError(f"unknown constraint name {name!r}")
            W = W.add(index[name])
    if not 0 <= args.r < oracle.n:
        raise ParseError(f"need 0 <= r < n={oracle.n}")
    report = sampling_check(oracle, W, args.r, args.trials, Rng(args.seed))
    payload = {"instance": args.path, "kind": kind, "n": oracle.n,
               "delta": oracle.delta, **asdict(report)}
    lines = [
        f"instance: {args.path} ({kind}, n={oracle.n}, delta={oracle.delta})",
        f"r: {report.r}",
        f"trials: {report.trials}",
        f"seed: {report.seed}",
        f"mean violators: {report.mean!r}",
        f"bound: {report.bound!r}",
        f"stddev: {report.stddev!r}",
        f"passed: {'yes' if report.passed else 'no'}",
    ]
    return _emit(args, payload, lines)


# -- probe -------------------------------------------------------------


def _probe_candidate(rng: Rng, n: int):
    """One search step: a random consistency-respecting table pushed
    towards locality by a repair pass, then verified.  The pass visits G
    in mask order and sets V(G) to V(F) for the numerically least proper
    subset F of G with G disjoint from V(F), if any.  Every V(F) it
    reads is final by then, so a second pass would change nothing."""
    size = 1 << n
    table = []
    for g in range(size):
        v = 0
        for h in _bits(~g & (size - 1)):
            if rng.randbelow(2):
                v |= 1 << h
        table.append(v)
    for g in range(size):
        f = 0
        while f != g:
            if g & table[f] == 0:
                table[g] = table[f]
                break
            f = (f - g) & g
    space = ExplicitViolatorSpace(n, table)
    return space if space.check_axioms() is None else None


def cmd_probe(args) -> int:
    """Random search for a cyclic violator space of dimension two.

    Whether one exists is open; the probe reports what it saw and
    claims nothing.  Cyclic spaces of higher dimension do turn up.
    """
    check_table_size("explicit", args.n)
    rng = Rng(args.seed)
    valid = 0
    dim2 = 0
    cyclic_any = 0
    found = None
    for _ in range(args.attempts):
        space = _probe_candidate(rng, args.n)
        if space is None:
            continue
        valid += 1
        st = space.structure()
        dim = max(len(b) for b in st.bases)
        acyclic = st.acyclic
        if not acyclic:
            cyclic_any += 1
        if dim != 2:
            continue
        dim2 += 1
        if not acyclic:
            found = space
            break
    print(f"attempts: {args.attempts}")
    print(f"valid violator spaces: {valid}")
    print(f"dimension-2 spaces: {dim2}")
    print(f"cyclic spaces of any dimension: {cyclic_any}")
    if found is None:
        print("cyclic dimension-2 space: none found")
        return EXIT_OK
    print("cyclic dimension-2 space FOUND:")
    _emit_json(explicit_to_dict(found), args.out)
    return EXIT_OK


# -- wiring ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `vspace` parser, built once per process: argparse builds a
    formatter and translates help text for every argument it adds."""
    parser = argparse.ArgumentParser(
        prog="vspace",
        description=(
            "Check, analyze, solve, and benchmark violator-space instances:"
            " explicit tables, point sets (smallest enclosing ball),"
            " halfplane LPs, and grid unique-sink orientations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a file against its axioms")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="find a basis of the full ground set")
    p.add_argument("path")
    p.add_argument("--algo", default="auto",
                   choices=list(ALGORITHMS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--delta", type=_positive_int, default=None)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("structure", help="bases, classes, ordering, concretization")
    p.add_argument("path")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("uso", help="generate or tabulate grid USOs")
    usub = p.add_subparsers(dest="action", required=True)
    pg = usub.add_parser("generate", help="emit a USO as JSON")
    pg.add_argument("--blocks", type=_parse_sizes, default="2,2,2",
                    help="comma-separated block sizes, e.g. 3,2,2")
    pg.add_argument("--kind", default="coordinate",
                    choices=["coordinate", "random", "cyclic-cube"])
    pg.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_uso_generate)
    pt = usub.add_parser("tabulate", help="emit the induced violator table")
    pt.add_argument("path")
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_uso_tabulate)

    p = sub.add_parser("bench", help="benchmark algorithms on grid USOs")
    p.add_argument("--delta", type=_positive_int, default=2)
    p.add_argument("--sizes", type=_parse_sizes, default="64,128,256")
    p.add_argument("--algos", type=_parse_algos, default="clarkson1,clarkson2")
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sampling", help="Monte-Carlo check of the expected"
                                        " violator-count bound")
    p.add_argument("path")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--delta", type=_positive_int, default=None)
    p.add_argument("--w", default="",
                   help="comma-separated names for the fixed set W")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sampling)

    p = sub.add_parser("probe", help="random search for a cyclic"
                                     " dimension-2 violator space")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--attempts", type=_positive_int, default=2000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (NoBasisFound, IterationGuardExceeded) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_SOLVER
    except (CheckFailed, EdgeConsistencyError, InfeasibleRegion) as exc:
        sys.stderr.write(f"error: input failed validation: {exc}\n")
        return EXIT_WITNESS
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SIZE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
