"""Spans at the library's layer boundaries, installed from outside.

The tracer replaces public functions and oracle methods of each module
with timing wrappers for the duration of one operation, then puts the
originals back, so untraced operations run the library untouched.

A span records its name, start, end, self time and the span that caused
it.  Layers that run once or a few times per operation (the stages, the
base case, the table pipeline, file I/O, the CLI) are kept as spans.
The hot leaves (violation tests, exact solves, cache lookups, random
draws) are folded into their nearest kept ancestor as a count and a
total, which keeps a trace of a long run to a few megabytes.  Self time
is a span's duration minus the time its child frames cover, folded or
not.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Dict, List

VIOLATES = "core.violates"
TRIVIAL = "trivial_basis"
LOOKUP = "instances.lookup"
EXACT = "instances.exact_solve"

# (module, owner attribute or None, function name, span name, kept as a span)
TARGETS = [
    ("core", "ViolationOracle", "violates", VIOLATES, False),
    ("grid_uso", "OutmapOracle", "_violates", "grid_uso.violates", False),
    ("instances", "MiniballOracle", "_violates", "instances.violates", False),
    ("instances", "Lp2dOracle", "_violates", "instances.violates", False),
    ("instances", "MiniballOracle", "ball_of", LOOKUP, False),
    ("instances", "Lp2dOracle", "optimum_of", LOOKUP, False),
    ("instances", None, "smallest_enclosing_ball", EXACT, False),
    ("instances", None, "_lex_optimum", EXACT, False),
    ("algorithms", "Rng", "subset", "rng.draw", False),
    ("algorithms", "Rng", "weighted_support", "rng.draw", False),
    ("algorithms", None, "trivial_basis", TRIVIAL, True),
    ("algorithms", None, "_basis1", "basis1", True),
    ("algorithms", None, "_basis2", "basis2", True),
    ("algorithms", None, "sampling_check", "sampling_check", True),
    ("explicit", None, "tabulate_oracle", "explicit.tabulate", True),
    ("explicit", "ExplicitViolatorSpace", "check_axioms", "explicit.check_axioms", True),
    ("explicit", "AbstractLpTable", "check_axioms", "explicit.check_axioms", True),
    ("explicit", "ExplicitViolatorSpace", "structure", "explicit.structure", True),
    ("explicit", "ExplicitViolatorSpace", "to_concrete", "explicit.round_trip", True),
    ("explicit", "ConcreteLpProblem", "to_abstract", "explicit.round_trip", True),
    ("explicit", "AbstractLpTable", "violator_map", "explicit.round_trip", True),
    ("fileio", None, "load_text", "fileio.load", True),
    ("fileio", None, "load_path", "fileio.load", True),
    ("fileio", None, "explicit_to_dict", "fileio.dump", True),
    ("fileio", None, "abstract_to_dict", "fileio.dump", True),
    ("fileio", None, "concrete_to_dict", "fileio.dump", True),
    ("cli", None, "main", "cli", True),
]


class Tracer:
    def __init__(self, package) -> None:
        self._now = time.perf_counter_ns
        self.stack: List[list] = []  # [name, start, child_ns, span id of self or nearest kept ancestor, kept]
        self.spans: List[dict] = []
        self.totals: Dict[str, List[int]] = {}  # name -> [count, total_ns, self_ns]
        self.pairs: Counter = Counter()  # (name, parent name) -> count
        self.violates_in_trivial = 0
        self.trivial_depth = 0
        self.distinct_sets = 0
        self._seen_sets: set = set()
        self._op = -1
        self._patches = self._plan(package)

    # -- installation ------------------------------------------------------

    def _plan(self, package):
        """(holder, attribute, original, wrapper) for every place a target
        is reachable, including names other modules imported from it."""
        modules = [package] + [
            getattr(package, m) for m in ("core", "algorithms", "explicit", "fileio",
                                          "grid_uso", "instances", "cli")
        ]
        patches = []
        for mod_name, owner, attr, name, kept in TARGETS:
            mod = getattr(package, mod_name)
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original, self._wrap(original, name, kept)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, kept)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original, wrapper))
        return patches

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    # -- frames ------------------------------------------------------------

    def _wrap(self, fn, name: str, kept: bool):
        tracer = self
        lookup = name == LOOKUP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if lookup:
                key = (id(args[0]), args[1].mask)
                if key not in tracer._seen_sets:
                    tracer._seen_sets.add(key)
                    tracer.distinct_sets += 1
            tracer.enter(name, kept)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def enter(self, name: str, kept: bool) -> None:
        stack = self.stack
        parent = stack[-1] if stack else None
        self.pairs[(name, parent[0] if parent else None)] += 1
        if name == VIOLATES and self.trivial_depth:
            self.violates_in_trivial += 1
        elif name == TRIVIAL:
            self.trivial_depth += 1
        anchor = parent[3] if parent else None
        if kept:
            span = {"span": len(self.spans), "parent": anchor, "op": self._op,
                    "name": name, "folded": {}}
            self.spans.append(span)
            anchor = span["span"]
        stack.append([name, self._now(), 0, anchor, kept])

    def exit(self) -> None:
        end = self._now()
        name, start, child, anchor, kept = self.stack.pop()
        dur = end - start
        own = dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if name == TRIVIAL:
            self.trivial_depth -= 1
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += own
        if anchor is None:
            return
        span = self.spans[anchor]
        if kept:
            span["start_ns"], span["end_ns"], span["self_ns"] = start, end, own
        else:
            folded = span["folded"].setdefault(name, [0, 0])
            folded[0] += 1
            folded[1] += dur

    @contextlib.contextmanager
    def operation(self, index: int, label: str):
        """One traced operation under a root span named "op"."""
        self._op = index
        self._seen_sets = set()
        self.install()
        self.enter("op", True)
        self.spans[-1]["label"] = label
        try:
            yield
        finally:
            self.exit()
            self.uninstall()

    def count(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int, counters: Counter, overhead: float) -> Dict[str, float]:
        """Per-operation figures for each layer, averaged over `ops`."""
        def count(name):
            return self.totals.get(name, [0, 0, 0])[0] / ops

        def total_ms(name):
            return self.totals.get(name, [0, 0, 0])[1] / 1e6 / ops

        def self_ms(*names):
            return sum(self.totals.get(n, [0, 0, 0])[2] for n in names) / 1e6 / ops

        lookups = self.count(LOOKUP)
        missed = self.pairs[(EXACT, LOOKUP)]
        violates = self.count(VIOLATES)
        return {
            "core.violates.calls": count(VIOLATES),
            "core.violates.self_ms": self_ms(VIOLATES),
            "grid_uso.violates.self_ms": self_ms("grid_uso.violates"),
            "grid_uso.edge_evals": counters["edge_evals"] / ops,
            "instances.violates.self_ms": self_ms("instances.violates", LOOKUP),
            "instances.exact_solve.calls": count(EXACT),
            "instances.exact_solve.ms": total_ms(EXACT),
            "instances.cache_hit_ratio": (lookups - missed) / lookups if lookups else 0.0,
            "instances.distinct_sets": self.distinct_sets / ops,
            "trivial_basis.calls": count(TRIVIAL),
            "trivial_basis.self_ms": self_ms(TRIVIAL),
            "trivial_basis.call_share": self.violates_in_trivial / violates if violates else 0.0,
            "basis1.iterations": self.pairs[("rng.draw", "basis1")] / ops,
            "basis1.augmentations": counters["w_augmentations"] / ops,
            "basis1.self_ms": self_ms("basis1"),
            "basis2.iterations": self.pairs[("rng.draw", "basis2")] / ops,
            "basis2.reweights": counters["reweight_iterations"] / ops,
            "basis2.self_ms": self_ms("basis2"),
            "rng.draw_ms": total_ms("rng.draw"),
            "sampling_check.self_ms": self_ms("sampling_check"),
            "explicit.tabulate.self_ms": self_ms("explicit.tabulate"),
            "explicit.check_axioms_ms": self_ms("explicit.check_axioms"),
            "explicit.structure_ms": self_ms("explicit.structure"),
            "explicit.round_trip_ms": self_ms("explicit.round_trip"),
            "fileio.load_ms": self_ms("fileio.load"),
            "fileio.dump_ms": self_ms("fileio.dump"),
            "cli.self_ms": self_ms("cli"),
            "trace.overhead": overhead,
        }

    def write(self, path, header: dict, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "run", **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"kind": "summary", **summary}) + "\n")
