"""Write the golden CLI matrix of the geometric commands.

    PYTHONPATH=src python tests/golden/regenerate.py

Run from the root of a source checkout.  It writes the seeded input
CSVs next to this file, runs every command of the matrix through
`vspace`'s `main` and records its exit code, stdout and stderr in
`cli_matrix.json`; `tests/test_golden_cli.py` replays the matrix and
requires byte-identical output.  Regenerate only when the output is
meant to change, and say why in the change that does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MATRIX = HERE / "cli_matrix.json"
INPUTS = HERE.relative_to(ROOT).as_posix()

SEEDS = (1729, 7)
ALGOS = ("trivial", "clarkson1", "clarkson2", "auto")


def _rational(rnd: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rnd.randint(lo, hi), rnd.randint(1, 6))


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _points(seed: int, n: int, d: int) -> str:
    """n points with p/q coordinates, a few of them repeated."""
    rnd = random.Random(seed)
    rows = []
    for i in range(n):
        if rows and rnd.random() < 0.1:
            rows.append([f"p{i}"] + rnd.choice(rows)[1:])
        else:
            rows.append([f"p{i}"] + [_rational(rnd, -40, 40) for _ in range(d)])
    return _csv("name," + ",".join("xyz"[:d]), rows)


def _halfplanes(seed: int, n: int) -> str:
    """n halfplanes that all hold at (5/2, 4/3), so every subset is
    feasible over the positive orthant and bounded.  Every third row
    passes through (3, 2) when that keeps (5/2, 4/3) inside, and some
    rows repeat the normal before them, so boundary lines meet in one
    point and run parallel."""
    rnd = random.Random(seed)
    rows = []
    while len(rows) < n:
        a, b = _rational(rnd, -5, 5), _rational(rnd, -5, 5)
        if a == 0 and b == 0:
            continue
        if rows and rnd.random() < 0.2:
            a, b = rows[-1][1], rows[-1][2]
        slack = a * 3 + b * 2 if len(rows) % 3 == 0 else None
        inner = a * Fraction(5, 2) + b * Fraction(4, 3)
        c = slack if slack is not None and slack >= inner else inner + _rational(rnd, 0, 9)
        rows.append([f"h{len(rows)}", a, b, c])
    return _csv("name,a,b,c", rows)


def _degenerate() -> str:
    """2D points on the circle x**2 + y**2 = 25 with three antipodal
    pairs, so their triangles have a right angle on the circle; one of
    them repeated; and the centre and (2, 0), collinear with (-5, 0)
    and (5, 0) and making a right angle with (0, 5) at the centre."""
    rows = [(5, 0), (-5, 0), (3, 4), (-3, -4), (0, 5), (4, -3), (-4, 3), (3, 4),
            (0, 0), (2, 0)]
    return _csv("name,x,y", [[f"p{i}", x, y] for i, (x, y) in enumerate(rows)])


def _infeasible() -> str:
    # the last row, x <= -1/2, leaves the positive orthant empty
    return _csv("name,a,b,c", [["f", 1, 1, 6], ["g", -1, 2, 4], ["h", 1, -3, 2],
                                ["bad", 1, 0, Fraction(-1, 2)]])


GENERATED = {
    "points_2d.csv": lambda: _points(21, 10, 2),
    "points_3d.csv": lambda: _points(31, 8, 3),
    "points_300.csv": lambda: _points(300, 300, 2),
    "halfplanes_12.csv": lambda: _halfplanes(12, 12),
    "halfplanes_70.csv": lambda: _halfplanes(70, 70),
    "infeasible.csv": _infeasible,
    "points_1d.csv": lambda: _points(11, 10, 1),
    "points_3d_10.csv": lambda: _points(33, 10, 3),
    "points_degenerate.csv": _degenerate,
}

INSTANCES = [
    ("fixtures/square.csv", 4),
    ("fixtures/lp_figure4.csv", 4),
    ("fixtures/lp_figure5.csv", 4),
    (f"{INPUTS}/points_2d.csv", 10),
    (f"{INPUTS}/points_3d.csv", 8),
    (f"{INPUTS}/points_300.csv", 300),
    (f"{INPUTS}/halfplanes_12.csv", 12),
    (f"{INPUTS}/halfplanes_70.csv", 70),
    (f"{INPUTS}/infeasible.csv", 4),
    (f"{INPUTS}/points_1d.csv", 10),
    (f"{INPUTS}/points_3d_10.csv", 10),
    (f"{INPUTS}/points_degenerate.csv", 10),
]
# A solve on the 300-point set spends 0.4 to 1.6 s in its base case, so
# that set is solved by one algorithm and seed only; the rest of its
# matrix is sampling, the path that solves sets of 150 points.
LARGE = f"{INPUTS}/points_300.csv"


def commands():
    """Every argv of the matrix, in order."""
    for path, n in INSTANCES:
        yield ["check", path]
        for fmt in ("text", "json") if n <= 8 else ("text",):
            yield ["structure", path, "--format", fmt]
        for algo in ("clarkson1",) if path == LARGE else ALGOS:
            for seed in SEEDS[:1] if path == LARGE else SEEDS:
                for fmt in ("text", "json"):
                    yield ["solve", path, "--algo", algo, "--seed", str(seed), "--format", fmt]
        trials = "200" if n <= 12 else "10"
        for fmt in ("text", "json"):
            yield ["sampling", path, "--r", str(n // 2), "--trials", trials, "--format", fmt]


def run(argv):
    """(exit code, stdout, stderr) of one `vspace` command."""
    from violator_spaces.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_inputs() -> None:
    for name, make in GENERATED.items():
        (HERE / name).write_text(make(), encoding="utf-8")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    write_inputs()
    rows = []
    for argv in commands():
        code, out, err = run(argv)
        rows.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    MATRIX.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} commands to {MATRIX.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
