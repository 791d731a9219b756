"""Byte-identical CLI output of the geometric commands and table files.

`golden/cli_matrix.json` holds the exit code, stdout and stderr of
`check`, `structure`, `solve` (every --algo, two seeds, text and JSON)
and `sampling` on the point and halfplane fixtures, on seeded 1D, 2D,
3D, 300-point, 12- and 70-halfplane and infeasible CSVs, and on a 2D
set of repeated, collinear, right-angled and cocircular points (the
closed-form small balls' boundary cases).  A kernel that
returns the same balls and optima, and raises the same errors, leaves
every byte of it unchanged.

It also holds `check`, `structure` (text and JSON), `uso tabulate` and
`probe --out` on the table fixtures and on seeded explicit, abstract,
concrete and USO files, some keyed in non-canonical member order, with
the text each `--out` wrote: corrupted tables exit 1, and documents
with an unknown, comma-holding, empty, non-string or duplicate name, a
repeated or a missing key exit 2 with their parse error.

Last, it holds `solve` (every --algo, two seeds, text and JSON) on the
cyclic cube, a 3x2x2 and a 4x4x3 coordinate-order USO, whose base
cases run the oracle's sink scans: their `edge_evals` must not move.
The same rows on a 40-member one-block USO run Clarkson's stages and
weighted draws, on an 11x11 USO validation past 16 members, on a
4-cube USO the walk's fallback scan, and on a cyclic 20x2x2x2 USO a
base case whose chase meets a basis twice.

It also holds `solve` (every --algo, two seeds, text and JSON) on a
concrete, an abstract and an explicit file, which runs each file's
violator table through its table oracle, and `uso generate` of every
kind.  At the end come two `bench` runs on lazy coordinate-order
USOs, which reach Clarkson's stages, and two solves with a --delta too
small for any basis, which exit 3.

Last come the commands that end in an error: `check`, `structure` and
`solve` on value tables failing monotonicity or locality (exit 1), a
17-constraint `structure` and a 25-constraint `check` (exit 4), an
unknown `--w` name, `--r` equal to n, `uso tabulate` on a table file, a
USO file keying one vertex twice, a concrete file with boolean point
indices, JSON files whose top level is an array, a USO file whose block
names are not strings, an explicit file with a boolean member, an
explicit file whose violators are a list, a USO file with a string
outmap entry, a USO file missing a vertex or listing a member of a
vertex in its outmap, an abstract order repeating a token and concrete
files with a repeated or a reserved point label (exit 2), and a USO
grid past the dense-outmap guard and `bench` with more blocks than
members (exit 4), `check` on an 11x11 USO with one edge reversed
(exit 1) and on a 12x11 USO past the validation budget (exit 4),
`check` on abstract files whose values are a list, whose order holds a
number or misses a value, and on a CSV of empty header cells (exit 2),
and `check`, `solve` and `structure` on halfplane files whose region
is empty (exit 1).
`golden/regenerate.py` rewrites it.
"""

import json

import pytest

from conftest import FIXTURES
from golden.regenerate import (
    MATRIX,
    SLICES,
    bench_commands,
    commands,
    error_commands,
    generate_commands,
    geometric_commands,
    no_basis_commands,
    run,
    table_commands,
    table_solve_commands,
    uso_commands,
)


@pytest.fixture
def matrix(monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    rows = json.loads(MATRIX.read_text(encoding="utf-8"))
    assert [row["argv"] for row in rows] == list(commands())
    return rows


def _replay(rows, part):
    """Replay the rows of one slice of the matrix."""
    start = sum(len(list(earlier())) for earlier in SLICES[:SLICES.index(part)])
    for row in rows[start:start + len(list(part()))]:
        assert {"argv": row["argv"], **run(row["argv"])} == row, row["argv"]


def test_geometric_commands_match_the_golden_matrix(matrix):
    _replay(matrix, geometric_commands)


def test_table_commands_match_the_golden_matrix(matrix):
    _replay(matrix, table_commands)


def test_uso_solves_match_the_golden_matrix(matrix):
    _replay(matrix, uso_commands)


def test_table_solves_match_the_golden_matrix(matrix):
    _replay(matrix, table_solve_commands)


def test_uso_generation_matches_the_golden_matrix(matrix):
    _replay(matrix, generate_commands)


def test_bench_runs_match_the_golden_matrix(matrix):
    _replay(matrix, bench_commands)


def test_solves_without_a_basis_match_the_golden_matrix(matrix):
    _replay(matrix, no_basis_commands)


def test_error_commands_match_the_golden_matrix(matrix):
    _replay(matrix, error_commands)
