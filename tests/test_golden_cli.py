"""Byte-identical CLI output of the geometric commands.

`golden/cli_matrix.json` holds the exit code, stdout and stderr of
`check`, `structure`, `solve` (every --algo, two seeds, text and JSON)
and `sampling` on the point and halfplane fixtures, on seeded 1D, 2D,
3D, 300-point, 12- and 70-halfplane and infeasible CSVs, and on a 2D
set of repeated, collinear, right-angled and cocircular points (the
closed-form small balls' boundary cases).  A kernel that
returns the same balls and optima, and raises the same errors, leaves
every byte of it unchanged.  `golden/regenerate.py` rewrites it.
"""

import json

from conftest import FIXTURES
from golden.regenerate import MATRIX, commands, run


def test_geometric_commands_match_the_golden_matrix(monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    expected = json.loads(MATRIX.read_text(encoding="utf-8"))
    assert [row["argv"] for row in expected] == list(commands())
    for row in expected:
        code, out, err = run(row["argv"])
        assert (code, out, err) == (row["code"], row["stdout"], row["stderr"]), row["argv"]
