"""Write the golden CLI matrix: geometric commands, table files, USO
solves, table-file solves, USO generation, `bench`, solves that find
no basis, and commands that end in an error.

    PYTHONPATH=src python tests/golden/regenerate.py

Run from the root of a source checkout.  It writes the seeded input
CSVs and table files next to this file, runs every command of the
matrix through `vspace`'s `main` and records its exit code, stdout and
stderr in `cli_matrix.json`, plus the text of the file written by a
command whose `--out` is the placeholder `@out` (null if it wrote
none); `tests/test_golden_cli.py` replays the matrix and requires
byte-identical output.  Regenerate only when the output is meant to
change, and say why in the change that does.

The table files are built here from their own definitions, not by the
library's writers: a concrete problem's violator table, its value
table, coordinate-order grid USOs, broken documents for every
parse error of an explicit or abstract file, value tables that fail
monotonicity or locality, USO and concrete documents with a repeated
vertex key or boolean point indices, a USO document whose block names
are not strings, a concrete document too large for a full table, an
explicit document whose violators are a list, a USO document with a
string outmap entry, USO documents missing a vertex, listing a member
of a vertex in its outmap or past the dense-outmap guard, an abstract
document whose order repeats a token and concrete documents with a
repeated or a reserved point label, an 11x11 USO with one edge
reversed, a 12x11 USO past the validation budget, a 4-cube USO on
which the oracle's walk cycles, a cyclic 20x2x2x2 USO combed over that
cube's cycling face, on whose whole set the base case's chase meets a
basis twice, abstract documents whose values are a list, whose order
holds a number or misses a value, a CSV whose one row is a header of
empty cells, and two halfplane files whose region is empty.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
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


def _concrete(seed: int, n: int):
    """Points, n constraints over them, and the value rank of every
    subset: the least point of its intersection, m when it is empty."""
    rnd = random.Random(seed)
    m = rnd.randint(4, 8)
    constraints = [[p for p in range(m) if rnd.random() < 0.55] for _ in range(n)]
    masks = [sum(1 << p for p in c) for c in constraints]
    inter = [(1 << m) - 1] * (1 << n)
    for g in range(1, 1 << n):
        low = g & -g
        inter[g] = inter[g ^ low] & masks[low.bit_length() - 1]
    rank = [(x & -x).bit_length() - 1 if x else m for x in inter]
    return [f"x{p}" for p in range(m)], constraints, rank


def _violators(rank, n):
    """V(G): the h outside G whose addition raises the value."""
    return [sum(1 << h for h in range(n) if not g >> h & 1 and rank[g | 1 << h] > rank[g])
            for g in range(1 << n)]


def _members(mask: int, names):
    return [name for i, name in enumerate(names) if mask >> i & 1]


def _keyed(names, entries, order=None, seed=None):
    """(key, value) pairs over every subset; `order` "reversed" reverses
    the member order of keys and member lists, "shuffled" shuffles them
    and the entries with `seed`."""
    rnd = random.Random(seed)
    pairs = []
    for g, value in enumerate(entries):
        key = _members(g, names)
        if order == "reversed":
            key.reverse()
            value = value[::-1] if isinstance(value, list) else value
        elif order == "shuffled":
            rnd.shuffle(key)
            if isinstance(value, list):
                rnd.shuffle(value)
        pairs.append([",".join(key), value])
    if order == "shuffled":
        rnd.shuffle(pairs)
    return pairs


def _explicit(names, table, order=None, seed=None) -> dict:
    entries = [_members(v, names) for v in table]
    return {"names": names, "violators": dict(_keyed(names, entries, order, seed))}


def _concrete_explicit(seed, names, order=None) -> str:
    _, _, rank = _concrete(seed, len(names))
    return json.dumps(_explicit(names, _violators(rank, len(names)), order, seed))


def _concrete_abstract(seed, names, order=None) -> str:
    points, _, rank = _concrete(seed, len(names))
    tokens = points + ["+inf"]
    values = dict(_keyed(names, [tokens[r] for r in rank], order, seed))
    return json.dumps({"names": names, "values": values, "order": tokens})


def _concrete_file(seed, n) -> str:
    points, constraints, _ = _concrete(seed, n)
    return json.dumps({"points": points, "constraints": constraints,
                       "names": [f"k{i}" for i in range(n)]})


def _corrupt(axiom: str) -> str:
    """An 8-member table with one entry broken: V(G) meets G, or V(G)
    loses its lowest member."""
    names = [f"c{i}" for i in range(8)]
    _, _, rank = _concrete(81, 8)
    table = _violators(rank, 8)
    if axiom == "consistency":
        table[0b1011] |= 0b10
    else:
        g = next(g for g in range(1 << 8) if table[g] and bin(g).count("1") == 3)
        table[g] &= table[g] - 1
    return json.dumps(_explicit(names, table))


def _coordinate_uso(seed: int, sizes, flip=None) -> str:
    """A coordinate-order grid USO: every edge points to the element of
    lower rank in its block; `flip`, a vertex J and a member j outside
    it, names an edge {J, J with j in its block} to reverse."""
    rnd = random.Random(seed)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    rank = {}
    for b in blocks:
        for r, h in enumerate(rnd.sample(b, len(b))):
            rank[h] = r
    outmap = {J: {h for k, b in enumerate(blocks) for h in b if rank[h] < rank[J[k]]}
              for J in itertools.product(*blocks)}
    if flip:
        J, j = flip
        k = next(k for k, b in enumerate(blocks) if j in b)
        outmap[J] ^= {j}
        outmap[J[:k] + (j,) + J[k + 1:]] ^= {J[k]}
    return json.dumps({"blocks": [[f"u{h}" for h in b] for b in blocks],
                       "outmap": {",".join(f"u{h}" for h in J): [f"u{h}" for h in sorted(out)]
                                  for J, out in outmap.items()}})


# A 4-cube USO on which the oracle's round-robin walk cycles: on the
# face with block {4, 5} fixed to 4 it runs from 0,2,4,6 via 1, 3, 7, 0,
# 2 and 6 back to 0,2,4,6 and then answers from the product scan.
CYCLING_4CUBE = {
    "blocks": [["0", "1"], ["2", "3"], ["4", "5"], ["6", "7"]],
    "outmap": {
        "0,2,4,6": ["1", "3"], "0,2,4,7": ["5", "6"], "0,2,5,6": ["1", "3", "4"],
        "0,2,5,7": ["3", "6"], "0,3,4,6": ["5"], "0,3,4,7": ["2", "5", "6"],
        "0,3,5,6": ["1"], "0,3,5,7": ["1", "6"], "1,2,4,6": ["3", "5"],
        "1,2,4,7": ["0", "3", "6"], "1,2,5,6": [], "1,2,5,7": ["0", "3", "4", "6"],
        "1,3,4,6": ["0", "5", "7"], "1,3,4,7": ["0", "5"], "1,3,5,6": ["2"],
        "1,3,5,7": ["6"],
    },
}


def combed_cycling(seed: int, m: int):
    """Blocks and membership "j is in the outmap of J" of a cyclic grid
    USO with delta = 4.

    Block 0, members 0..m-1, is combed by a random ranking: each of its
    edges points to the lower rank.  Its layers are over the blocks
    {m, m+1}, {m+2, m+3} and {m+4, m+5}.  Each is the face of
    CYCLING_4CUBE with block {4, 5} fixed to 4, its three blocks
    permuted and its members swapped at random.  The lemma in
    `combed_random_uso`'s docstring makes the whole a USO."""
    rnd = random.Random(seed)
    rank = {h: r for r, h in enumerate(rnd.sample(range(m), m))}
    outmap = CYCLING_4CUBE["outmap"]
    layers = []
    for _ in range(m):
        # the cube blocks that grid blocks 1-3 stand for, and their swaps
        cube_blocks = rnd.sample((0, 1, 3), 3)
        swaps = [rnd.randrange(2) for _ in range(3)]
        layer = {}
        for bits in itertools.product((0, 1), repeat=3):
            cube = [0, 0, 4, 0]
            for c, bit, swap in zip(cube_blocks, bits, swaps):
                cube[c] = 2 * c + (bit ^ swap)
            out = {int(x) // 2 for x in outmap[",".join(map(str, cube))]}
            layer[bits] = [c in out for c in cube_blocks]
        layers.append(layer)
    blocks = [list(range(m))] + [[m + 2 * k, m + 2 * k + 1] for k in range(3)]

    def member(J, j):
        if j < m:
            return rank[j] < rank[J[0]]
        k = (j - m) // 2
        return j != J[k + 1] and layers[J[0]][tuple((x - m) & 1 for x in J[1:])][k]

    return blocks, member


def _combed_cycling_file(seed: int, m: int) -> str:
    blocks, member = combed_cycling(seed, m)
    n = m + 6
    return json.dumps({"blocks": [[f"u{h}" for h in b] for b in blocks],
                       "outmap": {",".join(f"u{h}" for h in J):
                                  [f"u{j}" for j in range(n) if member(J, j)]
                                  for J in itertools.product(*blocks)}})


_FGH = ["f", "g", "h"]


def _broken(edit) -> str:
    """The cyclic 3-element table of the fixtures, as a document, after
    `edit` changed it."""
    doc = _explicit(_FGH, [0b111, 0b100, 0b001, 0b100, 0b010, 0b010, 0b001, 0b000])
    edit(doc["violators"])
    return json.dumps(doc)


def _renamed(old, new):
    """An edit that moves the entry of key `old` to key `new`."""
    def edit(entries):
        entries[new] = entries.pop(old)
    return edit


def _set(key, value):
    return lambda entries: entries.__setitem__(key, value)


def _broken_abstract(edit) -> str:
    points, _, rank = _concrete(33, 3)
    tokens = points + ["+inf"]
    values = {",".join(_members(g, _FGH)): tokens[r] for g, r in enumerate(rank)}
    edit(values)
    return json.dumps({"names": _FGH, "values": values, "order": tokens})


# names where one is a prefix of others, so joined names can collide
PREFIXED = ["c1", "c10", "c2", "c12", "c3", "c21", "c4", "c5", "c6", "c7"]

TABLES = {
    "explicit_8.json": lambda: _concrete_explicit(8, [f"e{i}" for i in range(8)]),
    "explicit_10.json": lambda: _concrete_explicit(10, PREFIXED),
    "explicit_10_shuffled.json": lambda: _concrete_explicit(10, PREFIXED, "shuffled"),
    "explicit_9_reversed.json": lambda: _concrete_explicit(9, list("abcdefghi"), "reversed"),
    "abstract_6.json": lambda: _concrete_abstract(6, [f"w{i}" for i in range(6)]),
    "abstract_9_shuffled.json": lambda: _concrete_abstract(9, PREFIXED[:9], "shuffled"),
    "concrete_7.json": lambda: _concrete_file(7, 7),
    "concrete_10.json": lambda: _concrete_file(10, 10),
    "uso_3x2x2.json": lambda: _coordinate_uso(322, (3, 2, 2)),
    "corrupt_consistency.json": lambda: _corrupt("consistency"),
    "corrupt_locality.json": lambda: _corrupt("locality"),
    "bad_unknown_value.json": lambda: _broken(_set("f", ["zz"])),
    "bad_unknown_key.json": lambda: _broken(_renamed("f,g", "f,zz")),
    "bad_comma_value.json": lambda: _broken(_set("", ["f,g"])),
    "bad_comma_value_full.json": lambda: _broken(_set("", ["f,g,h"])),
    "bad_empty_value.json": lambda: _broken(_set("g", [""])),
    "bad_int_value.json": lambda: _broken(_set("g", [0])),
    "bad_value_type.json": lambda: _broken(_set("h", "f")),
    "bad_duplicate_value.json": lambda: _broken(_set("f,h", ["g", "g"])),
    "bad_duplicate_key.json": lambda: _broken(_renamed("g,h", "h,h")),
    "bad_repeated_key.json": lambda: _broken(_renamed("h", "g,f")),
    "bad_repeated_extra_key.json": lambda: _broken(_set("h,g", ["f"])),
    "bad_missing_key.json": lambda: _broken(lambda v: v.pop("f,h")),
    "bad_abstract_unknown_key.json": lambda: _broken_abstract(_renamed("g", "zz")),
    "bad_abstract_repeated_key.json": lambda: _broken_abstract(_renamed("f", "h,g")),
    "bad_abstract_missing_key.json": lambda: _broken_abstract(lambda v: v.pop("f,g,h")),
    "uso_cycling_4cube.json": lambda: json.dumps(CYCLING_4CUBE),
}


def _value_table(names, rule) -> str:
    """An abstract file whose value on G is rule(G), with G the set of
    member indices, over the tokens "0" < "1" < "2"."""
    values = {",".join(_members(g, names)): str(rule({i for i in range(len(names))
                                                      if g >> i & 1}))
              for g in range(1 << len(names))}
    return json.dumps({"names": names, "values": values, "order": ["0", "1", "2"]})


def _uso_repeated_vertex() -> str:
    """The 2x2 coordinate-order grid USO with its sink keyed twice, the
    second time in reversed member order and with a different outmap."""
    return ('{"blocks": [["1", "2"], ["3", "4"]], "outmap": {"1,3": [], "3,1": ["2"],'
            ' "1,4": ["3"], "2,3": ["1"], "2,4": ["1", "3"]}}')


# inputs of the error rows only, so that no earlier slice runs them
ERROR_INPUTS = {
    # |G| mod 3: the triples fall below the pairs inside them
    "corrupt_abstract_monotonicity.json": lambda: _value_table(list("abcd"), lambda G: len(G) % 3),
    # 1 on nonempty sets, 2 on those holding a and b: adding b raises
    # {a,c} but not {c}, which has the same value
    "corrupt_abstract_locality.json": lambda: _value_table(
        list("abcd"), lambda G: 2 if {0, 1} <= G else min(len(G), 1)),
    "concrete_17.json": lambda: _concrete_file(17, 17),
    "bad_uso_repeated_vertex.json": _uso_repeated_vertex,
    "bad_concrete_bool_index.json": lambda: json.dumps(
        {"points": ["x", "y"], "constraints": [[True], [0, False]]}),
    # JSON whose top level is an array, on one line and on several
    "bad_array_inline.json": lambda: "[1, 2]\n",
    "bad_array_lines.json": lambda: json.dumps([{"names": ["a"]}, 2], indent=1) + "\n",
    # a 2x2 coordinate-order USO whose block names are not strings,
    # keyed by the Python spellings of the names
    "bad_uso_int_names.json": lambda: json.dumps({
        "blocks": [[1, 2], [True, None]],
        "outmap": {"1,True": [], "1,None": ["True"], "2,True": ["1"],
                   "2,None": ["1", "True"]}}),
    "bad_bool_value.json": lambda: json.dumps(
        {"names": ["a"], "violators": {"": [True], "a": []}}),
    # one constraint more than a full table holds
    "bad_concrete_25.json": lambda: json.dumps(
        {"points": ["x0", "x1"], "constraints": [[h % 2] for h in range(25)]}),
    # the violators as a list of [key, members] pairs, not an object
    "bad_violators_list.json": lambda: json.dumps(
        {"names": ["a"], "violators": [["", ["a"]], ["a", []]]}),
    # a 1x2 grid whose source's outmap entry is a name, not a list
    "bad_uso_string_outmap.json": lambda: json.dumps(
        {"blocks": [["a"], ["b", "c"]], "outmap": {"a,b": "c", "a,c": []}}),
    # a 2x2 coordinate-order USO without its source b,d
    "bad_uso_missing_vertex.json": lambda: json.dumps(
        {"blocks": [["a", "b"], ["c", "d"]],
         "outmap": {"a,c": [], "a,d": ["c"], "b,c": ["a"]}}),
    # the same USO whose sink a,c lists its own member a
    "bad_uso_outmap_member.json": lambda: json.dumps(
        {"blocks": [["a", "b"], ["c", "d"]],
         "outmap": {"a,c": ["a"], "a,d": ["c"], "b,c": ["a"], "b,d": ["a", "c"]}}),
    # the 11x11 USO with the edge from u5,u16 to u9,u16 reversed: the
    # 2x2 subgrid u2,u5,u9,u16 has no sink
    "bad_uso_11x11_flipped.json": lambda: _coordinate_uso(1111, (11, 11), ((5, 16), 9)),
    # a valid 12x11 USO past the validation budget of 2**16 subgrids
    "bad_uso_12x11.json": lambda: _coordinate_uso(1211, (12, 11)),
    # a 300x300 grid, past the dense-outmap guard, with no outmap entry
    "bad_uso_too_large.json": lambda: json.dumps(
        {"blocks": [[f"{c}{i}" for i in range(300)] for c in "ab"], "outmap": {}}),
    "bad_abstract_repeated_order.json": lambda: json.dumps(
        {"names": ["a"], "values": {"": "0", "a": "1"}, "order": ["0", "1", "0"]}),
    "bad_concrete_repeated_point.json": lambda: json.dumps(
        {"points": ["p", "p"], "constraints": [[0], [1]]}),
    "bad_concrete_reserved_point.json": lambda: json.dumps(
        {"points": ["+inf", "x"], "constraints": [[0], [1]]}),
    # value tables whose values are a list, whose order holds a number,
    # and whose value y is not in the order
    "bad_abstract_values_list.json": lambda: json.dumps(
        {"names": ["a"], "values": [["", "0"], ["a", "1"]], "order": ["0", "1"]}),
    "bad_abstract_order_number.json": lambda: json.dumps(
        {"names": ["a"], "values": {"": "0", "a": "1"}, "order": ["0", 1]}),
    "bad_abstract_unordered_value.json": lambda: json.dumps(
        {"names": ["a"], "values": {"": "0", "a": "y"}, "order": ["0", "1"]}),
    # a CSV whose only row is a header of empty cells
    "bad_empty_header.csv": lambda: '"",""\n',
    # halfplanes with an empty region: x <= -1, and three rows feasible
    # in pairs but not together
    "empty_halfplane.csv": lambda: _csv("name,a,b,c", [["h0", 1, 0, -1]]),
    "empty_halfplanes_3.csv": lambda: _csv(
        "name,a,b,c", [["h0", -1, -1, -3], ["h1", 1, 0, 1], ["h2", 0, 1, 1]]),
}


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
    # solved only: its base cases run the oracle's sink scans
    "uso_4x4x3.json": lambda: _coordinate_uso(443, (4, 4, 3)),
    # one block of 40, where Clarkson's stages and weighted draws run,
    # and an 11x11 grid, whose validation scans 53,361 subgrids
    "uso_40.json": lambda: _coordinate_uso(40, (40,)),
    "uso_11x11.json": lambda: _coordinate_uso(1111, (11, 11)),
    # a cyclic USO with 20 x 2 x 2 x 2 vertices, on whose whole set the
    # base case's chase meets a basis twice
    "uso_combed_cycling_20.json": lambda: _combed_cycling_file(0, 20),
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
TABLE_FILES = [
    "fixtures/square.json",
    "fixtures/lp_figure4.json",
    "fixtures/cyclic3.json",
    "fixtures/cyclic_cube_uso.json",
    *(f"{INPUTS}/{name}" for name in TABLES),
]
USO_FILES = [
    "fixtures/cyclic_cube_uso.json",
    f"{INPUTS}/uso_3x2x2.json",
    f"{INPUTS}/uso_4x4x3.json",
    f"{INPUTS}/uso_40.json",
    f"{INPUTS}/uso_11x11.json",
    f"{INPUTS}/uso_cycling_4cube.json",
    f"{INPUTS}/uso_combed_cycling_20.json",
]
# solved through their violator tables: a concrete file's value table,
# an abstract file's up masks and an explicit file as loaded
SOLVED_TABLES = [
    f"{INPUTS}/concrete_7.json",
    f"{INPUTS}/concrete_10.json",
    f"{INPUTS}/abstract_6.json",
    f"{INPUTS}/explicit_8.json",
]
# stands for a fresh file that a command writes with --out
OUT = "@out"


def geometric_commands():
    """The argvs of the point and halfplane files, in order."""
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


def table_commands():
    """The argvs of the table and USO files, in order."""
    for path in TABLE_FILES:
        yield ["check", path]
        if "/bad_" in path:
            continue
        for fmt in ("text", "json"):
            yield ["structure", path, "--format", fmt]
        if "uso" in path:
            yield ["uso", "tabulate", path]
            yield ["uso", "tabulate", path, "--out", OUT]
    for n, seed in ((3, "1"), (4, "2")):
        yield ["probe", "--n", str(n), "--attempts", "60", "--seed", seed, "--out", OUT]


def _solves(paths):
    for path in paths:
        for algo in ALGOS:
            for seed in SEEDS:
                for fmt in ("text", "json"):
                    yield ["solve", path, "--algo", algo, "--seed", str(seed), "--format", fmt]


def uso_commands():
    """The argvs of the USO solves, whose output ends in `edge_evals:`."""
    yield from _solves(USO_FILES)


def table_solve_commands():
    """The argvs of the solves on table files."""
    yield from _solves(SOLVED_TABLES)


def generate_commands():
    """The argvs of `uso generate`, one per kind."""
    yield ["uso", "generate", "--kind", "coordinate", "--blocks", "4,4,3", "--seed", "1"]
    yield ["uso", "generate", "--kind", "random", "--blocks", "2,2,2", "--seed", "1"]
    yield ["uso", "generate", "--kind", "cyclic-cube"]


def bench_commands():
    """The argvs of `bench`: seeded solves on lazy coordinate-order USOs
    large enough to reach Clarkson's stages."""
    yield ["bench", "--delta", "2", "--sizes", "16,64", "--trials", "3",
           "--algos", "trivial,clarkson1,clarkson2"]
    yield ["bench", "--delta", "3", "--sizes", "30,90", "--trials", "2"]


def no_basis_commands():
    """The argvs of solves whose --delta is below the combinatorial
    dimension, which end in `NoBasisFound` and exit 3."""
    yield ["solve", "fixtures/square.csv", "--delta", "1"]
    yield ["solve", "fixtures/cyclic3.json", "--delta", "2"]


def error_commands():
    """The argvs of inputs and options each command rejects: value
    tables failing an axiom, tables too large to build, an unknown
    --w name, --r equal to n, a table file given to `uso tabulate`, a
    USO file keying one vertex twice, a concrete file whose point
    indices are booleans, JSON files whose top level is an array, a USO
    file whose block names are not strings, an explicit file with a
    boolean member, an explicit file whose violators are a list, a USO
    file with a string outmap entry, a USO file missing a vertex, one
    whose outmap lists a member of its vertex, a USO grid past the
    dense-outmap guard (exit 4), an abstract order that repeats a token,
    concrete files with a repeated or a reserved point label, `bench`
    with more blocks than members (exit 4), an 11x11 USO with one edge
    reversed (exit 1), a 12x11 USO past the validation budget (exit 4),
    abstract files whose values are a list, whose order holds a number
    or misses a value, a CSV of empty header cells (exit 2), and
    halfplane files whose region is empty (exit 1)."""
    for name in ("corrupt_abstract_monotonicity.json", "corrupt_abstract_locality.json"):
        path = f"{INPUTS}/{name}"
        yield ["check", path]
        yield ["structure", path]
        yield ["solve", path]
    yield ["structure", f"{INPUTS}/concrete_17.json"]
    yield ["sampling", "fixtures/square.csv", "--r", "2", "--w", "a,zz"]
    yield ["sampling", "fixtures/square.csv", "--r", "4"]
    yield ["uso", "tabulate", "fixtures/cyclic3.json"]
    yield ["check", f"{INPUTS}/bad_uso_repeated_vertex.json"]
    yield ["check", f"{INPUTS}/bad_concrete_bool_index.json"]
    yield ["structure", f"{INPUTS}/bad_concrete_bool_index.json"]
    yield ["check", f"{INPUTS}/bad_array_inline.json"]
    yield ["check", f"{INPUTS}/bad_array_lines.json"]
    yield ["check", f"{INPUTS}/bad_uso_int_names.json"]
    yield ["check", f"{INPUTS}/bad_bool_value.json"]
    yield ["check", f"{INPUTS}/bad_concrete_25.json"]
    yield ["check", f"{INPUTS}/bad_violators_list.json"]
    yield ["check", f"{INPUTS}/bad_uso_string_outmap.json"]
    for name in ("bad_uso_missing_vertex.json", "bad_uso_outmap_member.json",
                 "bad_uso_too_large.json", "bad_abstract_repeated_order.json",
                 "bad_concrete_repeated_point.json", "bad_concrete_reserved_point.json"):
        yield ["check", f"{INPUTS}/{name}"]
    yield ["bench", "--delta", "5", "--sizes", "3"]
    yield ["check", f"{INPUTS}/bad_uso_11x11_flipped.json"]
    yield ["check", f"{INPUTS}/bad_uso_12x11.json"]
    for name in ("bad_abstract_values_list.json", "bad_abstract_order_number.json",
                 "bad_abstract_unordered_value.json", "bad_empty_header.csv"):
        yield ["check", f"{INPUTS}/{name}"]
    for name in ("empty_halfplane.csv", "empty_halfplanes_3.csv"):
        yield ["check", f"{INPUTS}/{name}"]
        yield ["solve", f"{INPUTS}/{name}"]
    yield ["structure", f"{INPUTS}/empty_halfplanes_3.csv"]


SLICES = (geometric_commands, table_commands, uso_commands, table_solve_commands,
          generate_commands, bench_commands, no_basis_commands, error_commands)


def commands():
    """Every argv of the matrix, in order."""
    for part in SLICES:
        yield from part()


def run(argv):
    """Exit code, stdout and stderr of one `vspace` command, and the text
    it wrote to `--out` when that is the placeholder OUT."""
    from violator_spaces.cli import main

    with tempfile.TemporaryDirectory() if OUT in argv else contextlib.nullcontext() as tmp:
        target = os.path.join(tmp, "out.json") if tmp else None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([target if arg == OUT else arg for arg in argv])
        result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if target is not None:
            written = Path(target)
            result["out_file"] = written.read_text(encoding="utf-8") if written.exists() else None
    return result


def write_inputs() -> None:
    for name, make in {**GENERATED, **TABLES, **ERROR_INPUTS}.items():
        (HERE / name).write_text(make(), encoding="utf-8")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    write_inputs()
    rows = [{"argv": argv, **run(argv)} for argv in commands()]
    MATRIX.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} commands to {MATRIX.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
