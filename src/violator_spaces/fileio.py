"""File formats: JSON containers for tables and USOs, CSV for instances.

JSON kinds are sniffed by their top-level keys, CSV kinds by header:

  explicit  {"names": [...], "violators": {"<subset key>": [names...]}}
  abstract  {"names": [...], "values": {"<subset key>": token}, "order": [...]}
  concrete  {"points": [...], "constraints": [[point indices...], ...]}
  uso       {"blocks": [[names...], ...], "outmap": {"<vertex key>": [names...]}}

  points     CSV with header  name,x,y[,z...]   (name column optional)
  halfplanes CSV with header  name,a,b,c        (rows are a*x + b*y <= c)

Subset and vertex keys join member names with commas; the empty subset
keys as "".  Keys are accepted in any member order and emitted in
ground-set index order.  A table file's keys and explicit member lists
in that canonical order are looked up in one table of the canonical
keys, one dict lookup per entry; any other member order is parsed name
by name, with the same errors.  Numbers in CSV files are exact
rationals: integers, p/q, or decimal strings.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import ConstraintSet, _names
from .explicit import (
    AbstractLpTable,
    ConcreteLpProblem,
    ExplicitViolatorSpace,
    check_table_size,
)
from .grid_uso import GridPartition, GridUso, _check_dense
from .instances import HalfplaneLp, PointSet


# CPython's cap on the digits of an integer string; Fraction would build
# 10**e for any exponent, so larger ones are rejected before parsing
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?[0_]*([\d_]*)$")


class ParseError(Exception):
    """An input file, or an option value read against it, that does not parse."""


Loaded = Tuple[str, object]


def _subset_key(mask: int, names: Sequence[str]) -> str:
    return ",".join(names[i] for i in range(len(names)) if (mask >> i) & 1)


def _subset_keys(names: Sequence[str]) -> List[str]:
    """keys[g]: the canonical key of every mask g, built a member at a time."""
    keys = [""]
    for name in names:
        keys += [k + "," + name if k else name for k in keys]
    return keys


def _key_masks(names: Sequence[str], entries: dict) -> Dict[str, int]:
    """The mask of every canonical key, built only for a document with
    one entry per subset: any other count fails with a missing or a
    repeated key, and its size must not set the table's."""
    if len(entries) != 1 << len(names):
        return {}
    return {key: g for g, key in enumerate(_subset_keys(names))}


def _first_missing(table: list) -> Optional[int]:
    return table.index(None) if None in table else None


def _parse_member_list(members, name_index: Dict[str, int], what: str) -> int:
    mask = 0
    for name in members:
        if not isinstance(name, str) or name not in name_index:
            shown = repr(name) if isinstance(name, str) else json.dumps(name)
            raise ParseError(f"{what}: unknown constraint name {shown}")
        bit = 1 << name_index[name]
        if mask & bit:
            raise ParseError(f"{what}: duplicate name {name!r}")
        mask |= bit
    return mask


def _parse_key(key: str, name_index: Dict[str, int], what: str) -> int:
    if key == "":
        return 0
    return _parse_member_list(key.split(","), name_index, what)


def _checked_names(names: List[str]) -> List[str]:
    """Constraint names of any file kind: distinct, nonempty, comma-free."""
    try:
        return _names(names, len(names))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _load_names(doc: dict) -> List[str]:
    names = doc.get("names")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ParseError('"names" must be a list of strings')
    return _checked_names(names)


# -- explicit violator spaces ----------------------------------------


def explicit_from_dict(doc: dict) -> ExplicitViolatorSpace:
    names = _load_names(doc)
    n = len(names)
    check_table_size("explicit", n)
    index = {name: i for i, name in enumerate(names)}
    violators = doc.get("violators")
    if not isinstance(violators, dict):
        raise ParseError('"violators" must be an object')
    canonical = _key_masks(names, violators)
    table = [None] * (1 << n)
    for key, val in violators.items():
        mask = canonical.get(key)
        if mask is None:
            mask = _parse_key(key, index, f"subset key {key!r}")
        if table[mask] is not None:
            raise ParseError(f"subset key {key!r} repeats an earlier subset")
        if not isinstance(val, list):
            raise ParseError(f"violators of {key!r} must be a list of names")
        try:  # join only all-string lists
            v = canonical.get(",".join(val))
        except TypeError:
            v = None
        # members holding commas ("a,b") can join to a key with more bits
        if v is None or v.bit_count() != len(val):
            v = _parse_member_list(val, index, f"violators of {key!r}")
        table[mask] = v
    missing = _first_missing(table)
    if missing is not None:
        raise ParseError(
            f"missing subset key {_subset_key(missing, names)!r}:"
            f" all {1 << n} subsets are required"
        )
    return ExplicitViolatorSpace._from_masks(n, table, names=names)


def explicit_to_dict(space: ExplicitViolatorSpace) -> dict:
    keys = _subset_keys(space.names)
    # split makes a fresh member list for every entry
    return {
        "names": list(space.names),
        "violators": {
            key: keys[v].split(",") if v else []
            for key, v in zip(keys, map(space.violator_mask, range(len(keys))))
        },
    }


# -- abstract value tables -------------------------------------------


def abstract_from_dict(doc: dict) -> AbstractLpTable:
    names = _load_names(doc)
    n = len(names)
    check_table_size("abstract", n)
    index = {name: i for i, name in enumerate(names)}
    values = doc.get("values")
    order = doc.get("order")
    if not isinstance(values, dict):
        raise ParseError('"values" must be an object')
    if not isinstance(order, list) or not all(isinstance(x, str) for x in order):
        raise ParseError('"order" must be a list of tokens')
    canonical = _key_masks(names, values)
    table: List[Optional[str]] = [None] * (1 << n)
    for key, tok in values.items():
        mask = canonical.get(key)
        if mask is None:
            mask = _parse_key(key, index, f"subset key {key!r}")
        if table[mask] is not None:
            raise ParseError(f"subset key {key!r} repeats an earlier subset")
        if not isinstance(tok, str):
            raise ParseError(f"value of {key!r} must be a token string")
        table[mask] = tok
    missing = _first_missing(table)
    if missing is not None:
        raise ParseError(f"missing subset key {_subset_key(missing, names)!r}")
    try:
        return AbstractLpTable(n, table, order, names=names)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def abstract_to_dict(table: AbstractLpTable) -> dict:
    return {
        "names": list(table.names),
        "values": dict(zip(_subset_keys(table.names), table.values)),
        "order": list(table.order),
    }


# -- concrete problems -----------------------------------------------


def concrete_from_dict(doc: dict) -> ConcreteLpProblem:
    points = doc.get("points")
    constraints = doc.get("constraints")
    if not isinstance(points, list) or not all(isinstance(x, str) for x in points):
        raise ParseError('"points" must be a list of labels')
    if not isinstance(constraints, list):
        raise ParseError('"constraints" must be a list of index lists')
    for c in constraints:
        if not isinstance(c, list) or not all(
            type(i) is int and 0 <= i < len(points) for i in c
        ):
            raise ParseError(f"constraint {json.dumps(c)} must list point indices")
    names = _load_names(doc) if "names" in doc else None
    try:
        return ConcreteLpProblem(points, constraints, names=names)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def concrete_to_dict(problem: ConcreteLpProblem) -> dict:
    return {
        "points": list(problem.points),
        "constraints": [list(c) for c in problem.constraints],
        "names": list(problem.names),
    }


# -- grid USOs --------------------------------------------------------


def uso_from_dict(doc: dict) -> Tuple[GridUso, List[str]]:
    blocks = doc.get("blocks")
    outmap_doc = doc.get("outmap")
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(isinstance(x, str) for x in b) for b in blocks
    ):
        raise ParseError('"blocks" must be a list of name lists')
    names = _checked_names([x for b in blocks for x in b])
    index = {name: i for i, name in enumerate(names)}
    # structural problems (an empty block, a missing vertex) are parse
    # errors; edge-consistency failures propagate as validation witnesses
    try:
        partition = GridPartition.uniform([len(b) for b in blocks])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    # the size guard, as for `uso generate`, before any vertex key is read
    _check_dense(partition)
    if not isinstance(outmap_doc, dict):
        raise ParseError('"outmap" must be an object')
    block_of = partition.block_of
    outmap: Dict[Tuple[int, ...], int] = {}
    for key, dirs in outmap_doc.items():
        mask = _parse_key(key, index, f"vertex key {key!r}")
        members = sorted(ConstraintSet(mask, partition.n))
        if len(members) != partition.delta or len(
            {block_of[h] for h in members}
        ) != partition.delta:
            raise ParseError(f"vertex key {key!r} must pick one name per block")
        J = tuple(sorted(members, key=lambda h: block_of[h]))
        if J in outmap:
            raise ParseError(f"vertex key {key!r} repeats an earlier vertex")
        if not isinstance(dirs, list):
            raise ParseError(f"outmap of {key!r} must be a list of names")
        outmap[J] = _parse_member_list(dirs, index, f"outmap of {key!r}")
    try:
        return GridUso(partition, outmap), names
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def uso_to_dict(u: GridUso) -> dict:
    names = [str(i + 1) for i in range(u.n)]
    return {
        "blocks": [[names[h] for h in b] for b in u.partition.blocks],
        "outmap": {
            ",".join(names[h] for h in sorted(J)): [names[d] for d in sorted(u.s(J))]
            for J in u.partition.vertices()
        },
    }


# -- CSV instances ----------------------------------------------------


def _parse_fraction(text: str, where: str) -> Fraction:
    exp = _EXPONENT.search(text.strip())
    digits = exp.group(1).replace("_", "") if exp else ""
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
        raise ParseError(f"{where}: exponent beyond {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {text!r}") from exc


def _read_csv(text: str) -> Tuple[List[str], List[List[str]]]:
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(row)]
    if not rows:
        raise ParseError("empty CSV file")
    header = [c.strip() for c in rows[0]]
    return header, [[c.strip() for c in row] for row in rows[1:]]


def _named_rows(
    header: List[str], rows: List[List[str]], has_name: bool, prefix: str
) -> Tuple[List[str], List[List[Fraction]]]:
    """Names and exact values of the data rows; without a name column,
    row i is named prefix + i."""
    names = []
    values = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} fields")
        if has_name:
            names.append(row[0])
            row = row[1:]
        else:
            names.append(f"{prefix}{lineno - 2}")
        values.append([_parse_fraction(v, f"line {lineno}") for v in row])
    return _checked_names(names), values


def points_from_csv(text: str) -> Tuple[PointSet, List[str]]:
    header, rows = _read_csv(text)
    has_name = header[0] == "name"
    coord_cols = header[1:] if has_name else header
    if not coord_cols:
        raise ParseError("point CSV needs coordinate columns")
    names, coords = _named_rows(header, rows, has_name, "p")
    if not coords:
        raise ParseError("point CSV has no data rows")
    return PointSet.from_rows(coords), names


def halfplanes_from_csv(text: str) -> Tuple[HalfplaneLp, List[str]]:
    header, rows = _read_csv(text)
    has_name = header[0] == "name"
    cols = header[1:] if has_name else header
    if cols != ["a", "b", "c"]:
        raise ParseError('halfplane CSV needs header "a,b,c" (optional "name" first)')
    names, triples = _named_rows(header, rows, has_name, "h")
    if not triples:
        raise ParseError("halfplane CSV has no data rows")
    try:
        return HalfplaneLp.from_rows(triples), names
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- sniffing loader --------------------------------------------------


def load_text(text: str, filename: str = "<input>") -> Loaded:
    """Parse a JSON or CSV document into its tagged object."""
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{filename}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{filename}: top level must be an object")
        keys = set(doc)
        if "violators" in keys:
            return "explicit", explicit_from_dict(doc)
        if "values" in keys and "order" in keys:
            return "abstract", abstract_from_dict(doc)
        if "points" in keys and "constraints" in keys:
            return "concrete", concrete_from_dict(doc)
        if "blocks" in keys and "outmap" in keys:
            return "uso", uso_from_dict(doc)
        raise ParseError(f"{filename}: unrecognized JSON keys {sorted(keys)}")
    header = stripped.splitlines()[0] if stripped else ""
    fields = [c.strip() for c in header.split(",")]
    if fields == ["a", "b", "c"] or fields == ["name", "a", "b", "c"]:
        return "halfplanes", halfplanes_from_csv(text)
    if fields and (fields[0] == "name" or all(f and f not in ("a", "b", "c") for f in fields)):
        return "points", points_from_csv(text)
    raise ParseError(f"{filename}: cannot determine file kind from header {header!r}")


def load_path(path: str) -> Loaded:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    return load_text(text, filename=path)
