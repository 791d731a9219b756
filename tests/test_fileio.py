import copy
import json
import random
import sys
import time
import tracemalloc

import pytest

from violator_spaces import ExplicitViolatorSpace, cyclic_cube_uso, validate_uso
from violator_spaces.fileio import (
    ParseError,
    abstract_from_dict,
    abstract_to_dict,
    concrete_from_dict,
    concrete_to_dict,
    explicit_from_dict,
    explicit_to_dict,
    halfplanes_from_csv,
    load_path,
    load_text,
    points_from_csv,
    uso_from_dict,
    uso_to_dict,
)

from conftest import cyclic3_space, square_space


def test_explicit_round_trip():
    space = square_space()
    doc = explicit_to_dict(space)
    back = explicit_from_dict(doc)
    assert back.names == space.names
    assert all(back.violator_mask(g) == space.violator_mask(g) for g in range(16))


def test_explicit_accepts_keys_in_any_member_order():
    space = cyclic3_space()
    doc = explicit_to_dict(space)
    doc["violators"]["g,f"] = doc["violators"].pop("f,g")
    back = explicit_from_dict(doc)
    assert back.violator_mask(0b011) == space.violator_mask(0b011)


def test_explicit_missing_subset_is_parse_error():
    doc = explicit_to_dict(cyclic3_space())
    del doc["violators"]["f,g"]
    with pytest.raises(ParseError, match="missing subset"):
        explicit_from_dict(doc)


def test_explicit_unknown_name_is_parse_error():
    doc = explicit_to_dict(cyclic3_space())
    doc["violators"]["f"] = ["zz"]
    with pytest.raises(ParseError, match="unknown constraint name"):
        explicit_from_dict(doc)


def test_abstract_round_trip():
    space = square_space()
    table = space.to_concrete().to_abstract()
    doc = abstract_to_dict(table)
    back = abstract_from_dict(doc)
    assert back.values == table.values and back.order == table.order
    assert back.check_axioms() is None


def test_concrete_round_trip():
    con = square_space().to_concrete()
    back = concrete_from_dict(concrete_to_dict(con))
    assert back.points == con.points
    assert back.constraints == con.constraints


def test_concrete_bad_index_is_parse_error():
    with pytest.raises(ParseError):
        concrete_from_dict({"points": ["x"], "constraints": [[1]]})


def test_concrete_boolean_index_is_parse_error():
    # bool is an int subclass: [[true], [0, false]] must not read as [[1], [0, 0]]
    doc = {"points": ["x", "y"], "constraints": [[True], [0, False]]}
    with pytest.raises(ParseError, match=r"^constraint \[true\] must list point indices$"):
        concrete_from_dict(doc)


def test_concrete_string_index_is_quoted_as_the_file_spells_it():
    doc = json.loads('{"points": ["x"], "constraints": [["a"]]}')
    with pytest.raises(ParseError, match=r'^constraint \["a"\] must list point indices$'):
        concrete_from_dict(doc)


def test_uso_round_trip():
    u = cyclic_cube_uso()
    doc = uso_to_dict(u)
    back, names = uso_from_dict(doc)
    assert names == [str(i + 1) for i in range(6)]
    assert back.outmap == u.outmap
    assert validate_uso(back) is None


def test_uso_bad_vertex_key():
    doc = uso_to_dict(cyclic_cube_uso())
    doc["outmap"]["1,2,3"] = []
    with pytest.raises(ParseError, match="one name per block"):
        uso_from_dict(doc)


@pytest.mark.parametrize("first, second", [("1,3", "3,1"), ("3,1", "1,3")])
def test_uso_repeated_vertex_key_is_parse_error(first, second):
    # either order of the two keys is rejected, so the file's meaning
    # cannot depend on which one comes last
    doc = {"blocks": [["1", "2"], ["3", "4"]],
           "outmap": {first: [], second: ["2"], "1,4": ["3"], "2,3": ["1"],
                      "2,4": ["1", "3"]}}
    with pytest.raises(ParseError, match=f"vertex key '{second}' repeats an earlier vertex"):
        uso_from_dict(doc)


def test_points_csv_with_names_and_rationals():
    ps, names = points_from_csv("name,x,y\np,1/2,0.25\nq,2,3\n")
    assert names == ["p", "q"]
    from fractions import Fraction

    assert ps.points[0] == (Fraction(1, 2), Fraction(1, 4))


def test_points_csv_without_names():
    ps, names = points_from_csv("x,y,z\n0,0,0\n1,2,3\n")
    assert ps.d == 3
    assert names == ["p0", "p1"]


def test_halfplanes_csv():
    lp, names = halfplanes_from_csv("name,a,b,c\nh,1,2,-3\n")
    assert names == ["h"]
    assert lp.halfplanes[0] == (1, 2, -3)


def test_halfplane_header_required_for_halfplanes():
    with pytest.raises(ParseError):
        halfplanes_from_csv("name,x,y\nh,1,2\n")


def test_bad_rational_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        points_from_csv("x,y\n0,0\n1,oops\n")


def test_sniffing_all_fixture_files(fixtures_dir):
    kinds = {
        "cyclic3.json": "explicit",
        "square.json": "explicit",
        "lp_figure4.json": "explicit",
        "cyclic_cube_uso.json": "uso",
        "square.csv": "points",
        "lp_figure4.csv": "halfplanes",
        "lp_figure5.csv": "halfplanes",
    }
    for fname, expected in kinds.items():
        kind, _ = load_path(str(fixtures_dir / fname))
        assert kind == expected, fname


def test_sniffing_rejects_unknown_json():
    with pytest.raises(ParseError, match="unrecognized JSON keys"):
        load_text('{"foo": 1}')


@pytest.mark.parametrize("text", ["[1, 2]", ' [\n {"names": ["a"]},\n 2\n]\n', "[]"])
def test_json_top_level_array_is_not_read_as_csv(text):
    with pytest.raises(ParseError, match="^f.json: top level must be an object$"):
        load_text(text, filename="f.json")


def test_invalid_json_reports_position():
    with pytest.raises(ParseError, match="line"):
        load_text('{"names": [,]}')


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_path("/nonexistent/nope.json")


def test_explicit_empty_ground_set_round_trip():
    doc = {"names": [], "violators": {"": []}}
    space = explicit_from_dict(doc)
    assert space.n == 0
    assert explicit_to_dict(space) == doc


HUGE_EXPONENTS = ["1e10000000", "1e-10000000", "1e" + "9" * 5000]


@pytest.mark.parametrize("kind", ["points", "halfplanes"])
@pytest.mark.parametrize("field", HUGE_EXPONENTS, ids=["1e10M", "1e-10M", "5000-digits"])
def test_huge_exponent_is_a_parse_error_before_parsing(capsys, tmp_path, kind, field):
    from violator_spaces.cli import main

    header = "name,x,y" if kind == "points" else "name,a,b,c"
    extra = "" if kind == "points" else ",1"
    path = tmp_path / "huge.csv"
    path.write_text(f"{header}\nq0,{field},1{extra}\nq1,1,1{extra}\n")
    start = time.perf_counter()
    code = main(["check", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 2: exponent beyond 4300 in magnitude\n"
    )


@pytest.mark.parametrize("load", [points_from_csv, halfplanes_from_csv])
def test_exponent_guard_keeps_bad_rationals_and_the_cap(load):
    header = "x,y" if load is points_from_csv else "a,b,c"
    extra = "" if load is points_from_csv else ",1"
    with pytest.raises(ParseError, match="line 2: bad rational '1e\\+x'"):
        load(f"{header}\n1e+x,1{extra}\n")
    obj, _ = load(f"{header}\n1e4300,1{extra}\n")
    first = obj.points[0][0] if load is points_from_csv else obj.halfplanes[0][0]
    assert first == 10**4300
    with pytest.raises(ParseError, match="exponent beyond 4300"):
        load(f"{header}\n1e4301,1{extra}\n")


# -- the key lookup parses exactly like the name-by-name parser -------------


def _old_member_list(members, index, what):
    mask = 0
    for name in members:
        if not isinstance(name, str) or name not in index:
            raise ParseError(f"{what}: unknown constraint name {name!r}")
        bit = 1 << index[name]
        if mask & bit:
            raise ParseError(f"{what}: duplicate name {name!r}")
        mask |= bit
    return mask


def _old_key(key, index, what):
    return 0 if key == "" else _old_member_list(key.split(","), index, what)


def _old_subset_key(mask, names):
    return ",".join(names[i] for i in range(len(names)) if (mask >> i) & 1)


def _old_explicit(doc):
    """The explicit loader as it was before canonical keys were looked
    up: every key and member list parsed name by name."""
    names = doc["names"]
    index = {name: i for i, name in enumerate(names)}
    table = [None] * (1 << len(names))
    for key, val in doc["violators"].items():
        mask = _old_key(key, index, f"subset key {key!r}")
        if table[mask] is not None:
            raise ParseError(f"subset key {key!r} repeats an earlier subset")
        if not isinstance(val, list):
            raise ParseError(f"violators of {key!r} must be a list of names")
        table[mask] = _old_member_list(val, index, f"violators of {key!r}")
    missing = next((m for m, v in enumerate(table) if v is None), None)
    if missing is not None:
        raise ParseError(
            f"missing subset key {_old_subset_key(missing, names)!r}:"
            f" all {1 << len(names)} subsets are required"
        )
    return table


def _old_abstract(doc):
    names = doc["names"]
    index = {name: i for i, name in enumerate(names)}
    table = [None] * (1 << len(names))
    for key, tok in doc["values"].items():
        mask = _old_key(key, index, f"subset key {key!r}")
        if table[mask] is not None:
            raise ParseError(f"subset key {key!r} repeats an earlier subset")
        if not isinstance(tok, str):
            raise ParseError(f"value of {key!r} must be a token string")
        table[mask] = tok
    missing = next((m for m, v in enumerate(table) if v is None), None)
    if missing is not None:
        raise ParseError(f"missing subset key {_old_subset_key(missing, names)!r}")
    return table


# names that are prefixes of one another, so joined lists can collide
NAME_POOL = ["a", "b", "ab", "a1", "a10", "b1", "c", "x"]


def _members(mask, names):
    return [name for i, name in enumerate(names) if mask >> i & 1]


def _mutated_items(rnd, names, entries):
    """The (key, value) items of a table document with a few seeded
    edits: member orders, entry order, and the errors a file can hold."""
    items = [[_members(g, names), v] for g, v in enumerate(entries)]
    for _ in range(rnd.choice((0, 1, 1, 2, 3))):
        if not items:
            break
        item = rnd.choice(items)
        key, val = item
        is_list = isinstance(val, list)
        edit = rnd.randrange(13)
        if edit == 0:
            key.reverse()
            if is_list:
                val.reverse()
        elif edit == 1:
            rnd.shuffle(key)
            if is_list:
                rnd.shuffle(val)
        elif edit == 2:  # a known name twice, or an unknown one
            (key if not is_list or rnd.random() < 0.5 else val).append(
                rnd.choice(names + ["zz"]) if names else "zz")
        elif edit == 3 and is_list and len(val) >= 2:  # "a,b" as one element
            i = rnd.randrange(len(val) - 1)
            val[i:i + 2] = [val[i] + "," + val[i + 1]]
        elif edit == 4 and is_list:
            val.insert(rnd.randrange(len(val) + 1), "")
        elif edit == 5:
            bad = rnd.choice((0, None, ["a"], 1.5))
            if is_list:
                val.insert(rnd.randrange(len(val) + 1), bad)
            else:
                item[1] = bad
        elif edit == 6:
            item[1] = ",".join(map(str, val)) if is_list else [val]
        elif edit == 7:  # another member order of a key, replacing an entry
            other = rnd.choice(items)
            other[0] = list(reversed(key)) if len(key) > 1 else list(key)
        elif edit == 8:  # another member order of a key, as an extra entry
            items.append([key[::-1], list(val) if is_list else val])
        elif edit == 9:
            items.remove(item)
        elif edit == 10:
            key.insert(rnd.randrange(len(key) + 1), "")
        elif edit == 11 and is_list:  # a whole joined list as one element
            item[1] = [",".join(map(str, val))] if val else [""]
        else:
            rnd.shuffle(items)
    return [(",".join(k), v) for k, v in items]


def _outcome(load, doc):
    try:
        return load(doc)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.parametrize("seed", range(6))
def test_explicit_loader_agrees_with_the_name_by_name_parser(seed):
    rnd = random.Random(seed)
    for _ in range(150):
        n = rnd.randint(0, 5)
        names = rnd.sample(NAME_POOL, n)
        entries = [_members(rnd.getrandbits(n), names) for _ in range(1 << n)]
        doc = {"names": names,
               "violators": dict(_mutated_items(rnd, names, entries))}
        want = _outcome(_old_explicit, copy.deepcopy(doc))
        got = _outcome(lambda d: [explicit_from_dict(d).violator_mask(g)
                                  for g in range(1 << n)], doc)
        assert got == want, doc


@pytest.mark.parametrize("seed", range(3))
def test_abstract_loader_agrees_with_the_name_by_name_parser(seed):
    rnd = random.Random(100 + seed)
    for _ in range(150):
        n = rnd.randint(0, 5)
        names = rnd.sample(NAME_POOL, n)
        order = ["lo", "mid", "hi"]
        entries = [order[bin(g).count("1") * 3 // (n + 1)] for g in range(1 << n)]
        doc = {"names": names, "order": order,
               "values": dict(_mutated_items(rnd, names, entries))}
        want = _outcome(_old_abstract, copy.deepcopy(doc))
        got = _outcome(lambda d: abstract_from_dict(d).values, doc)
        assert got == want, doc


def test_joined_names_in_one_value_element_stay_unknown():
    doc = explicit_to_dict(ExplicitViolatorSpace(2, [3, 2, 1, 0], names=["a", "b"]))
    doc["violators"][""] = ["a,b"]
    with pytest.raises(ParseError, match="^violators of '': unknown constraint name 'a,b'$"):
        explicit_from_dict(doc)


def test_a_document_short_of_keys_builds_no_key_table():
    names = [f"n{i}" for i in range(20)]
    doc = {"names": names, "violators": {"": []}}
    # 2^20 keys cost at least an empty str each, plus the list's pointers
    key_table = (1 << 20) * (sys.getsizeof("") + 8)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^missing subset key 'n0': all 1048576"):
            explicit_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the parse still holds one 8-byte slot per subset
    assert peak < key_table / 4


def test_explicit_dump_gives_every_entry_its_own_list():
    violators = explicit_to_dict(square_space())["violators"]
    before = {key: list(val) for key, val in violators.items()}
    for key in violators:
        violators[key].append(key)
    assert violators == {key: val + [key] for key, val in before.items()}
