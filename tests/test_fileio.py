import time

import pytest

from violator_spaces import cyclic_cube_uso, validate_uso
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
