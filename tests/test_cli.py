import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from violator_spaces import ConcreteLpProblem, GridPartition, PointSet, smallest_enclosing_ball
from violator_spaces.cli import main
from violator_spaces.fileio import load_path

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------


def test_check_cyclic3_ok(capsys):
    code, out, _ = run_cli(capsys, "check", FIXTURES / "cyclic3.json")
    assert code == 0
    assert out.startswith("ok")


def test_check_square_ok(capsys):
    code, out, _ = run_cli(capsys, "check", FIXTURES / "square.json")
    assert code == 0


def test_check_uso_ok(capsys):
    code, out, _ = run_cli(capsys, "check", FIXTURES / "cyclic_cube_uso.json")
    assert code == 0


def test_check_warns_before_an_exhaustive_axiom_check(capsys, monkeypatch):
    from violator_spaces import cli

    # a table over more than 16 members would hold 2^17 entries
    monkeypatch.setattr(cli, "EXHAUSTIVE_WARN_N", 3)
    code, out, err = run_cli(capsys, "check", FIXTURES / "square.json")
    assert code == 0
    assert out == "ok: violator space over n=4 satisfies both axioms\n"
    assert err == "warning: exhaustive axiom check over n=4 subsets is slow\n"


def test_check_points_csv_tabulates(capsys):
    code, out, _ = run_cli(capsys, "check", FIXTURES / "square.csv")
    assert code == 0 and "tabulated" in out


@pytest.mark.parametrize("bad, code", [(False, 0), (True, 2)])
def test_cli_module_as_a_process_matches_main(capsys, tmp_path, bad, code):
    # runs console_main's sys.exit(main()) through the __main__ guard
    path = FIXTURES / "square.csv"
    if bad:
        path = tmp_path / "array.json"
        path.write_text("[1, 2]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "violator_spaces.cli", "check", str(path)],
        cwd=FIXTURES.parent, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, timeout=60,
    )
    main_code, out, err = run_cli(capsys, "check", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (main_code, out.encode(), err.encode())
    assert proc.returncode == code


def test_check_witness_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "names": ["x"],
        "violators": {"": [], "x": ["x"]},
    }))
    code, out, _ = run_cli(capsys, "check", bad)
    assert code == 1
    assert "consistency" in out


def test_check_corrupted_file_exit_code(capsys, tmp_path):
    bad = tmp_path / "missing_key.json"
    bad.write_text(json.dumps({"names": ["x", "y"], "violators": {"": []}}))
    code, _, err = run_cli(capsys, "check", bad)
    assert code == 2
    assert "missing subset" in err


def test_check_abstract_and_concrete_files(capsys, tmp_path):
    from violator_spaces.fileio import abstract_to_dict, concrete_to_dict
    from conftest import square_space

    con = square_space().to_concrete()
    concrete_file = tmp_path / "c.json"
    concrete_file.write_text(json.dumps(concrete_to_dict(con)))
    code, out, _ = run_cli(capsys, "check", concrete_file)
    assert code == 0 and out.startswith("ok")

    abstract_file = tmp_path / "a.json"
    abstract_file.write_text(json.dumps(abstract_to_dict(con.to_abstract())))
    code, out, _ = run_cli(capsys, "check", abstract_file)
    assert code == 0 and "monotone and local" in out

    # break monotonicity: the full family drops below a singleton
    doc = abstract_to_dict(con.to_abstract())
    full_key = ",".join(doc["names"])
    doc["values"][full_key] = doc["order"][0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", broken)
    assert code == 1 and "monotonicity" in out


# -- solve ---------------------------------------------------------------


def test_solve_square_csv(capsys):
    code, out, _ = run_cli(
        capsys, "solve", FIXTURES / "square.csv", "--algo", "clarkson1",
        "--seed", "1",
    )
    assert code == 0
    basis_line = [l for l in out.splitlines() if l.startswith("basis:")][0]
    assert basis_line in ("basis: {a, c}", "basis: {b, d}")


def test_solve_cyclic3_clarkson2(capsys):
    code, out, _ = run_cli(
        capsys, "solve", FIXTURES / "cyclic3.json", "--algo", "clarkson2",
    )
    assert code == 0
    assert "basis: {f, g, h}" in out


def test_solve_uso_auto_finds_sink(capsys):
    code, out, _ = run_cli(
        capsys, "solve", FIXTURES / "cyclic_cube_uso.json", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["1", "3", "5"]
    assert payload["edge_evals"] <= payload["stats"]["primitive_calls"]


def test_solve_delta_too_small_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "solve", FIXTURES / "cyclic3.json", "--algo", "trivial",
        "--delta", "2",
    )
    assert code == 3
    assert "NoBasisFound" in err


# -- structure -------------------------------------------------------------


def test_structure_square_text(capsys):
    code, out, _ = run_cli(capsys, "structure", FIXTURES / "square.json")
    assert code == 0
    assert "acyclic: yes" in out
    assert "S(a) = {a, ab, ad, [ac]}" in out


def test_structure_cyclic3_cycle(capsys):
    code, out, _ = run_cli(capsys, "structure", FIXTURES / "cyclic3.json")
    assert code == 0
    assert "cycle: f <=0 h <=0 g <=0 f" in out


def test_structure_lp_fixture_extension(capsys):
    code, out, _ = run_cli(
        capsys, "structure", FIXTURES / "lp_figure4.json", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    ext = payload["linear_extension"]
    # any linear extension of the two chains is acceptable
    for lo, hi in [("∅", "b"), ("b", "a"), ("a", "[ac]"), ("∅", "c"), ("c", "d"), ("d", "[ac]")]:
        assert ext.index(lo) < ext.index(hi)


def test_structure_size_guard(capsys, tmp_path):
    big = tmp_path / "big.csv"
    rows = ["x,y"] + [f"{i},0" for i in range(17)]
    big.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "structure", big)
    assert code == 4


def _concrete_17(tmp_path):
    rnd = random.Random(17)
    constraints = [[p for p in range(6) if rnd.random() < 0.6] for _ in range(17)]
    path = tmp_path / "concrete17.json"
    path.write_text(json.dumps({
        "points": [f"x{p}" for p in range(6)], "constraints": constraints,
    }))
    return path


def test_check_concrete_file_past_the_structure_guard(capsys, tmp_path):
    path = _concrete_17(tmp_path)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 20.0
    assert code == 0
    assert out == "ok: concrete problem with 6 points and 17 constraints\n"


def test_structure_guard_runs_before_the_table_is_built(
    capsys, tmp_path, monkeypatch
):
    def no_table(self):
        raise AssertionError("structure built a table past its size guard")

    monkeypatch.setattr(ConcreteLpProblem, "to_abstract", no_table)
    code, _, err = run_cli(capsys, "structure", _concrete_17(tmp_path))
    assert code == 4
    assert err == (
        "error: structure needs a table; n=17 exceeds"
        " the n <= 16 tabulation guard\n"
    )


@pytest.mark.parametrize("kind", ["explicit", "abstract"])
def test_table_file_past_the_size_cap_exits_four(capsys, tmp_path, kind):
    names = [f"h{i}" for i in range(25)]
    if kind == "explicit":
        doc = {"names": names, "violators": {}}
    else:
        doc = {"names": names, "values": {}, "order": []}
    path = tmp_path / f"{kind}25.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (4, "")
    assert err == f"error: {kind} tables support 0 <= n <= 24\n"


@pytest.mark.parametrize("kind", ["concrete", "abstract"])
def test_structure_on_value_table_uses_its_violator_table(
    capsys, tmp_path, monkeypatch, kind
):
    import violator_spaces.cli
    from violator_spaces.fileio import (
        abstract_to_dict,
        concrete_to_dict,
        explicit_to_dict,
    )
    from conftest import square_space

    space = square_space()
    explicit_file = tmp_path / "e.json"
    explicit_file.write_text(json.dumps(explicit_to_dict(space)))
    code, out, _ = run_cli(capsys, "structure", explicit_file, "--format", "json")
    assert code == 0
    expected = json.loads(out)

    con = space.to_concrete()
    if kind == "concrete":
        doc = concrete_to_dict(con)
    else:
        doc = abstract_to_dict(con.to_abstract())
    table_file = tmp_path / f"{kind}.json"
    table_file.write_text(json.dumps(doc))

    def no_tabulation(*args, **kwargs):
        raise AssertionError("structure re-tabulated a table it already had")

    monkeypatch.setattr(violator_spaces.cli, "tabulate_oracle", no_tabulation)
    code, out, _ = run_cli(capsys, "structure", table_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("instance") == str(table_file)
    expected.pop("instance")
    assert payload == expected


# -- uso subcommand --------------------------------------------------------


def test_uso_generate_coordinate(capsys, tmp_path):
    out_file = tmp_path / "u.json"
    code, _, _ = run_cli(
        capsys, "uso", "generate", "--blocks", "3,2,2", "--kind", "coordinate",
        "--seed", "9", "--out", out_file,
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "check", out_file)
    assert code == 0


def test_uso_generate_size_guard_runs_before_the_outmap_is_built(
    capsys, monkeypatch
):
    def no_vertices(self):
        raise AssertionError("generate built an outmap past its size guard")

    monkeypatch.setattr(GridPartition, "vertices", no_vertices)
    code, out, err = run_cli(
        capsys, "uso", "generate", "--blocks", "300,300", "--kind", "coordinate",
    )
    assert (code, out) == (4, "")
    assert err == "error: grid too large for a dense outmap\n"


def test_uso_generate_random_and_tabulate(capsys, tmp_path):
    out_file = tmp_path / "u.json"
    code, _, _ = run_cli(
        capsys, "uso", "generate", "--blocks", "2,2", "--kind", "random",
        "--seed", "4", "--out", out_file,
    )
    assert code == 0
    table_file = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "uso", "tabulate", out_file, "--out", table_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "check", table_file)
    assert code == 0


def test_uso_tabulate_past_16_members_stops_at_the_tabulation_guard(capsys, tmp_path):
    out_file = tmp_path / "u.json"
    code, _, _ = run_cli(
        capsys, "uso", "generate", "--blocks", "17", "--kind", "coordinate",
        "--out", out_file,
    )
    assert code == 0
    code, out, err = run_cli(capsys, "uso", "tabulate", out_file)
    assert (code, out) == (4, "")
    assert err == "error: refusing to tabulate n=17 > 16 subsets\n"


@pytest.mark.parametrize("blocks, count", [("12,11", 68838), ("74", 67599)])
def test_uso_past_the_validation_budget_is_refused_before_any_subgrid(
    capsys, tmp_path, monkeypatch, blocks, count
):
    from violator_spaces import grid_uso

    out_file = tmp_path / "u.json"
    code, _, _ = run_cli(capsys, "uso", "generate", "--blocks", blocks, "--out", out_file)
    assert code == 0

    def no_subsets(*args):
        raise AssertionError("validation listed subgrids past its budget")

    monkeypatch.setattr(grid_uso, "combinations", no_subsets)
    for command in ("check", "solve"):
        code, out, err = run_cli(capsys, command, out_file)
        assert (code, out) == (4, "")
        assert err == f"error: validation would scan {count} > 65536 subgrids\n"


def test_uso_file_at_the_validation_budget_checks_and_solves(capsys, tmp_path):
    # 73 + C(73,2) + C(73,3) = 64897 subgrids, the most one block allows
    out_file = tmp_path / "u.json"
    code, _, _ = run_cli(capsys, "uso", "generate", "--blocks", "73", "--out", out_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "check", out_file)
    assert code == 0 and out.startswith("ok: unique-sink orientation")
    code, _, _ = run_cli(capsys, "solve", out_file, "--algo", "clarkson2")
    assert code == 0


def test_uso_generate_random_combs_where_rejection_sampling_fails(capsys, tmp_path):
    out_file = tmp_path / "u.json"
    code, out, err = run_cli(
        capsys, "uso", "generate", "--blocks", "4,4", "--kind", "random",
        "--out", out_file,
    )
    assert (code, out) == (0, "")
    assert err == (
        "warning: no USO found in 10000 attempts;"
        " writing a combed random USO instead\n"
    )
    code, out, _ = run_cli(capsys, "check", out_file)
    assert (code, out) == (0, "ok: unique-sink orientation over n=8, 2 blocks\n")


# -- bench -----------------------------------------------------------------


def test_bench_csv_shape_and_delegation(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--delta", "2", "--sizes", "16,20",
        "--algos", "clarkson1,clarkson2", "--trials", "4", "--seed", "11",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,delta,algo,mean_primitive_calls,mean_loop_iterations,trials,seed"
    assert len(lines) == 5
    # below the delegation threshold both stages run identically per seed
    by_algo = {}
    for line in lines[1:]:
        n, d, algo, calls, iters, trials, seed = line.split(",")
        by_algo.setdefault(n, {})[algo] = (calls, iters)
    for n, cols in by_algo.items():
        assert cols["clarkson1"] == cols["clarkson2"]


@pytest.mark.parametrize("argv", [
    ["uso", "generate", "--blocks", "x"],
    ["bench", "--sizes", "0"],
    ["bench", "--algos", "foo"],
    ["bench", "--algos", ","],
    ["bench", "--algos", "clarkson1,foo"],
    ["probe", "--attempts", "-3"],
    ["probe", "--attempts", "0"],
])
def test_bad_size_list_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: " in err
    if argv[-2] in ("--blocks", "--sizes"):
        assert "bad size list" in err
    if argv[-2] == "--algos":
        assert "choose from trivial, clarkson1, clarkson2, auto" in err


BAD_NAMES = {
    "names_int.json": (
        json.dumps({"points": ["p"], "constraints": [[0]], "names": 5}),
        '"names" must be a list of strings',
    ),
    "names_true.json": (
        json.dumps({"points": ["p"], "constraints": [[0]], "names": True}),
        '"names" must be a list of strings',
    ),
    "names_repeated.json": (
        json.dumps({"points": ["p"], "constraints": [[0], []], "names": ["a", "a"]}),
        "names must be unique",
    ),
    "explicit_comma.json": (
        json.dumps({"names": ["a,b"], "violators": {"": ["a,b"], "a,b": []}}),
        "bad name 'a,b': empty or contains a comma",
    ),
    "abstract_unnamed.json": (
        json.dumps({"names": [""], "values": {"": "0"}, "order": ["0"]}),
        "bad name '': empty or contains a comma",
    ),
    "uso_comma.json": (
        json.dumps({"blocks": [["a,b"], ["c"]], "outmap": {"a,b,c": []}}),
        "bad name 'a,b': empty or contains a comma",
    ),
    "uso_repeated.json": (
        json.dumps({"blocks": [["1"], ["1"]], "outmap": {}}),
        "names must be unique",
    ),
    "uso_int_names.json": (
        json.dumps({"blocks": [[1, 2], [True, None]], "outmap": {}}),
        '"blocks" must be a list of name lists',
    ),
    "points_repeated.csv": ("name,x,y\na,0,0\na,1,1\n", "names must be unique"),
    "points_unnamed.csv": ("name,x,y\n,0,0\nb,1,1\n",
                           "bad name '': empty or contains a comma"),
    "points_comma.csv": ('name,x,y\n"a,b",0,0\nc,1,1\n',
                         "bad name 'a,b': empty or contains a comma"),
    "halfplanes_repeated.csv": ("name,a,b,c\nh,1,1,5\nh,1,2,5\n", "names must be unique"),
    "member_not_a_name.json": (
        json.dumps({"names": ["h0"], "violators": {"": [[]], "h0": []}}),
        "violators of '': unknown constraint name []",
    ),
    "no_blocks.json": (json.dumps({"blocks": [], "outmap": {}}),
                       "every block must be nonempty"),
}


@pytest.mark.parametrize("command", ["check", "solve", "structure", "sampling"])
@pytest.mark.parametrize("filename", sorted(BAD_NAMES))
def test_bad_names_and_empty_blocks_are_parse_errors(capsys, tmp_path, filename, command):
    text, message = BAD_NAMES[filename]
    path = tmp_path / filename
    path.write_text(text)
    extra = ["--r", "0", "--trials", "1"] if command == "sampling" else []
    code, out, err = run_cli(capsys, command, path, *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- sampling ----------------------------------------------------------------


def test_sampling_square_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "sampling", FIXTURES / "square.json", "--r", "2",
        "--trials", "3000", "--seed", "21",
    )
    assert code == 0
    assert "bound: 1.3333333333333333" in out
    assert "passed: yes" in out


def test_sampling_on_1200_points_does_not_overflow_the_stack(capsys, tmp_path):
    rnd = random.Random(12)
    path = tmp_path / "points.csv"
    path.write_text("name,x,y\n" + "".join(
        f"p{i},{rnd.randint(-1000, 1000)},{rnd.randint(-1000, 1000)}\n"
        for i in range(1200)
    ))
    code, out, err = run_cli(
        capsys, "sampling", path, "--r", "1100", "--trials", "1"
    )
    assert (code, err) == (0, "")
    assert "r: 1100" in out


def test_solve_on_200_points_in_5d_ends_with_an_enclosing_ball(capsys, tmp_path):
    # 200 <= 6 * delta**2 = 216: the whole set goes to the base case,
    # where a scan of every subset of size <= 6 would not end in useful time
    rnd = random.Random(5)
    rows = [[rnd.randint(-1000, 1000) for _ in range(5)] for _ in range(200)]
    path = tmp_path / "points.csv"
    path.write_text("name,a,b,c,d,e\n" + "".join(
        f"p{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(rows)
    ))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "solve", path, "--algo", "clarkson1", "--format", "json"
    )
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    basis = [int(name[1:]) for name in json.loads(out)["basis"]]
    ball = smallest_enclosing_ball([rows[i] for i in basis])
    points = PointSet.from_rows(rows).points
    assert not any(ball.excludes(p) for p in points)


def _coprime_denominators(count, digits=40):
    """Pairwise-coprime integers of `digits` digits: each one is coprime
    to the product of those before it."""
    found, product = [], 1
    x = 10 ** (digits - 1) + 1
    while len(found) < count:
        if math.gcd(x, product) == 1:
            found.append(x)
            product *= x
        x += 2
    return found


def test_sampling_scales_each_point_by_its_own_denominator(capsys, tmp_path):
    # one common denominator for the whole set would have 12000 digits
    rnd = random.Random(40)
    path = tmp_path / "points.csv"
    path.write_text("name,x,y\n" + "".join(
        f"p{i},{rnd.randrange(q)}/{q},{rnd.randrange(q)}/{q}\n"
        for i, q in enumerate(_coprime_denominators(300))
    ))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sampling", path, "--r", "150", "--trials", "2")
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert "r: 150" in out


# -- probe -------------------------------------------------------------------


def test_probe_runs_and_reports(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--n", "3", "--attempts", "300", "--seed", "2",
    )
    assert code == 0
    assert "cyclic dimension-2 space: none found" in out


def _sweeping_probe_candidate(rng, n, sweeps=6):
    """The probe step with up to six repair sweeps, each a decreasing
    scan over the proper subsets F of G that writes V(F) at every hit.
    Returns the repaired table and the space, or None if it is invalid."""
    from violator_spaces import ExplicitViolatorSpace

    size = 1 << n
    table = []
    for g in range(size):
        v = 0
        m = ~g & (size - 1)
        while m:
            low = m & -m
            if rng.randbelow(2):
                v |= low
            m ^= low
        table.append(v)
    for _ in range(sweeps):
        changed = False
        for g in range(size):
            f = (g - 1) & g
            while True:
                if g & table[f] == 0 and table[g] != table[f]:
                    table[g] = table[f]
                    changed = True
                if f == 0:
                    break
                f = (f - 1) & g
        if not changed:
            break
    space = ExplicitViolatorSpace(n, table)
    return table, space if space.check_axioms() is None else None


def test_probe_repair_stops_at_the_least_disjoint_subset(monkeypatch):
    import violator_spaces.cli as cli
    from violator_spaces import ExplicitViolatorSpace, Rng

    # valid results agree even when a repair picks another F or stops
    # early, so the repaired table is compared too, as it reaches the
    # space constructor
    repaired = []

    def recording_space(n, table):
        repaired.append(list(table))
        return ExplicitViolatorSpace(n, table)

    monkeypatch.setattr(cli, "ExplicitViolatorSpace", recording_space)
    valid = 0
    for n in range(2, 7):
        for seed in range(400):
            got = cli._probe_candidate(Rng(seed), n)
            table, want = _sweeping_probe_candidate(Rng(seed), n)
            assert repaired.pop() == table
            assert (got is None) == (want is None)
            if got is not None:
                valid += 1
                assert all(
                    got.violator_mask(g) == want.violator_mask(g)
                    for g in range(1 << n)
                )
    assert valid >= 200


@pytest.mark.parametrize("n", ["-1", "25"])
def test_probe_size_guard_runs_before_the_table_is_built(capsys, monkeypatch, n):
    import violator_spaces.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("probe built a table past its size guard")

    monkeypatch.setattr(cli, "_probe_candidate", no_table)
    code, out, err = run_cli(capsys, "probe", "--n", n, "--attempts", "1")
    assert (code, out) == (4, "")
    assert err == "error: explicit tables support 0 <= n <= 24\n"


def test_solve_abstract_and_concrete_files(capsys, tmp_path):
    from violator_spaces.fileio import abstract_to_dict, concrete_to_dict
    from conftest import square_space

    space = square_space()
    con = space.to_concrete()
    concrete_file = tmp_path / "square_concrete.json"
    concrete_file.write_text(json.dumps(concrete_to_dict(con)))
    abstract_file = tmp_path / "square_abstract.json"
    abstract_file.write_text(json.dumps(abstract_to_dict(con.to_abstract())))
    for path in (concrete_file, abstract_file):
        code, out, _ = run_cli(capsys, "solve", path, "--seed", "3")
        assert code == 0
        basis_line = [l for l in out.splitlines() if l.startswith("basis:")][0]
        assert basis_line in ("basis: {a, c}", "basis: {b, d}")


def test_check_uso_with_two_sinks_exits_one(capsys, tmp_path):
    doc = {
        "blocks": [["1", "2"], ["3", "4"]],
        "outmap": {"1,3": [], "2,4": [], "2,3": ["1", "4"], "1,4": ["2", "3"]},
    }
    bad = tmp_path / "twosinks.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", bad)
    assert code == 1
    assert "has 2 sinks" in out


def test_uso_generate_cyclic_cube(capsys, tmp_path):
    out_file = tmp_path / "cube.json"
    code, _, _ = run_cli(
        capsys, "uso", "generate", "--kind", "cyclic-cube", "--out", out_file,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["blocks"] == [["1", "2"], ["3", "4"], ["5", "6"]]
    code, out, _ = run_cli(capsys, "solve", out_file, "--seed", "2")
    assert code == 0 and "basis: {1, 3, 5}" in out


def test_structure_on_uso_file(capsys):
    code, out, _ = run_cli(
        capsys, "structure", FIXTURES / "cyclic_cube_uso.json",
    )
    assert code == 0
    assert "acyclic: no" in out
    assert "cycle:" in out


def test_sampling_with_w_flag(capsys):
    code, out, _ = run_cli(
        capsys, "sampling", FIXTURES / "square.json", "--r", "1",
        "--trials", "200", "--seed", "6", "--w", "a,c",
    )
    assert code == 0
    assert "passed: yes" in out
    code, _, err = run_cli(
        capsys, "sampling", FIXTURES / "square.json", "--r", "1", "--w", "zz",
    )
    assert code == 2 and "unknown constraint name" in err


# -- determinism (one command per subcommand) --------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("check", str(FIXTURES / "cyclic3.json")),
        ("solve", str(FIXTURES / "square.csv"), "--algo", "clarkson1",
         "--seed", "5", "--format", "json"),
        ("structure", str(FIXTURES / "lp_figure4.json"), "--format", "json"),
        ("uso", "generate", "--blocks", "2,2,2", "--kind", "random",
         "--seed", "3"),
        ("bench", "--delta", "2", "--sizes", "16", "--trials", "3",
         "--seed", "8"),
        ("sampling", str(FIXTURES / "square.json"), "--r", "2", "--trials",
         "500", "--seed", "13", "--format", "json"),
        ("probe", "--n", "3", "--attempts", "100", "--seed", "4"),
    ],
)
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# -- one load path -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        (command, fixture)
        for fixture in ("square.csv", "lp_figure4.csv", "cyclic_cube_uso.json")
        for command in ("check", "structure", "solve")
    ]
    + [
        ("sampling", "square.csv", "--r", "1", "--trials", "5"),
        ("uso", "tabulate", "cyclic_cube_uso.json"),
    ],
    ids=" ".join,
)
def test_each_command_parses_its_input_once(capsys, monkeypatch, argv):
    import violator_spaces.cli as cli

    parsed = []

    def counting_load_path(path):
        parsed.append(path)
        return load_path(path)

    monkeypatch.setattr(cli, "load_path", counting_load_path)
    words = [str(FIXTURES / a) if a.endswith((".csv", ".json")) else a for a in argv]
    code, _, _ = run_cli(capsys, *words)
    assert code == 0
    assert parsed == [w for w in words if w.startswith(str(FIXTURES))]


def _invalid_inputs(tmp_path):
    """One file per way an input can fail to load or validate."""
    from violator_spaces.fileio import abstract_to_dict
    from conftest import square_space

    abstract = abstract_to_dict(square_space().to_concrete().to_abstract())
    abstract["values"][",".join(abstract["names"])] = abstract["order"][0]
    docs = {
        "explicit": json.dumps({"names": ["x"], "violators": {"": [], "x": ["x"]}}),
        "abstract": json.dumps(abstract),
        "two_sinks": json.dumps({
            "blocks": [["1", "2"], ["3", "4"]],
            "outmap": {"1,3": [], "2,4": [], "2,3": ["1", "4"], "1,4": ["2", "3"]},
        }),
        "edges": json.dumps({
            "blocks": [["1", "2"], ["3", "4"]],
            "outmap": {"1,3": [], "2,4": ["1"], "2,3": ["1"], "1,4": ["3"]},
        }),
        "malformed": '{"names": ["x"], "violators": ',
    }
    paths = {}
    for name, text in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    # x <= -1 leaves nothing of the implicit orthant
    paths["infeasible"] = tmp_path / "infeasible.csv"
    paths["infeasible"].write_text("name,a,b,c\nh1,1,0,-1\nh2,0,1,5\n")
    return paths


WITNESS = {
    "explicit": "consistency fails: G=x meets V(G)",
    "abstract": "monotonicity fails: w(b,c,d) > w(a,b,c,d)",
    "two_sinks": "subgrid 1,2,3,4 has 2 sinks",
    "edges": "edge {(1, 2), (1, 3)} is oriented neither way",
    "infeasible": "no feasible vertex: the region is empty",
}
COMMANDS = {
    "check": ("check", "{path}"),
    "structure": ("structure", "{path}"),
    "solve": ("solve", "{path}"),
    # r = 1: an r = 0 sample queries only the empty set, whose region is
    # the implicit one and never empty
    "sampling": ("sampling", "{path}", "--r", "1", "--trials", "1"),
    "tabulate": ("uso", "tabulate", "{path}"),
}


def _expected(name, command):
    """(exit code, stream, message) for one invalid input and command."""
    if name == "malformed":
        return 2, "err", "error: {path}: invalid JSON at line 1, column 31\n"
    if command == "tabulate" and name in ("explicit", "abstract", "infeasible"):
        return 2, "err", "error: {path} is not a USO file\n"
    if command == "check":
        prefix = "edge consistency violated: " if name == "edges" else ""
        return 1, "out", f"{prefix}{WITNESS[name]}\n"
    return 1, "err", f"error: input failed validation: {WITNESS[name]}\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize(
    "name", ["explicit", "abstract", "two_sinks", "edges", "malformed", "infeasible"]
)
def test_invalid_input_matrix(capsys, tmp_path, name, command):
    path = _invalid_inputs(tmp_path)[name]
    code, out, err = run_cli(
        capsys, *(a.replace("{path}", str(path)) for a in COMMANDS[command])
    )
    want_code, stream, message = _expected(name, command)
    assert code == want_code
    assert {"out": out, "err": err} == {
        "out": "", "err": "", stream: message.replace("{path}", str(path))
    }


# -- one error map -------------------------------------------------------


@pytest.mark.parametrize("argv, error", [
    (["sampling", "square.csv", "--r", "2", "--w", "a,zz"], "ParseError"),
    (["sampling", "square.csv", "--r", "4"], "ParseError"),
    (["uso", "tabulate", "cyclic3.json"], "ParseError"),
    (["structure", "{concrete17}"], "ValueError"),
    (["solve", "square.csv", "--delta", "1"], "NoBasisFound"),
])
def test_commands_raise_and_only_main_reports(capsys, tmp_path, monkeypatch, argv, error):
    """A command raises its error and writes nothing; `main` turns the
    exception into the one `error:` line and its exit code."""
    from violator_spaces import cli

    monkeypatch.chdir(FIXTURES)
    argv = [a.replace("{concrete17}", str(_concrete_17(tmp_path))) for a in argv]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(Exception) as raised:
        args.func(args)
    assert type(raised.value).__name__ == error
    assert capsys.readouterr() == ("", "")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == ({"ParseError": 2, "NoBasisFound": 3, "ValueError": 4}[error], "")
    assert err.startswith("error: ") and err.count("\n") == 1
