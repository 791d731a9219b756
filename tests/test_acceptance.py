"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

from violator_spaces import (
    ConstraintSet,
    GridPartition,
    MiniballOracle,
    PointSet,
    Rng,
    basis1,
    basis2,
    coordinate_order_oracle,
    coordinate_order_uso,
    cyclic_cube_uso,
    random_uso,
    sampling_check,
    solve,
    tabulate,
    uso_oracle,
)
from violator_spaces.algorithms import _mix64
from violator_spaces.cli import main
from violator_spaces.fileio import load_path

from conftest import (
    FIXTURES,
    all_bases_of,
    random_concrete_space,
    random_uso_space,
)


def report(line):
    print(line)


RANDOM_USO_SHAPES = [(2, 2), (3, 2), (2, 2, 2), (3, 2, 2)]


def _labels(space, s):
    return s.label(space.names).replace(",", "")


# -- criterion 1 ---------------------------------------------------------


# transcribed golden table for the cyclic three-constraint space
CYCLIC3_TABLE = {
    "": "fgh", "f": "h", "g": "f", "h": "g",
    "fg": "h", "fh": "g", "gh": "f", "fgh": "",
}


def test_a1_cyclic_three_constraint_fixture():
    start = time.perf_counter()
    kind, space = load_path(str(FIXTURES / "cyclic3.json"))
    assert kind == "explicit"
    names = space.names
    for g in range(8):
        key = "".join(names[i] for i in range(3) if (g >> i) & 1)
        row = "".join(
            names[i] for i in range(3) if (space.violator_mask(g) >> i) & 1
        )
        assert row == CYCLIC3_TABLE[key], key
    assert space.check_axioms() is None
    bases = {_labels(space, b) for b in space.enumerate_bases()}
    assert bases == {"∅", "f", "g", "h", "fgh"}
    st = space.structure()
    assert not st.acyclic
    cycle = [st.classes[i].representative.label(space.names) for i in st.cycle]
    assert cycle == ["f", "h", "g"]
    assert space.combinatorial_dimension() == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"A1 cyclic three-constraint fixture (exact, {elapsed:.3f}s): PASS")


# -- criterion 2 ---------------------------------------------------------


# transcribed golden table: violators of every corner subset of the
# unit square under the smallest-enclosing-circle ordering
SQUARE_TABLE = {
    "": "abcd", "a": "bcd", "b": "acd", "c": "abd", "d": "abc",
    "ab": "cd", "ac": "", "ad": "bc", "bc": "ad", "bd": "", "cd": "ab",
    "abc": "", "abd": "", "acd": "", "bcd": "", "abcd": "",
}


def _square_row(space, g):
    return "".join(space.names[i] for i in range(4) if (space.violator_mask(g) >> i) & 1)


def test_a2_square_fixture_matches_table():
    start = time.perf_counter()
    ps, names = load_path(str(FIXTURES / "square.csv"))[1]
    space = tabulate(MiniballOracle(ps, names=names))
    assert space.check_axioms() is None
    for g in range(16):
        key = "".join(names[i] for i in range(4) if (g >> i) & 1)
        assert _square_row(space, g) == SQUARE_TABLE[key], key
    # the shipped JSON fixture carries the same sixteen rows
    _, golden = load_path(str(FIXTURES / "square.json"))
    assert golden.check_axioms() is None
    assert all(
        space.violator_mask(g) == golden.violator_mask(g) for g in range(16)
    )
    bases = [_labels(space, b) for b in space.enumerate_bases()]
    assert bases == ["∅", "a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd", "cd"]
    st = space.structure()
    assert st.acyclic
    nontrivial = [c for c in st.classes if len(c.members) > 1]
    assert len(nontrivial) == 1
    assert {_labels(space, m) for m in nontrivial[0].members} == {"ac", "bd"}
    con = space.to_concrete()
    s_sets = {
        name: {con.points[p] for p in s}
        for name, s in zip(con.names, con.constraints)
    }
    assert s_sets == {
        "a": {"a", "ab", "ad", "[ac]"},
        "b": {"b", "ab", "bc", "[ac]"},
        "c": {"c", "bc", "cd", "[ac]"},
        "d": {"d", "cd", "ad", "[ac]"},
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"A2 square miniball fixture (exact, {elapsed:.3f}s): PASS")


# -- criterion 3 ---------------------------------------------------------


def test_a3_round_trip_theorem():
    start = time.perf_counter()
    rnd = random.Random(30303)
    count = 200
    for _ in range(count):
        space = random_concrete_space(rnd, rnd.randint(1, 7))
        st = space.structure()
        assert st.acyclic
        rebuilt = space.to_concrete().to_abstract().violator_map()
        for g in range(1 << space.n):
            assert all_bases_of(space, g) == all_bases_of(rebuilt, g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        f"A3 representation round trip on {count} random acyclic spaces"
        f" ({elapsed:.1f}s): PASS"
    )


# -- criteria 4 and 5 ------------------------------------------------------

COLLECTED_STATS = []


def _random_cyclic_uso_spaces(count):
    """Random cube USOs filtered to the cyclic ones (about 2 percent)."""
    from violator_spaces import has_directed_cycle

    p = GridPartition.uniform([2, 2, 2])
    found = []
    seed = 0
    while len(found) < count:
        seed += 1
        assert seed < 2000, "cyclic USOs should not be this rare"
        u = random_uso(p, Rng(_mix64(424242, seed)))
        if has_directed_cycle(u):
            space = tabulate(uso_oracle(u))
            assert space.check_axioms() is None
            found.append(space)
    return found


def _validated_space_pool():
    rnd = random.Random(40404)
    spaces = []
    while len(spaces) < 40:
        spaces.append(random_concrete_space(rnd, rnd.randint(4, 10)))
    uso_seeds = 0
    shape_cycle = RANDOM_USO_SHAPES + [(5,), (6,)]
    while len(spaces) < 70:
        shape = shape_cycle[uso_seeds % len(shape_cycle)]
        spaces.append(random_uso_space(50000 + uso_seeds, shape))
        uso_seeds += 1
    spaces.extend(_random_cyclic_uso_spaces(4))
    coord_shapes = [(5, 5), (4, 3, 3), (4, 4), (3, 3, 3), (2, 2, 2, 2)]
    k = 0
    while len(spaces) < 99:
        sizes = coord_shapes[k % len(coord_shapes)]
        p = GridPartition.uniform(list(sizes))
        rng = Rng(60000 + k)
        rankings = [rng.subset(list(b), len(b)) for b in p.blocks]
        space = tabulate(uso_oracle(coordinate_order_uso(p, rankings)))
        assert space.check_axioms() is None
        spaces.append(space)
        k += 1
    spaces.append(tabulate(uso_oracle(cyclic_cube_uso())))
    spaces[-1].check_axioms()
    return spaces


def test_a4_clarkson_on_cyclic_and_random_spaces():
    kind, fixture = load_path(str(FIXTURES / "cyclic3.json"))
    fixture.check_axioms()
    pool = [fixture] + _validated_space_pool()
    assert len(pool) == 101
    cyclic_count = sum(1 for s in pool if not s.structure().acyclic)
    assert cyclic_count >= 5  # the fixtures plus random cyclic USO tabulations
    seeds = range(100)
    for space in pool:
        n = space.n
        target = space.violator_mask((1 << n) - 1)
        delta = max(space.combinatorial_dimension(), 1)
        for seed in seeds:
            for stage in (basis1, basis2):
                oracle = space.oracle(delta=delta)
                C, stats = stage(oracle, oracle.ground_set(), Rng(seed))
                assert space.violator_mask(C.mask) == target
                COLLECTED_STATS.append((n, delta, stats))
    report(
        f"A4 Clarkson stages return exact bases on {len(pool)} spaces"
        f" ({cyclic_count} cyclic) x 100 seeds x 2 stages: PASS"
    )


def test_a5_hard_loop_bounds():
    # the loops raise on any violation; re-assert over everything recorded
    assert COLLECTED_STATS, "run the A4 criterion first"
    runs = 0
    for n, delta, stats in COLLECTED_STATS:
        assert stats.w_augmentations <= delta
        per_call_bound = 3 * delta * math.log(max(n, 2))
        calls = max(stats.basis2_calls, 1)
        assert stats.reweight_iterations < per_call_bound * calls
        runs += 1
    # direct reweighting workload at a size that forces the basis2 loop
    for seed in range(50):
        part = GridPartition.uniform([50, 50])
        rng = Rng(_mix64(555, seed))
        rankings = [rng.subset(list(b), len(b)) for b in part.blocks]
        oracle = coordinate_order_oracle(part, rankings)
        C, stats = basis2(oracle, oracle.ground_set(), rng)
        assert stats.reweight_iterations < 3 * 2 * math.log(100)
        assert stats.w_augmentations == 0
        runs += 1
    report(f"A5 hard loop bounds over {runs} recorded runs, zero violations: PASS")


# -- criterion 6 -----------------------------------------------------------


def test_a6_sampling_corollary():
    # equality case: the square fixture at r=2, delta=2
    _, space = load_path(str(FIXTURES / "square.json"))
    space.check_axioms()
    oracle = space.oracle()
    assert oracle.delta == 2
    exact = Fraction(
        sum(
            bin(space.violator_mask((1 << a) | (1 << b))).count("1")
            for a, b in combinations(range(4), 2)
        ),
        6,
    )
    bound = Fraction(oracle.delta * (4 - 2), 2 + 1)
    assert exact == bound == Fraction(4, 3)
    mc = sampling_check(oracle, ConstraintSet.empty(4), 2, 10000, Rng(606))
    assert abs(mc.mean - float(exact)) <= 3 * mc.stddev / math.sqrt(mc.trials)
    assert mc.passed

    # twenty random instances with n <= 30 and delta <= 3
    rnd = random.Random(909)
    checked = 0
    for i in range(20):
        style = i % 3
        if style == 0:
            delta = rnd.choice([1, 2, 3])
            n = rnd.randint(max(6, delta * 2), 30)
            sizes = [n // delta] * (delta - 1) + [n - (n // delta) * (delta - 1)]
            p = GridPartition.uniform(sizes)
            rng = Rng(_mix64(711, i))
            rankings = [rng.subset(list(b), len(b)) for b in p.blocks]
            oracle = coordinate_order_oracle(p, rankings)
        elif style == 1:
            n = rnd.randint(4, 12)
            rows = [[rnd.randint(0, 8), rnd.randint(0, 8)] for _ in range(n)]
            oracle = MiniballOracle(PointSet.from_rows(rows))
        else:
            space = random_uso_space(80000 + i, rnd.choice(RANDOM_USO_SHAPES))
            oracle = space.oracle()
        assert oracle.delta <= 3
        r = rnd.randint(1, oracle.n - 1)
        rep = sampling_check(
            oracle, ConstraintSet.empty(oracle.n), r, 400, Rng(_mix64(713, i))
        )
        assert rep.passed, (i, rep)
        checked += 1
    report(
        f"A6 sampling bound: exact 4/3 equality case plus {checked} random"
        " instances within 3 sigma: PASS"
    )


# -- criterion 7 -----------------------------------------------------------


def test_a7_linear_primitive_call_scaling():
    start = time.perf_counter()
    sizes = [100, 200, 400, 800, 1600]
    seeds = 50
    ratios = []
    for n in sizes:
        part = GridPartition.uniform([n // 2, n - n // 2])
        total = 0
        for s in range(seeds):
            rng = Rng(_mix64(777, n, s))
            rankings = [rng.subset(list(b), len(b)) for b in part.blocks]
            oracle = coordinate_order_oracle(part, rankings)
            C, stats = solve(oracle, rng)
            expect = {rk[0] for rk in rankings}
            assert set(C) == expect
            total += stats.primitive_calls
        ratios.append(total / seeds / n)
    elapsed = time.perf_counter() - start
    # no superlinear trend: no later per-n call ratio may reach twice any
    # earlier one (the ratio in fact decreases as the additive
    # delta^O(delta) term amortizes away)
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            assert ratios[j] < 2.0 * ratios[i], (sizes[i], sizes[j], ratios)
    assert elapsed < 120.0
    pretty = ", ".join(
        f"n={n}: {r:.2f}" for n, r in zip(sizes, ratios)
    )
    report(
        f"A7 primitive calls per constraint stay linear-bounded"
        f" ({pretty}; {elapsed:.0f}s): PASS"
    )


# -- criteria 8 and 9 --------------------------------------------------------


def _sink_of(u, gmask):
    from itertools import product

    members = [[h for h in b if (gmask >> h) & 1] for b in u.partition.blocks]
    for J in product(*members):
        if u.outmap[J] & gmask == 0:
            return J
    raise AssertionError


def test_a8_uso_reduction():
    checked = 0
    usos = [cyclic_cube_uso()]
    for shape_i, sizes in enumerate(RANDOM_USO_SHAPES):
        p = GridPartition.uniform(list(sizes))
        for seed in range(30):
            usos.append(random_uso(p, Rng(_mix64(888, shape_i, seed))))
    for shape_i, sizes in enumerate(RANDOM_USO_SHAPES):
        p = GridPartition.uniform(list(sizes))
        rng = Rng(_mix64(889, shape_i))
        rankings = [rng.subset(list(b), len(b)) for b in p.blocks]
        usos.append(coordinate_order_uso(p, rankings))
    assert len(usos) >= 100
    for u in usos:
        space = tabulate(uso_oracle(u))
        assert space.check_axioms() is None
        delta = u.partition.delta
        assert space.combinatorial_dimension() == delta
        n = u.n
        for g in range(1 << n):
            if all(
                any((g >> h) & 1 for h in b) for b in u.partition.blocks
            ):
                sink = _sink_of(u, g)
                assert sorted(space.basis_of(ConstraintSet(g, n))) == sorted(sink)
                # the sink is the one and only basis of a block-meeting set
                assert len(all_bases_of(space, g)) == 1
        oracle = uso_oracle(u)
        C, _ = solve(oracle, Rng(4242))
        assert u.outmap[tuple(sorted(C, key=lambda h: u.partition.block_of[h]))] == 0
        checked += 1
    report(
        f"A8 grid USO reduction verified on {checked} orientations"
        " (axioms, dimension, bases = sinks, solve = global sink): PASS"
    )


def test_a9_cyclicity_transfer():
    cube_space = tabulate(uso_oracle(cyclic_cube_uso()))
    cube_space.check_axioms()
    assert not cube_space.structure().acyclic
    shapes = [(2, 2), (3, 2, 2), (4, 3), (2, 2, 2, 2), (6, 3, 3)]
    for i, sizes in enumerate(shapes):
        p = GridPartition.uniform(list(sizes))
        rng = Rng(_mix64(999, i))
        rankings = [rng.subset(list(b), len(b)) for b in p.blocks]
        space = tabulate(uso_oracle(coordinate_order_uso(p, rankings)))
        assert space.check_axioms() is None
        assert space.structure().acyclic
    report(
        "A9 cyclicity transfer: cyclic cube space is cyclic, all"
        f" {len(shapes)} coordinate-order spaces are acyclic: PASS"
    )


# -- criterion 10 -------------------------------------------------------------


CLI_COMMANDS = [
    ("check", str(FIXTURES / "cyclic3.json")),
    ("solve", str(FIXTURES / "square.csv"), "--algo", "clarkson1",
     "--seed", "5", "--format", "json"),
    ("structure", str(FIXTURES / "square.json"), "--format", "json"),
    ("uso", "generate", "--blocks", "3,2,2", "--kind", "random", "--seed", "6"),
    ("bench", "--delta", "2", "--sizes", "16,24", "--trials", "3", "--seed", "2"),
    ("sampling", str(FIXTURES / "square.json"), "--r", "2",
     "--trials", "1000", "--seed", "3", "--format", "json"),
    ("probe", "--n", "3", "--attempts", "200", "--seed", "1"),
]


def test_a10_cli_determinism(capsys):
    for argv in CLI_COMMANDS:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
    report(
        f"A10 byte-identical reruns for {len(CLI_COMMANDS)} CLI commands"
        " (one per subcommand): PASS"
    )
