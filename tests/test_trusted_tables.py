"""Tables the library builds itself are valid without a run-time check.

`ConcreteLpProblem.to_abstract` returns a checked value table without
calling `check_axioms`, and `AbstractLpTable.violator_map`,
`fileio.explicit_from_dict` and `tabulate_oracle` hand their mask-built
tables to `ExplicitViolatorSpace` without a copy or a range check.
These tests run the checks those builders skip: every table they return
goes through the public constructor (length and range) and the full
`check_axioms`, and the up masks `to_abstract` reads off its
intersection table equal the ones a fresh check of its values keeps.
"""

import random
from pathlib import Path

import pytest

from violator_spaces import (
    AbstractLpTable,
    ConcreteLpProblem,
    ExplicitViolatorSpace,
    GridPartition,
    Lp2dOracle,
    MiniballOracle,
    PointSet,
    Rng,
    coordinate_order_uso,
    cyclic_cube_uso,
    random_uso,
    tabulate_oracle,
    uso_oracle,
    validate_uso,
)
from violator_spaces.fileio import explicit_from_dict, explicit_to_dict, load_path

from conftest import FIXTURES
from golden.regenerate import ERROR_INPUTS

GOLDEN = Path(__file__).resolve().parent / "golden"


def _checked_copy(space: ExplicitViolatorSpace) -> ExplicitViolatorSpace:
    """The same table through the public constructor, which range-checks
    every entry and the length."""
    n = space.n
    return ExplicitViolatorSpace(
        n, [space.violator_mask(g) for g in range(1 << n)], names=space.names
    )


def _require_valid(space: ExplicitViolatorSpace) -> None:
    assert _checked_copy(space).check_axioms() is None


def _concrete_problems():
    """Seeded concrete problems, with the edge cases spelled out first:
    no constraints, no points, empty and duplicate constraints, and
    disjoint constraints whose intersections are empty (+inf values)."""
    yield ConcreteLpProblem([], [])
    yield ConcreteLpProblem(["a", "b"], [])
    yield ConcreteLpProblem([], [[], [], []])
    yield ConcreteLpProblem(["a", "b", "c"], [[], [0, 2], []])
    yield ConcreteLpProblem(["a", "b", "c"], [[1, 2], [1, 2], [0, 1], [1, 2]])
    yield ConcreteLpProblem(["a", "b", "c", "d"], [[0], [1], [2], [3]])
    rnd = random.Random(16)
    for _ in range(400):
        n = rnd.randint(0, 8)
        m = rnd.randint(0, 7)
        constraints = []
        for _ in range(n):
            if constraints and rnd.random() < 0.2:
                constraints.append(list(rnd.choice(constraints)))
            elif rnd.random() < 0.1:
                constraints.append([])
            else:
                constraints.append([p for p in range(m) if rnd.random() < 0.5])
        yield ConcreteLpProblem([f"x{p}" for p in range(m)], constraints)


def test_to_abstract_keeps_the_up_masks_a_full_check_keeps():
    for problem in _concrete_problems():
        table = problem.to_abstract()
        assert table.checked
        fresh = AbstractLpTable(table.n, table.values, table.order, names=table.names)
        assert fresh.check_axioms() is None
        space = table.violator_map()
        checked = fresh.violator_map()
        assert [space.violator_mask(g) for g in range(1 << table.n)] == [
            checked.violator_mask(g) for g in range(1 << table.n)
        ], (problem.points, problem.constraints)
        assert space.checked
        _require_valid(space)


def test_to_abstract_covers_every_edge_case():
    problems = list(_concrete_problems())
    tables = [p.to_abstract() for p in problems]
    assert any(p.n == 0 for p in problems)
    assert any(not p.points for p in problems)
    assert any(() in p.constraints for p in problems)
    assert any(len(set(p.constraints)) < p.n for p in problems)
    assert any(t.values[-1] == "+inf" and p.points for p, t in zip(problems, tables))


def test_to_abstract_makes_no_check_axioms_call(monkeypatch):
    def refuse(self):
        raise AssertionError("to_abstract must not re-check its own table")

    monkeypatch.setattr(AbstractLpTable, "check_axioms", refuse)
    for problem in list(_concrete_problems())[:50]:
        assert problem.to_abstract().violator_map().checked


def test_violator_map_of_seeded_abstract_tables_is_valid():
    rnd = random.Random(61)
    for _ in range(200):
        n = rnd.randint(0, 7)
        m = rnd.randint(1, 5)
        # monotone ranks, then locality decided by the full check
        ranks = [0] * (1 << n)
        for g in range(1, 1 << n):
            ranks[g] = max(ranks[g ^ (1 << x)] for x in range(n) if g >> x & 1)
            ranks[g] = min(ranks[g] + (rnd.random() < 0.3), m - 1)
        order = [f"t{i}" for i in range(m)]
        table = AbstractLpTable(n, [order[r] for r in ranks], order)
        if table.check_axioms() is None:
            _require_valid(table.violator_map())


def _seeded_oracles():
    rnd = random.Random(62)
    for n in (1, 3, 5, 7):
        rows = [[rnd.randint(-9, 9), rnd.randint(-9, 9)] for _ in range(n)]
        yield MiniballOracle(PointSet.from_rows(rows))
    yield uso_oracle(cyclic_cube_uso())
    for seed, sizes in ((1, (2, 2)), (2, (3, 2)), (3, (2, 2, 2))):
        yield uso_oracle(random_uso(GridPartition.uniform(list(sizes)), Rng(seed)))
    partition = GridPartition.uniform([3, 2, 2])
    yield uso_oracle(coordinate_order_uso(partition, [list(b) for b in partition.blocks]))


def test_tabulate_oracle_on_seeded_oracles_is_valid():
    for oracle in _seeded_oracles():
        space = tabulate_oracle(oracle)
        assert not space.checked
        _require_valid(space)


def test_explicit_from_dict_on_seeded_documents_is_valid():
    for oracle in _seeded_oracles():
        space = tabulate_oracle(oracle)
        back = explicit_from_dict(explicit_to_dict(space))
        assert not back.checked
        _require_valid(back)
    for problem in list(_concrete_problems())[:100]:
        space = problem.to_abstract().violator_map()
        _require_valid(explicit_from_dict(explicit_to_dict(space)))


def _table_files():
    files = sorted(FIXTURES.glob("*.json")) + sorted(GOLDEN.glob("*.json"))
    return [
        p for p in files
        if p.name != "cli_matrix.json" and not p.name.startswith("bad_")
    ]


@pytest.mark.parametrize("path", _table_files(), ids=lambda p: p.name)
def test_every_table_file_builds_a_valid_table(path):
    kind, obj = load_path(str(path))
    if kind == "explicit":
        space = obj
    elif kind == "abstract":
        # a corrupt value table has no violator table to compare
        if path.name.startswith("corrupt_"):
            assert obj.check_axioms() is not None
            return
        assert obj.check_axioms() is None
        space = obj.violator_map()
    elif kind == "concrete":
        space = obj.to_abstract().violator_map()
    else:
        assert kind == "uso"
        u, names = obj
        assert validate_uso(u) is None
        # a USO file past 16 members validates but is too large to tabulate
        if u.n > 16:
            return
        space = tabulate_oracle(uso_oracle(u, names=names))
    witness = _checked_copy(space).check_axioms()
    # the corrupt files are built to fail, and still do
    assert (witness is not None) == path.name.startswith("corrupt_")
    assert space.check_axioms() == witness


def _csv_files():
    files = sorted(FIXTURES.glob("*.csv")) + sorted(GOLDEN.glob("*.csv"))
    # the infeasible LP has empty regions and so no violator table, and
    # the error rows' CSVs have an empty region or do not parse
    return [
        p for p in files
        if len(p.read_text().splitlines()) <= 11
        and p.name != "infeasible.csv" and p.name not in ERROR_INPUTS
    ]


@pytest.mark.parametrize("path", _csv_files(), ids=lambda p: p.name)
def test_tabulated_csv_instances_are_valid(path):
    kind, (instance, names) = load_path(str(path))
    oracle_type = MiniballOracle if kind == "points" else Lp2dOracle
    _require_valid(tabulate_oracle(oracle_type(instance, names=names)))


def test_public_constructor_still_checks_length_and_range():
    with pytest.raises(ValueError, match="entries"):
        ExplicitViolatorSpace(2, [0, 0, 0])
    with pytest.raises(ValueError, match="not a subset of H"):
        ExplicitViolatorSpace(2, [0, 0b100, 0, 0])
    with pytest.raises(ValueError, match="not a subset of H"):
        ExplicitViolatorSpace(1, [-1, 0])


def test_public_constructor_copies_its_table():
    table = [0b10, 0, 0, 0]
    space = ExplicitViolatorSpace(2, table)
    table[0] = 0b11
    assert space.violator_mask(0) == 0b10
