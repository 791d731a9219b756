"""Property tests: solver outputs are bases, and no input file ends in a
traceback."""

import contextlib
import io
import json
import random

from hypothesis import given, settings, strategies as st

from violator_spaces import (
    ConstraintSet,
    GenerationExhausted,
    GridPartition,
    Rng,
    basis2,
    coordinate_order_oracle,
    coordinate_order_uso,
    random_uso,
    solve,
    uso_oracle,
)
from violator_spaces.cli import main
from violator_spaces.fileio import (
    abstract_to_dict, concrete_to_dict, explicit_to_dict, uso_to_dict,
)

from conftest import random_concrete_problem, random_concrete_space

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _assert_basis_of(oracle, G, B):
    """B lies in G, no member of G outside B violates it, and every
    member of B is extreme: it violates B without itself."""
    assert B.issubset(G)
    assert not any(oracle.violates(B, h) for h in G if h not in B)
    assert all(oracle.violates(B.remove(h), h) for h in B)


def _check_solvers(make_oracle, gmask, seed):
    oracle = make_oracle()
    C, _ = solve(oracle, Rng(seed))
    _assert_basis_of(make_oracle(), oracle.ground_set(), C)
    G = ConstraintSet(gmask & ((1 << oracle.n) - 1), oracle.n)
    C, _ = basis2(oracle, G, Rng(seed))
    _assert_basis_of(make_oracle(), G, C)


@PROPERTY
@given(space_seed=st.integers(0, 2**32), n=st.integers(1, 11),
       gmask=st.integers(0, 2**11 - 1), seed=st.integers(0, 2**64 - 1))
def test_solvers_return_a_basis_on_concrete_derived_spaces(space_seed, n, gmask, seed):
    space = random_concrete_space(random.Random(space_seed), n)
    delta = max(space.combinatorial_dimension(), 1)
    _check_solvers(lambda: space.oracle(delta=delta), gmask, seed)


@PROPERTY
@given(sizes=st.sampled_from([(2, 2), (3, 2), (4, 2), (3, 3), (2, 2, 2)]),
       uso_seed=st.integers(0, 2**32), gmask=st.integers(0, 2**9 - 1),
       seed=st.integers(0, 2**64 - 1))
def test_solvers_return_a_basis_on_random_usos(sizes, uso_seed, gmask, seed):
    try:
        u = random_uso(GridPartition.uniform(list(sizes)), Rng(uso_seed), max_attempts=200)
    except GenerationExhausted:
        return
    _check_solvers(lambda: uso_oracle(u), gmask, seed)


@PROPERTY
@given(n=st.integers(2, 80), grid_seed=st.integers(0, 2**32),
       gmask=st.integers(0, 2**80 - 1), seed=st.integers(0, 2**64 - 1))
def test_solvers_return_a_basis_on_coordinate_grids(n, grid_seed, gmask, seed):
    # above 6 delta^2 = 24 constraints the reweighting loop runs
    part = GridPartition.uniform([(n + 1) // 2, n // 2])
    rng = Rng(grid_seed)
    rankings = [rng.subset(list(b), len(b)) for b in part.blocks]
    _check_solvers(lambda: coordinate_order_oracle(part, rankings), gmask, seed)


# -- loader fuzzing ----------------------------------------------------

# table documents name their constraints h0, h1, ...; USO documents 1, 2, ...
NAMES = ["h0", "h1", "h2", "1", "2", "a", "", "h0,h1"]
KEYS = ["", "h0", "h1", "h2", "h0,h1", "h1,h0", "h0,h2", "1", "1,3", "2,4", "x"]
SCALARS = st.sampled_from([0, 1, -1, 5, 2.5, True, None, "a", "", "a,b", "1/2"])
NAME_LISTS = st.lists(st.sampled_from(NAMES), max_size=4)
INDEX_LISTS = st.lists(st.integers(-1, 4), max_size=3)
VALUES = st.one_of(
    SCALARS,
    NAME_LISTS,
    INDEX_LISTS,
    st.lists(st.one_of(NAME_LISTS, INDEX_LISTS, SCALARS), max_size=4),
    st.dictionaries(st.sampled_from(KEYS), st.one_of(NAME_LISTS, SCALARS), max_size=8),
)
RAW_DOCS = st.dictionaries(
    st.sampled_from(["names", "violators", "values", "order", "points",
                     "constraints", "blocks", "outmap"]),
    VALUES,
    max_size=4,
)


def _valid_doc(kind: str, seed: int, n: int) -> dict:
    """A well-formed document of one kind, drawn from the seed."""
    rnd = random.Random(seed)
    if kind.endswith("uso"):
        if kind == "large uso":
            # past 16 members, on both sides of the validation budget:
            # it holds one block of 73 members and 11x11, not 74 or 12x11
            sizes = rnd.choice([[rnd.randint(17, 80)], [rnd.randint(9, 12), rnd.randint(9, 12)]])
        else:
            sizes = [rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))]
        part = GridPartition.uniform(sizes)
        rankings = [rnd.sample(list(b), len(b)) for b in part.blocks]
        return uso_to_dict(coordinate_order_uso(part, rankings))
    problem = random_concrete_problem(rnd, n)
    if kind == "concrete":
        return concrete_to_dict(problem)
    if kind == "abstract":
        return abstract_to_dict(problem.to_abstract())
    return explicit_to_dict(problem.to_abstract().violator_map())


@st.composite
def mutated_docs(draw) -> dict:
    """A valid document with at most one key, entry or element replaced
    or removed."""
    doc = _valid_doc(draw(st.sampled_from(["explicit", "abstract", "concrete", "uso", "large uso"])),
                     draw(st.integers(0, 2**16)), draw(st.integers(1, 4)))
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["keep", "drop", "replace", "inner", "inner"]))
    if how == "drop":
        del doc[key]
    elif how == "replace":
        doc[key] = draw(VALUES)
    elif how == "inner" and doc[key]:
        inner = doc[key]
        at = draw(st.sampled_from(sorted(inner) if isinstance(inner, dict) else range(len(inner))))
        if draw(st.booleans()):
            del inner[at]
        else:
            inner[at] = draw(st.one_of(NAME_LISTS, VALUES))
    return doc


NUMBERS = ["0", "1", "-2", "7", "1/2", "3e2", "0.5", "-1/3"]
BAD_CELLS = ["", "x", "1/0", "1e9999", "a,b"]
HEADERS = ["name,x,y", "x,y", "name,a,b,c", "a,b,c", "name,x", "x", "name,x,y,z",
           "", "name", "foo,a"]


@st.composite
def csv_texts(draw) -> str:
    header = draw(st.sampled_from(HEADERS))
    width = len(header.split(","))
    cell = st.sampled_from(NUMBERS * 4 + BAD_CELLS + NAMES)
    rows = draw(st.lists(st.one_of(
        st.lists(cell, min_size=width, max_size=width),
        st.lists(cell, max_size=4),
    ), max_size=6))
    if header.startswith("name"):
        rows = [[draw(st.sampled_from(NAMES))] + r[1:] for r in rows if r]
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


COMMANDS = [
    ["check"],
    ["solve"],
    ["structure"],
    ["sampling", "--r", "1", "--trials", "2"],
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=st.one_of(RAW_DOCS.map(json.dumps), mutated_docs().map(json.dumps), csv_texts()),
       command=st.sampled_from(COMMANDS))
def test_any_input_file_ends_in_a_documented_exit_code(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
