import random
from pathlib import Path

import pytest

from violator_spaces import (
    ConcreteLpProblem,
    ExplicitViolatorSpace,
    GridPartition,
    MiniballOracle,
    PointSet,
    Rng,
    random_uso,
    tabulate,
    uso_oracle,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def cyclic3_space() -> ExplicitViolatorSpace:
    # mask order over f=0, g=1, h=2
    table = [0b111, 0b100, 0b001, 0b100, 0b010, 0b010, 0b001, 0b000]
    space = ExplicitViolatorSpace(3, table, names=["f", "g", "h"])
    assert space.check_axioms() is None
    return space


def square_space() -> ExplicitViolatorSpace:
    ps = PointSet.from_rows([[0, 0], [1, 0], [1, 1], [0, 1]])
    space = tabulate(MiniballOracle(ps, names=list("abcd")))
    assert space.check_axioms() is None
    return space


def random_concrete_problem(rnd: random.Random, n: int) -> ConcreteLpProblem:
    """n random subsets of a small ordered point list."""
    m = rnd.randint(1, 6)
    constraints = [
        [i for i in range(m) if (mask >> i) & 1]
        for mask in (rnd.getrandbits(m) for _ in range(n))
    ]
    return ConcreteLpProblem([f"x{i}" for i in range(m)], constraints)


def random_concrete_space(rnd: random.Random, n: int) -> ExplicitViolatorSpace:
    """Random acyclic space: a random concrete problem run through the
    minimum-of-intersection construction."""
    space = random_concrete_problem(rnd, n).to_abstract().violator_map()
    assert space.checked
    return space


def random_uso_space(seed: int, sizes) -> ExplicitViolatorSpace:
    """Tabulated violator space of a random grid USO (may be cyclic)."""
    u = random_uso(GridPartition.uniform(list(sizes)), Rng(seed))
    space = tabulate(uso_oracle(u))
    assert space.check_axioms() is None
    return space


def all_bases_of(space: ExplicitViolatorSpace, gmask: int):
    """Brute force: all inclusion-minimal submasks of G with V = V(G)."""
    target = space.violator_mask(gmask)
    candidates = []
    sub = gmask
    while True:
        if space.violator_mask(sub) == target:
            candidates.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & gmask
    return sorted(
        b for b in candidates
        if not any(c != b and c & ~b == 0 for c in candidates)
    )


def brute_is_basis(space: ExplicitViolatorSpace, bmask: int) -> bool:
    """The basis predicate, checked literally over all proper subsets."""
    if bmask == 0:
        return True
    f = (bmask - 1) & bmask
    while True:
        if bmask & space.violator_mask(f) == 0:
            return False
        if f == 0:
            break
        f = (f - 1) & bmask
    return True
