"""structure() against a reference that computes the class order the
pairwise way: a fixpoint closure over reachability masks, a pairwise
acyclicity scan, a set-based Kahn and a BFS over sorted adjacency lists.
Every BasisStructure field must agree on acyclic and cyclic spaces."""

import random

from violator_spaces import ConstraintSet, Rng, cyclic_cube_uso, tabulate, uso_oracle
from violator_spaces.cli import _probe_candidate

from conftest import random_concrete_space, random_uso_space


def _reference_order(space):
    """(classes as (violators, member masks), leq0, leq1, acyclic,
    linear extension, cycle), computed the pairwise way."""
    by_violators = {}
    for b in space.enumerate_bases():
        by_violators.setdefault(space.violator_mask(b.mask), []).append(b)
    classes = [
        (v, sorted(members, key=ConstraintSet.sort_key))
        for v, members in by_violators.items()
    ]
    classes.sort(key=lambda c: c[1][0].sort_key())
    k = len(classes)
    leq0 = set()
    for j, (vj, _) in enumerate(classes):
        for i, (_, members) in enumerate(classes):
            if any(m.mask & vj == 0 for m in members):
                leq0.add((i, j))
    succ = [0] * k
    for i, j in leq0:
        succ[i] |= 1 << j
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            r = reach[i]
            m = r
            while m:
                low = m & -m
                r |= reach[low.bit_length() - 1]
                m ^= low
            if r != reach[i]:
                reach[i] = r
                changed = True
    leq1 = set(leq0)
    for i in range(k):
        for j in range(k):
            if (reach[i] >> j) & 1:
                leq1.add((i, j))
    acyclic = all(
        not (reach[i] >> j) & 1 or not (reach[j] >> i) & 1
        for i in range(k)
        for j in range(i + 1, k)
    )
    extension = _reference_extension(k, leq0) if acyclic else None
    cycle = None if acyclic else _reference_cycle(k, leq0, reach)
    classes = [(v, [m.mask for m in members]) for v, members in classes]
    return classes, leq0, leq1, acyclic, extension, cycle


def _reference_extension(k, leq0):
    preds = [set() for _ in range(k)]
    for i, j in leq0:
        if i != j:
            preds[j].add(i)
    placed = []
    done = set()
    while len(placed) < k:
        candidates = [
            i for i in range(k) if i not in done and preds[i].issubset(done)
        ]
        nxt = min(candidates)
        placed.append(nxt)
        done.add(nxt)
    return placed


def _reference_cycle(k, leq0, reach):
    succ = [[] for _ in range(k)]
    for i, j in sorted(leq0):
        if i != j:
            succ[i].append(j)
    on_cycle = [
        i
        for i in range(k)
        if any(
            (reach[i] >> j) & 1 and (reach[j] >> i) & 1 for j in range(k) if j != i
        )
    ]
    start = min(on_cycle)
    parent = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        for nb in succ[node]:
            if nb == start and node != start:
                path = [node]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            if nb not in parent:
                parent[nb] = node
                queue.append(nb)
    raise AssertionError("no cycle found")


def _spaces():
    rnd = random.Random(7)
    for _ in range(150):
        yield random_concrete_space(rnd, rnd.randint(1, 6))
    for seed in range(40):
        for sizes in ((2, 2, 2), (3, 3), (3, 2), (4, 2)):
            yield random_uso_space(seed, sizes)
    cube = tabulate(uso_oracle(cyclic_cube_uso()))
    assert cube.check_axioms() is None
    yield cube
    # only a few percent of the probe's valid draws are cyclic
    rng = Rng(1729)
    for n, attempts in ((3, 2000), (4, 5000), (5, 5000), (6, 2000)):
        for _ in range(attempts):
            space = _probe_candidate(rng, n)
            if space is not None:
                yield space


def test_structure_matches_the_pairwise_reference():
    cyclic = 0
    for space in _spaces():
        st = space.structure()
        got = (
            [(c.violators.mask, [m.mask for m in c.members]) for c in st.classes],
            st.leq0, st.leq1, st.acyclic, st.linear_extension, st.cycle,
        )
        assert got == _reference_order(space)
        cyclic += not st.acyclic
    assert cyclic >= 100
