import pytest

from violator_spaces import (
    ConstraintSet,
    EdgeConsistencyError,
    GenerationExhausted,
    GridPartition,
    GridUso,
    OutmapOracle,
    Rng,
    coordinate_order_oracle,
    coordinate_order_uso,
    cyclic_cube_uso,
    has_directed_cycle,
    random_uso,
    sink_by_scan,
    solve,
    tabulate,
    uso_oracle,
    uso_violators,
    validate_uso,
)

from violator_spaces import grid_uso
from violator_spaces.fileio import uso_from_dict
from violator_spaces.grid_uso import combed_random_uso

from conftest import random_uso_space
from golden.regenerate import CYCLING_4CUBE

SHAPES = [(2, 2), (3, 2), (2, 2, 2), (3, 2, 2)]


def _ranked(partition):
    return [list(b) for b in partition.blocks]


# -- partitions and construction ----------------------------------------


def test_partition_blocks_must_be_nonempty():
    for sizes in ([], [2, 0]):
        with pytest.raises(ValueError, match="every block must be nonempty"):
            GridPartition.uniform(sizes)


def test_partition_uniform():
    p = GridPartition.uniform([3, 2, 2])
    assert p.blocks == ((0, 1, 2), (3, 4), (5, 6))
    assert p.n == 7 and p.delta == 3
    assert p.vertex_count() == 12


def test_edge_consistency_rejected_at_construction():
    p = GridPartition.uniform([2, 2])
    u = coordinate_order_uso(p, _ranked(p))
    broken = dict(u.outmap)
    # orient one edge both ways
    J = (0, 2)
    other = (1, 2)
    broken[J] |= 1 << 1
    broken[other] |= 1 << 0
    with pytest.raises(EdgeConsistencyError):
        GridUso(p, broken)


def test_outmap_must_avoid_own_vertex():
    p = GridPartition.uniform([2, 2])
    u = coordinate_order_uso(p, _ranked(p))
    broken = dict(u.outmap)
    broken[(0, 2)] |= 1 << 0
    with pytest.raises(ValueError):
        GridUso(p, broken)


# -- coordinate order ----------------------------------------------------


def test_single_vertex_grid():
    p = GridPartition.uniform([1])
    u = coordinate_order_uso(p, [[0]])
    assert u.outmap == {(0,): 0}
    assert validate_uso(u) is None


def test_two_by_two_coordinate_sink():
    p = GridPartition.uniform([2, 2])
    u = coordinate_order_uso(p, [[0, 1], [2, 3]])
    assert sink_by_scan(u) == (0, 2)
    assert validate_uso(u) is None


def test_coordinate_orientations_are_usos():
    for sizes in SHAPES + [(3, 3, 2), (2, 2, 2, 2)]:
        p = GridPartition.uniform(list(sizes))
        rng = Rng(hash(sizes) & 0xFFFF)
        rankings = [rng.subset(list(b), len(b)) for b in p.blocks]
        u = coordinate_order_uso(p, rankings)
        assert validate_uso(u) is None
        assert sink_by_scan(u) == tuple(r[0] for r in rankings)


def test_two_sink_orientation_yields_witness():
    # one edge flip away from a valid path orientation: both (0,2) and
    # (1,3) end up as sinks of the full grid
    p = GridPartition.uniform([2, 2])
    broken = GridUso(
        p,
        {
            (0, 2): 0,
            (1, 3): 0,
            (1, 2): (1 << 0) | (1 << 3),
            (0, 3): (1 << 1) | (1 << 2),
        },
    )
    witness = validate_uso(broken)
    assert witness is not None
    assert witness.G.mask == 0b1111
    assert len(witness.sinks) == 2


def _reference_witness(u):
    """The sink count over every nonempty subgrid, frozen here as the
    reference: each block's subsets in binary order of their positions,
    combined in product order.  (G mask, sinks) of the first subgrid
    whose count is not 1, or None."""
    from itertools import product

    per_block = []
    for b in u.partition.blocks:
        k = len(b)
        per_block.append([tuple(b[i] for i in range(k) if (m >> i) & 1)
                          for m in range(1, 1 << k)])
    for members in product(*per_block):
        mask = sum(1 << h for chosen in members for h in chosen)
        sinks = [J for J in product(*members) if u.outmap[J] & mask == 0]
        if len(sinks) != 1:
            return mask, tuple(sinks)
    return None


def _edges(p):
    """Every edge of the grid, as (J, j): J and its neighbor in
    direction j, with j above J's element of its block."""
    return [(J, j) for J in p.vertices() for j in range(p.n) if j > J[p.block_of[j]]]


def _flipped(p, outmap, edges):
    """The orientation of the outmap with the given edges reversed."""
    outmap = dict(outmap)
    for J, j in edges:
        i = p.block_of[j]
        Jp = J[:i] + (j,) + J[i + 1:]
        outmap[J] ^= 1 << j
        outmap[Jp] ^= 1 << J[i]
    return GridUso(p, outmap)


def _agrees_with_the_reference(u):
    witness = validate_uso(u)
    expected = _reference_witness(u)
    assert (witness and (witness.G.mask, witness.sinks)) == expected
    return expected is None


@pytest.mark.parametrize("sizes", [(3,), (4,), (2, 2), (3, 2), (2, 2, 2)])
def test_validation_agrees_with_every_subgrid_on_every_orientation(sizes):
    p = GridPartition.uniform(list(sizes))
    edges = _edges(p)
    # every edge points to its lower end, then each bit of `bits` flips one
    low = {J: sum(1 << j for j in range(p.n) if j < J[p.block_of[j]]) for J in p.vertices()}
    usos = 0
    for bits in range(1 << len(edges)):
        flips = [e for pos, e in enumerate(edges) if (bits >> pos) & 1]
        usos += _agrees_with_the_reference(_flipped(p, low, flips))
    assert 0 < usos < 1 << len(edges)


@pytest.mark.parametrize("sizes", [(3, 3, 2), (4, 4), (3, 3, 3), (4, 4, 2), (5, 3)])
def test_validation_agrees_with_every_subgrid_near_usos(sizes):
    p = GridPartition.uniform(list(sizes))
    edges = _edges(p)
    usos = 0
    for seed in range(8):
        rng = Rng(seed)
        for base in (coordinate_order_uso(p, _ranked_at_random(p, seed)),
                     combed_random_uso(p, rng)):
            for flips in range(4):
                u = _flipped(p, base.outmap, rng.subset(edges, flips))
                usos += _agrees_with_the_reference(u)
    assert 8 <= usos < 64


# -- cyclic cube fixture -------------------------------------------------


def test_cyclic_cube_is_a_cyclic_uso():
    u = cyclic_cube_uso()
    assert u.validated
    assert has_directed_cycle(u)
    space = tabulate(uso_oracle(u))
    assert space.check_axioms() is None
    assert not space.structure().acyclic


def test_coordinate_order_has_no_cycle():
    p = GridPartition.uniform([2, 2, 2])
    u = coordinate_order_uso(p, _ranked(p))
    assert not has_directed_cycle(u)


# -- random generation ---------------------------------------------------


def test_random_uso_is_valid_and_seeded():
    p = GridPartition.uniform([2, 2])
    u1 = random_uso(p, Rng(5))
    u2 = random_uso(p, Rng(5))
    assert u1.outmap == u2.outmap
    assert validate_uso(u1) is None


def test_random_uso_single_block():
    p = GridPartition.uniform([5])
    u = random_uso(p, Rng(9))
    assert validate_uso(u) is None


def test_random_uso_exhausts():
    p = GridPartition.uniform([2, 2])
    with pytest.raises(GenerationExhausted):
        random_uso(p, Rng(0), max_attempts=0)


@pytest.mark.parametrize("sizes", [(4, 4), (3, 3, 2), (2, 2, 2, 2), (5,), (1, 3)])
def test_combed_random_uso_is_a_seeded_uso(sizes):
    p = GridPartition.uniform(list(sizes))
    outmaps = set()
    for seed in range(6):
        u = combed_random_uso(p, Rng(seed))
        assert u.validated
        assert validate_uso(GridUso(p, u.outmap)) is None
        assert combed_random_uso(p, Rng(seed)).outmap == u.outmap
        outmaps.add(tuple(sorted(u.outmap.items())))
    assert len(outmaps) > 1 or p.vertex_count() <= 3


def test_random_uso_size_guard():
    with pytest.raises(ValueError):
        random_uso(GridPartition.uniform([7, 6]), Rng(0))


# -- violator mapping ----------------------------------------------------


def test_vertex_maps_to_its_outmap():
    u = cyclic_cube_uso()
    for J in u.partition.vertices():
        G = ConstraintSet.of(J, u.n)
        assert uso_violators(u, G) == u.s(J)


def test_empty_set_maps_to_everything():
    u = cyclic_cube_uso()
    assert uso_violators(u, ConstraintSet.empty(u.n)).mask == (1 << u.n) - 1


def test_full_set_maps_to_global_sink_outmap():
    p = GridPartition.uniform([3, 2, 2])
    u = coordinate_order_uso(p, _ranked(p))
    assert uso_violators(u, ConstraintSet.full(u.n)).mask == 0


def test_missing_block_contributes_whole_blocks():
    p = GridPartition.uniform([3, 2, 2])
    u = coordinate_order_uso(p, _ranked(p))
    G = ConstraintSet.of([0, 1], 7)  # misses blocks 2 and 3
    assert sorted(uso_violators(u, G)) == [3, 4, 5, 6]


# -- oracle adapter ------------------------------------------------------


def test_oracle_charges_one_eval_per_vertex_query():
    u = cyclic_cube_uso()
    oracle = uso_oracle(u)
    J = (0, 2, 4)
    oracle.violates(ConstraintSet.of(J, 6), 1)
    assert oracle.edge_evals == 1
    assert oracle.primitive_calls == 1


def test_oracle_answers_missing_block_without_evals():
    u = cyclic_cube_uso()
    oracle = uso_oracle(u)
    G = ConstraintSet.of([0, 2], 6)
    assert oracle.violates(G, 4)  # block 3 missing, so 4 is a violator
    assert oracle.edge_evals == 0


def test_oracle_fallback_scans_sink():
    p = GridPartition.uniform([2, 2])
    u = coordinate_order_uso(p, _ranked(p))
    oracle = uso_oracle(u)
    G = ConstraintSet.of([0, 1, 2], 4)  # valid but not a vertex
    assert not oracle.violates(G, 3)  # sink of the subgrid is (0, 2)
    assert oracle.edge_evals > 0


def test_solve_on_coordinate_uso_returns_blockwise_minimum():
    p = GridPartition.uniform([3, 2, 2])
    rng = Rng(77)
    rankings = [rng.subset(list(b), len(b)) for b in p.blocks]
    u = coordinate_order_uso(p, rankings)
    oracle = uso_oracle(u)
    C, _ = solve(oracle, Rng(77))
    assert tuple(sorted(C)) == tuple(sorted(r[0] for r in rankings))
    assert uso_violators(u, C).mask == 0


def test_solve_on_cyclic_cube_returns_global_sink():
    for seed in range(20):
        u = cyclic_cube_uso()
        oracle = uso_oracle(u)
        C, _ = solve(oracle, Rng(seed))
        assert tuple(sorted(C)) == sink_by_scan(u)


def _ranked_at_random(partition, seed):
    rng = Rng(seed)
    return [rng.subset(list(b), len(b)) for b in partition.blocks]


def test_oracle_matches_violator_mapping_on_every_query():
    usos = [cyclic_cube_uso()]
    for i, sizes in enumerate([(2, 2), (3, 2), (2, 2, 2)]):
        p = GridPartition.uniform(list(sizes))
        usos.append(coordinate_order_uso(p, _ranked(p)))
        usos.append(coordinate_order_uso(p, _ranked_at_random(p, 50 + i)))
    for u in usos:
        blocks = u.partition.blocks
        oracle = uso_oracle(u)
        # `vspace solve --delta` overrides the hint; answers must not change
        overridden = uso_oracle(u)
        overridden.delta = u.delta + 1
        for g in range(1 << u.n):
            G = ConstraintSet(g, u.n)
            V = uso_violators(u, G)
            misses_block = not all(any((g >> h) & 1 for h in b) for b in blocks)
            is_vertex = not misses_block and len(G) == u.delta
            for h in range(u.n):
                if (g >> h) & 1:
                    continue
                before = oracle.edge_evals
                assert oracle.violates(G, h) == (h in V)
                charged = oracle.edge_evals - before
                if misses_block:
                    assert charged == 0
                elif is_vertex:
                    assert charged == 1
                else:
                    assert charged >= 1
                assert overridden.violates(G, h) == (h in V)


def test_lazy_coordinate_oracle_matches_dense():
    for i, sizes in enumerate([(3, 2, 2), (4, 4), (2, 2, 2, 2), (3, 3, 2)]):
        p = GridPartition.uniform(list(sizes))
        rankings = _ranked_at_random(p, i)
        dense = uso_oracle(coordinate_order_uso(p, rankings))
        lazy = coordinate_order_oracle(p, rankings)
        n = p.n
        for g in range(1 << n):
            G = ConstraintSet(g, n)
            for h in range(n):
                if not (g >> h) & 1:
                    assert dense.violates(G, h) == lazy.violates(G, h)
        assert dense.edge_evals == lazy.edge_evals


def _reference_query(partition, membership, G, h):
    """One query answered by the per-query sink scan the oracle is held
    to, frozen here: (answer, edge evaluations it charges)."""
    from itertools import product

    charged = 0

    def query(J, j):
        nonlocal charged
        charged += 1
        return membership(J, j)

    gmask = G.mask
    missing = 0
    for b in partition.blocks:
        if not any((gmask >> x) & 1 for x in b):
            missing |= sum(1 << x for x in b)
    if missing:
        return (missing >> h) & 1 == 1, charged
    if len(G) == partition.delta:
        J = tuple(x for b in partition.blocks for x in b if (gmask >> x) & 1)
        return query(J, h), charged
    for J in product(*([x for x in b if (gmask >> x) & 1] for b in partition.blocks)):
        is_sink = True
        for j in G:
            if j not in J and query(J, j):
                is_sink = False
                break
        if is_sink:
            return query(J, h), charged
    raise AssertionError("no sink found: orientation is not a USO")


def _reference_walk(partition, query, G):
    """The sink walk the oracle is held to, frozen here: from each
    block's lowest member in G, G's members are asked about cyclically in
    ascending order, skipping the vertex's own, and an out-edge moves to
    its neighbor.  The vertex it ends on once every member outside it is
    asked in a row without an out-edge, or None once it reaches a vertex
    twice."""
    gmask = G.mask
    members = list(G)
    J = tuple(next(x for x in b if (gmask >> x) & 1) for b in partition.blocks)
    seen = [J]
    quiet, i = 0, 0
    while quiet < len(members) - len(partition.blocks):
        j = members[i % len(members)]
        i += 1
        if j in J:
            continue
        if not query(J, j):
            quiet += 1
            continue
        block = partition.block_of[j]
        J = J[:block] + (j,) + J[block + 1:]
        if J in seen:
            return None
        seen.append(J)
        quiet = 0
    return J


def _reference_walk_query(partition, membership, G, h):
    """One query answered by the sink walk, falling back to the frozen
    scan when the walk revisits a vertex: (answer, edge evaluations it
    charges)."""
    charged = 0

    def query(J, j):
        nonlocal charged
        charged += 1
        return membership(J, j)

    gmask = G.mask
    meets_every_block = all(any((gmask >> x) & 1 for x in b) for b in partition.blocks)
    if not meets_every_block or len(G) == partition.delta:
        return _reference_query(partition, membership, G, h)
    J = _reference_walk(partition, query, G)
    if J is not None:
        return query(J, h), charged
    answer, scanned = _reference_query(partition, membership, G, h)
    return answer, charged + scanned


def _charge_oracles():
    oracles = [uso_oracle(cyclic_cube_uso())]
    p322 = GridPartition.uniform([3, 2, 2])
    oracles += [uso_oracle(random_uso(p322, Rng(seed))) for seed in (5, 6, 7)]
    p44 = GridPartition.uniform([4, 4])
    oracles.append(uso_oracle(coordinate_order_uso(p44, _ranked_at_random(p44, 3))))
    p332 = GridPartition.uniform([3, 3, 2])
    oracles.append(coordinate_order_oracle(p332, _ranked_at_random(p332, 4)))
    return oracles


def _every_query(n):
    for g in range(1 << n):
        for h in range(n):
            if not (g >> h) & 1:
                yield ConstraintSet(g, n), h


def test_every_answer_equals_the_reference_scan():
    for oracle in _charge_oracles():
        for G, h in _every_query(oracle.n):
            expected, _ = _reference_query(oracle.partition, oracle._membership, G, h)
            assert oracle.violates(G, h) == expected, (G.mask, h)


def test_every_query_charges_what_the_reference_walk_charges():
    for oracle in _charge_oracles():
        walks = 0
        for G, h in _every_query(oracle.n):
            before = oracle.edge_evals
            answer = oracle.violates(G, h)
            charged = oracle.edge_evals - before
            expected = _reference_walk_query(oracle.partition, oracle._membership, G, h)
            assert (answer, charged) == expected, (G.mask, h)
            walks += charged > 1
        assert walks > 0


def test_subgrid_without_sink_raises_the_same_error():
    # every direction leaves every vertex: no subgrid of two or more
    # vertices has a sink
    p = GridPartition.uniform([2, 2])
    oracle = OutmapOracle(p, lambda J, j: True)
    G = ConstraintSet.of([0, 1, 2], 4)
    with pytest.raises(AssertionError) as expected:
        _reference_query(p, lambda J, j: True, G, 3)
    with pytest.raises(AssertionError) as raised:
        oracle.violates(G, 3)
    assert str(raised.value) == str(expected.value)
    # the walk's two steps back to its start, then the scan's two vertices
    assert oracle.edge_evals == 4


def test_a_revisiting_walk_answers_from_the_scans_sink():
    # an edge-consistent orientation of the cube {0,1} x {3,4} x {5,6},
    # not a USO, whose one sink is (0, 3, 6); the walk from (0, 3, 5)
    # goes to (0, 4, 5), (1, 4, 5), (1, 3, 5) and back.  Only the sink
    # has 2, the member of block 0 outside G, in its outmap.
    outmap = {
        (0, 3, 5): (4, 6), (0, 3, 6): (2,), (0, 4, 5): (1,), (0, 4, 6): (3, 5),
        (1, 3, 5): (0,), (1, 3, 6): (0, 5), (1, 4, 5): (3,), (1, 4, 6): (0, 3, 5),
    }
    p = GridPartition.uniform([3, 2, 2])
    membership = lambda J, j: j in outmap[J]  # noqa: E731
    G = ConstraintSet.of([0, 1, 3, 4, 5, 6], 7)
    assert _reference_walk(p, membership, G) is None
    oracle = OutmapOracle(p, membership)
    assert oracle.violates(G, 2)
    assert _reference_query(p, membership, G, 2)[0]
    assert (True, oracle.edge_evals) == _reference_walk_query(p, membership, G, 2)


def test_the_walk_falls_back_to_the_scan_on_a_true_uso(monkeypatch):
    u, _ = uso_from_dict(CYCLING_4CUBE)
    assert validate_uso(u) is None
    queries = list(_every_query(u.n))
    expected = [h in uso_violators(u, G) for G, h in queries]
    scanned = []
    subgrid = grid_uso._subgrid

    def spy(gmask, partition):
        scanned.append(gmask)
        return subgrid(gmask, partition)

    monkeypatch.setattr(grid_uso, "_subgrid", spy)
    oracle = uso_oracle(u)
    assert [oracle.violates(G, h) for G, h in queries] == expected
    # on G = {0,1,2,3,4,6,7} the walk runs from 0,2,4,6 back to it
    assert 0b11011111 in scanned


def _relabeled(u, swaps):
    """u with the two members of each block i in `swaps` exchanged."""
    image = list(range(u.n))
    for i in swaps:
        a, b = u.partition.blocks[i]
        image[a], image[b] = b, a
    outmap = {
        tuple(image[x] for x in J): sum(1 << image[x] for x in range(u.n) if (s >> x) & 1)
        for J, s in u.outmap.items()
    }
    return GridUso(u.partition, outmap)


def _cyclic_layers_uso(m):
    """A delta = 4 USO with a directed cycle: block 0 of m members is
    combed by rank (each edge in it points to the lower member), and
    layer a is a relabeling of the cyclic cube shifted onto blocks 1-3,
    a different one for each a."""
    cube = cyclic_cube_uso()
    p = GridPartition.uniform([m, 2, 2, 2])
    outmap = {}
    for a in range(m):
        swaps = [i for i in range(3) if (a >> i) & 1]
        for J, s in _relabeled(cube, swaps).outmap.items():
            outmap[(a,) + tuple(x + m for x in J)] = (1 << a) - 1 | s << m
    return GridUso(p, outmap)


def _cyclic_and_random_usos():
    cube = cyclic_cube_uso()
    usos = [_relabeled(cube, [i for i in range(3) if (r >> i) & 1]) for r in range(8)]
    for sizes in [(2, 2, 2), (3, 2, 2)]:
        usos += [random_uso(GridPartition.uniform(list(sizes)), Rng(seed)) for seed in range(4)]
    usos += [_cyclic_layers_uso(m) for m in (2, 3, 4)]
    return usos


def test_every_answer_equals_the_violator_mapping_on_cyclic_and_random_usos():
    relabelings, cyclic = set(), 0
    for u in _cyclic_and_random_usos():
        assert validate_uso(u) is None
        relabelings.add(tuple(sorted(u.outmap.items())))
        cyclic += has_directed_cycle(u)
        oracle = uso_oracle(u)
        for G, h in _every_query(u.n):
            assert oracle.violates(G, h) == (h in uso_violators(u, G)), (G.mask, h)
    assert len(relabelings) == 8 + 4 + 4 + 3
    # the cube's relabelings and the combed layers at least
    assert cyclic >= 8 + 3


@pytest.mark.parametrize("delta", [3, 4, 5])
def test_walk_stays_within_four_edge_evaluations_per_call(delta):
    n = 1000
    p = GridPartition.uniform([n // delta + (i < n % delta) for i in range(delta)])
    for seed in (1, 2, 3):
        rankings = _ranked_at_random(p, seed)
        oracle = coordinate_order_oracle(p, rankings)
        C, _ = solve(oracle, Rng(seed))
        assert sorted(C) == sorted(r[0] for r in rankings)
        assert oracle.edge_evals < 4 * oracle.primitive_calls


def test_oracle_answers_exactly_under_concurrent_queries():
    import sys
    import threading

    u = random_uso(GridPartition.uniform([3, 2, 2]), Rng(5))
    # consecutive queries of one thread ask about different sets
    queries = [
        (ConstraintSet(g, u.n), h)
        for h in range(u.n)
        for g in range(1 << u.n)
        if not (g >> h) & 1
    ]
    expected = [h in uso_violators(u, G) for G, h in queries]
    reference = uso_oracle(u)
    for G, h in queries:
        reference.violates(G, h)
    oracle = uso_oracle(u)
    rounds, wrong = 20, []

    def worker(offset):
        # each thread starts elsewhere, so the threads keep replacing
        # each other's last set
        order = list(range(offset, len(queries))) + list(range(offset))
        for _ in range(rounds):
            for i in order:
                G, h = queries[i]
                try:
                    if oracle.violates(G, h) != expected[i]:
                        wrong.append((G.mask, h))
                except AssertionError as exc:  # a torn classification
                    wrong.append((G.mask, h, str(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(t * len(queries) // 8,))
            for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert oracle.primitive_calls == 8 * rounds * len(queries)
    assert oracle.edge_evals == 8 * rounds * reference.edge_evals


# -- the reduction, end to end -------------------------------------------


def _sink_of_subgrid(u, gmask):
    members = [[h for h in b if (gmask >> h) & 1] for b in u.partition.blocks]
    from itertools import product

    for J in product(*members):
        if u.outmap[J] & gmask == 0:
            return J
    raise AssertionError


def test_tabulated_uso_satisfies_reduction_claims():
    for shape_i, sizes in enumerate(SHAPES):
        for seed in range(5):
            p = GridPartition.uniform(list(sizes))
            u = random_uso(p, Rng(1000 * shape_i + seed))
            space = tabulate(uso_oracle(u))
            assert space.check_axioms() is None
            assert space.combinatorial_dimension() == p.delta
            n = p.n
            for g in range(1 << n):
                members = [[h for h in b if (g >> h) & 1] for b in p.blocks]
                valid = all(members)
                v = space.violator_mask(g)
                if valid:
                    sink = _sink_of_subgrid(u, g)
                    assert sorted(space.basis_of(ConstraintSet(g, n))) == sorted(sink)
                    # no full block inside the violator set
                    assert not any(
                        all((v >> h) & 1 for h in b) for b in p.blocks
                    )
                else:
                    assert any(
                        all((v >> h) & 1 for h in b) and not any(m)
                        for b, m in zip(p.blocks, members)
                    )


def test_solve_agrees_with_sink_scan_on_random_usos():
    per_shape = 100
    for shape_i, sizes in enumerate(SHAPES):
        p = GridPartition.uniform(list(sizes))
        for seed in range(per_shape):
            u = random_uso(p, Rng(7000 + 100 * shape_i + seed))
            oracle = uso_oracle(u)
            C, stats = solve(oracle, Rng(seed))
            assert tuple(sorted(C)) == sink_by_scan(u)
            assert stats.w_augmentations <= p.delta


def test_random_uso_spaces_dimension_equals_block_count():
    space = random_uso_space(42, (3, 2, 2))
    assert space.combinatorial_dimension() == 3
