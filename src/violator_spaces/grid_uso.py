"""Grid unique-sink orientations and their violation oracles.

A grid is the product of disjoint blocks partitioning {0..n-1}; a vertex
picks one element per block.  An orientation is stored as an outmap
(vertex -> outgoing directions) and is a USO when every nonempty subgrid
has exactly one sink.  The induced violator mapping sends a set meeting
every block to the outmap of its subgrid's sink, and any other set to
the union of the blocks it misses.

validate_uso counts sinks only on the subgrids with at most three
members per block.  Listed with each block's choices sorted by mask,
every proper subgrid comes first, so the first subgrid whose sink count
is not 1 is inclusion-minimal.  By the lemma below such a subgrid has at
most two members per block or is a line of three, so the restricted
scan meets it, in the same order as a scan over every subgrid, and both
accept the same orientations and return the same witness.

Lemma.  Let F be a subgrid whose proper subgrids each have one sink,
with a block i of k >= 3 members, and not a line of three.  Then F has
exactly one sink.

- At most one: two sinks u, v are both sinks of F minus any member x of
  F_i other than u_i and v_i, a proper subgrid.
- Let w_p be the sink of the layer of F with block i fixed to p.  Then
  "p -> q iff w_p points to q" is a tournament T on F_i, since F cut to
  {p, q} in block i has one sink, and for S within F_i the sinks of F
  cut to S are the w_p with p a sink of T on S.
- k >= 4: if F has no sink, every triple of F_i spans a proper subgrid,
  so every triple of T is transitive; then T is transitive and has a
  sink, a contradiction.  So k = 3 and T is a 3-cycle x -> z -> y -> x:
  within F, a = w_x points only to z, b = w_z to y and c = w_y to x.
- As F is not a line, another block j has at least two members.  Pick e
  in F_j that is the j-coordinate of exactly one of a, b, c, or of none.
  F minus e in block j is a proper subgrid, so its tournament on F_i is
  transitive, yet at least two of a, b, c stay layer sinks in it.  If
  only a has a_j = e, then b and c force the arcs z -> y, x -> z and
  y -> x, the 3-cycle again; the other cases are symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, product
from math import comb, prod
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .algorithms import Rng
from .core import ConstraintSet, ViolationOracle, _bits, _Counter, _mask_of
from .explicit import EXHAUSTIVE_WARN_N

MAX_RANDOM_N = 12
MAX_DENSE_VERTICES = 1 << 16

Vertex = Tuple[int, ...]


class EdgeConsistencyError(Exception):
    """Some edge is oriented both ways or neither way."""


class GenerationExhausted(Exception):
    """Rejection sampling failed to find a USO within the attempt cap."""


@dataclass(frozen=True)
class GridPartition:
    """Disjoint nonempty blocks covering {0..n-1}; what is derived from
    the blocks is computed on first read and kept."""

    blocks: Tuple[Tuple[int, ...], ...]

    @classmethod
    def uniform(cls, sizes: Sequence[int]) -> "GridPartition":
        """Consecutive blocks of the given sizes: 0..s0-1, s0..s0+s1-1, ..."""
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError("every block must be nonempty")
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(tuple(range(start, start + s)))
            start += s
        return cls(blocks=tuple(blocks))

    @cached_property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def delta(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_of(self) -> Tuple[int, ...]:
        out = [0] * self.n
        for i, b in enumerate(self.blocks):
            for h in b:
                out[h] = i
        return tuple(out)

    def vertices(self) -> Iterable[Vertex]:
        return product(*self.blocks)

    @cached_property
    def block_masks(self) -> Tuple[int, ...]:
        return tuple(_mask_of(b) for b in self.blocks)

    def vertex_count(self) -> int:
        count = 1
        for b in self.blocks:
            count *= len(b)
        return count


def _missing_blocks(gmask: int, block_masks: Sequence[int]) -> int:
    """Union of the blocks gmask misses; 0 when it meets every block."""
    missing = 0
    for bm in block_masks:
        if not gmask & bm:
            missing |= bm
    return missing


def _check_dense(partition: GridPartition) -> None:
    """Reject a grid before a dense outmap over its vertices is built."""
    if partition.vertex_count() > MAX_DENSE_VERTICES:
        raise ValueError("grid too large for a dense outmap")


def _subgrid(gmask: int, partition: GridPartition) -> Iterable[Vertex]:
    """Vertices of the subgrid spanned by a set meeting every block."""
    return product(*([h for h in b if (gmask >> h) & 1] for b in partition.blocks))


def _step(J: Vertex, j: int, block_of: Sequence[int]) -> Vertex:
    """Neighbor of J in direction j: swap j into its block's slot."""
    i = block_of[j]
    return J[:i] + (j,) + J[i + 1 :]


class GridUso:
    """Dense outmap over all vertices; edge consistency is checked at
    construction and failures raise with the offending edge.  `validated`
    starts False; validate_uso sets it on success, and coordinate_order_uso
    and combed_random_uso on the USOs they build."""

    def __init__(self, partition: GridPartition, outmap: Dict[Vertex, int]):
        self.partition = partition
        _check_dense(partition)
        block_of = partition.block_of
        n = partition.n
        full = (1 << n) - 1
        vertices = list(partition.vertices())
        for J in vertices:
            if J not in outmap:
                raise ValueError(f"outmap missing vertex {J}")
            s = outmap[J]
            if s < 0 or s & ~full or s & _mask_of(J):
                raise ValueError(f"outmap of {J} is not a subset of H minus J")
        self.outmap = {J: outmap[J] for J in vertices}
        for J in vertices:
            for j in range(n):
                jj = J[block_of[j]]
                if j == jj or j < jj:
                    continue
                Jp = _step(J, j, block_of)
                out_here = (self.outmap[J] >> j) & 1
                out_back = (self.outmap[Jp] >> jj) & 1
                if out_here == out_back:
                    raise EdgeConsistencyError(
                        f"edge {{{J}, {Jp}}} is oriented "
                        + ("both ways" if out_here else "neither way")
                    )
        self.validated = False

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def delta(self) -> int:
        return self.partition.delta

    def s(self, J: Vertex) -> ConstraintSet:
        return ConstraintSet(self.outmap[J], self.n)


@dataclass(frozen=True)
class UsoWitness:
    """A nonempty subgrid with a sink count different from one."""

    G: ConstraintSet
    sinks: Tuple[Vertex, ...]

    def describe(self, names: Sequence[str]) -> str:
        return f"subgrid {self.G.label(names)} has {len(self.sinks)} sinks"


def _valid_subsets(partition: GridPartition):
    """Subsets meeting every block in 1-3 members, as (mask, members-per-block)."""
    per_block = [
        sorted((_mask_of(c), c) for r in (1, 2, 3) for c in combinations(b, r))
        for b in partition.blocks
    ]
    for combo in product(*per_block):
        mask = 0
        for bm, _ in combo:
            mask |= bm
        yield mask, [chosen for _, chosen in combo]


def validate_uso(u: GridUso) -> Optional[UsoWitness]:
    """Unique-sink check over the subgrids with at most three members per
    block, which decides it for every subgrid (see the module's lemma).

    Returns None and marks the orientation validated when each of them
    has exactly one sink, otherwise the first offending subgrid.  The
    budget is 2**16 subgrids, Π(k + C(k,2) + C(k,3)) over the block
    sizes k; a larger grid raises ValueError before any is listed.
    """
    count = prod(k + comb(k, 2) + comb(k, 3) for k in map(len, u.partition.blocks))
    if count > 1 << EXHAUSTIVE_WARN_N:
        raise ValueError(f"validation would scan {count} > {1 << EXHAUSTIVE_WARN_N} subgrids")
    for mask, members in _valid_subsets(u.partition):
        sinks = [J for J in product(*members) if u.outmap[J] & mask == 0]
        if len(sinks) != 1:
            return UsoWitness(ConstraintSet(mask, u.n), tuple(sinks))
    u.validated = True
    return None


def coordinate_order_uso(
    partition: GridPartition, rankings: Sequence[Sequence[int]]
) -> GridUso:
    """Orientation with every edge pointing towards the lower rank.

    The sink of any subgrid is its blockwise minimum, so this is always
    a USO, and the induced violator space is acyclic.
    """
    member = _coordinate_order(partition, rankings)
    _check_dense(partition)
    outmap = {
        J: _mask_of(j for j in range(partition.n) if member(J, j))
        for J in partition.vertices()
    }
    u = GridUso(partition, outmap)
    u.validated = True
    return u


def _coordinate_order(
    partition: GridPartition, rankings: Sequence[Sequence[int]]
) -> Callable[[Vertex, int], bool]:
    """Membership "j is in the outmap of J" of the coordinate-order
    orientation: j ranks below J's element of its block."""
    if len(rankings) != partition.delta:
        raise ValueError("need one ranking per block")
    rank = [-1] * partition.n
    for b, ordering in zip(partition.blocks, rankings):
        if sorted(ordering) != list(b):
            raise ValueError(f"ranking {ordering} is not an order of block {b}")
        for pos, h in enumerate(ordering):
            rank[h] = pos
    block_of = partition.block_of
    return lambda J, j: rank[j] < rank[J[block_of[j]]]


# Fixed 2x2x2 orientation over blocks ({0,1},{2,3},{4,5}): every subgrid
# has a unique sink, yet the six vertices other than the global sink and
# source form a directed cycle.  Found by exhaustive search over the
# 3-cube orientations; see tests for the revalidation.
_CYCLIC_CUBE_OUTMAP: Dict[Vertex, Tuple[int, ...]] = {
    (0, 2, 4): (),
    (0, 2, 5): (1, 4),
    (0, 3, 4): (2, 5),
    (0, 3, 5): (2,),
    (1, 2, 4): (0, 3),
    (1, 2, 5): (4,),
    (1, 3, 4): (0,),
    (1, 3, 5): (0, 2, 4),
}


def cyclic_cube_uso() -> GridUso:
    """Frozen 2x2x2 USO containing a directed cycle."""
    partition = GridPartition.uniform([2, 2, 2])
    outmap = {J: _mask_of(dirs) for J, dirs in _CYCLIC_CUBE_OUTMAP.items()}
    u = GridUso(partition, outmap)
    witness = validate_uso(u)
    assert witness is None, "frozen cyclic-cube orientation must be a USO"
    return u


def random_uso(
    partition: GridPartition, rng: Rng, max_attempts: int = 10000
) -> GridUso:
    """Uniform edge-consistent orientation, resampled until it is a USO."""
    if partition.n > MAX_RANDOM_N:
        raise ValueError(f"rejection sampling supports n <= {MAX_RANDOM_N}")
    block_of = partition.block_of
    vertices = list(partition.vertices())
    for _ in range(max_attempts):
        outmap = {J: 0 for J in vertices}
        for J in vertices:
            for j in range(partition.n):
                jj = J[block_of[j]]
                if j <= jj:
                    continue
                if rng.randbelow(2):
                    outmap[J] |= 1 << j
                else:
                    outmap[_step(J, j, block_of)] |= 1 << jj
        u = GridUso(partition, outmap)
        if validate_uso(u) is None:
            return u
    raise GenerationExhausted(f"no USO found in {max_attempts} attempts")


def combed_random_uso(partition: GridPartition, rng: Rng) -> GridUso:
    """Random USO built without rejection, for grids where rejection
    sampling rarely succeeds.

    The first block is combed by a random ranking, so every edge in it
    points to the lower rank, and each of its layers (one per element of
    the block) gets an independent combed USO of the other blocks.  The
    sink of any subgrid is the sink of its lowest-ranked layer, so every
    subgrid has exactly one sink.
    """
    _check_dense(partition)

    def comb(blocks) -> Dict[Vertex, int]:
        if not blocks:
            return {(): 0}
        ranking = rng.subset(list(blocks[0]), len(blocks[0]))
        outmap = {}
        for pos, a in enumerate(ranking):
            lower = _mask_of(ranking[:pos])
            for J, s in comb(blocks[1:]).items():
                outmap[(a,) + J] = lower | s
        return outmap

    u = GridUso(partition, comb(partition.blocks))
    u.validated = True
    return u


def uso_violators(u: GridUso, G: ConstraintSet) -> ConstraintSet:
    """The induced violator set of G.

    A set meeting every block maps to the outmap of its subgrid's sink;
    any other set maps to the union of the blocks it misses.
    """
    if not u.validated:
        raise ValueError("validate the orientation first")
    gmask = G.mask
    missing = _missing_blocks(gmask, u.partition.block_masks)
    if missing:
        return ConstraintSet(missing, u.n)
    for J in _subgrid(gmask, u.partition):
        if u.outmap[J] & gmask == 0:
            return ConstraintSet(u.outmap[J], u.n)
    raise AssertionError("validated USO must have a sink in every subgrid")


class OutmapOracle(ViolationOracle):
    """Violation oracle over an outmap, counting edge evaluations.

    One edge evaluation is one membership query "is j in the outmap of
    J".  With the block masks computed once, a set missing a block is
    answered in O(delta) big-integer operations and no evaluation, and a
    vertex in O(delta) operations and exactly one evaluation.  Any other
    set walks to its subgrid's sink, as `algorithms._chase` walks to a
    basis: from the vertex of each block's lowest member in G, G's
    members are asked about cyclically in ascending order, skipping the
    current vertex J's own; an out-edge j moves J to `_step(J, j)`, and
    once all g - delta members outside J are asked in a row without one,
    J is the sink and is asked about h.  A vertex the walk reaches twice,
    which a USO allows too (on some cyclic 4-cube USOs the walk over a
    3-cube face cycles), falls back to a scan: each vertex J, in
    product order, is asked about the members outside J in ascending
    order until one is in its outmap, the first vertex where none is is
    asked about h, and with none at all the scan raises.
    Every membership query, the walk's and the scan's, is charged one
    evaluation, and no other query is made.  On a non-USO membership
    whose subgrid has several sinks, the walk may answer from another
    sink than the scan's first.

    A member scan asks about one set G for many h, so the oracle keeps
    the last queried set's classification: (mask, union of the blocks it
    misses, its vertex or None).  The tuple is replaced by one attribute
    assignment, so threads sharing the oracle read either the old or the
    new classification whole.  Only the classification is kept: the
    charges per query are the same as without it.
    """

    def __init__(
        self,
        partition: GridPartition,
        membership: Callable[[Vertex, int], bool],
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(partition.n, partition.delta, names=names)
        self.partition = partition
        self._membership = membership
        self._edge_evals = _Counter()
        self._last: Tuple[int, int, Optional[Vertex]] = (-1, 0, None)

    @property
    def edge_evals(self) -> int:
        return self._edge_evals.value

    def _violates(self, G: ConstraintSet, h: int) -> bool:
        gmask = G.mask
        last = self._last
        if last[0] != gmask:
            block_masks = self.partition.block_masks
            missing = _missing_blocks(gmask, block_masks)
            J = None
            # the block count, not self.delta, which callers may override
            if not missing and gmask.bit_count() == len(block_masks):
                J = tuple((gmask & bm).bit_length() - 1 for bm in block_masks)
            self._last = last = (gmask, missing, J)
        _, missing, J = last
        if missing:
            return (missing >> h) & 1 == 1
        charge = self._edge_evals.increment
        member = self._membership
        if J is not None:
            charge()
            return member(J, h)
        members = list(G)
        g = len(members)
        block_masks, block_of = self.partition.block_masks, self.partition.block_of
        J = tuple((gmask & bm & -(gmask & bm)).bit_length() - 1 for bm in block_masks)
        seen = {J}
        quiet = i = 0
        # J is the sink once the members outside it, all but one per
        # block, are asked in a row without an out-edge
        while quiet < g - len(block_masks):
            j = members[i]
            i = (i + 1) % g
            if j in J:
                continue
            charge()
            if not member(J, j):
                quiet += 1
                continue
            J = _step(J, j, block_of)
            if J in seen:
                break
            seen.add(J)
            quiet = 0
        else:
            charge()
            return member(J, h)
        for J in _subgrid(gmask, self.partition):
            for j in members:
                if j not in J:
                    charge()
                    if member(J, j):
                        break
            else:
                charge()
                return member(J, h)
        raise AssertionError("no sink found: orientation is not a USO")


def uso_oracle(u: GridUso, names: Optional[Sequence[str]] = None) -> OutmapOracle:
    """Oracle adapter for a validated dense USO."""
    if not u.validated:
        raise ValueError("validate the orientation first")
    outmap = u.outmap
    return OutmapOracle(
        u.partition, lambda J, j: (outmap[J] >> j) & 1 == 1, names=names
    )


def coordinate_order_oracle(
    partition: GridPartition, rankings: Sequence[Sequence[int]]
) -> OutmapOracle:
    """Lazy oracle for coordinate-order orientations of any size.

    Equivalent to uso_oracle(coordinate_order_uso(...)) but without the
    dense table, so it scales to the benchmark sizes.
    """
    return OutmapOracle(partition, _coordinate_order(partition, rankings))


def sink_by_scan(u: GridUso) -> Vertex:
    """Global sink located by brute force over all vertices."""
    for J in u.partition.vertices():
        if u.outmap[J] == 0:
            return J
    raise AssertionError("a USO has a global sink")


def has_directed_cycle(u: GridUso) -> bool:
    """Whether the vertex digraph, with an arc from J to _step(J, j) for
    each j in J's outmap, has a directed cycle, by graphlib's topological
    sort: a reference that shares no code with the solvers."""
    block_of = u.partition.block_of
    arcs = {J: [_step(J, j, block_of) for j in _bits(s)] for J, s in u.outmap.items()}
    try:
        TopologicalSorter(arcs).prepare()
    except CycleError:
        return True
    return False
