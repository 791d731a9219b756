"""Table-backed violator spaces for small ground sets.

Everything here is exhaustive by design: axiom verification walks all
2^n subsets, basis enumeration and the equivalence-class structure are
exact, and the conversions between the three equivalent representations
(violator table, abstract value table, concrete minimum-of-intersection
problem) are the canonical constructions.

Locality is checked on covering pairs (G minus x, G) only, in
O(n * 2^n), and the first failing one is the witness: the one that the
scan over all pairs (G in mask order, F in decreasing-mask order) finds
first.  Let F be that witness for G.  G's proper subsets come earlier,
so locality holds inside each of them, and for x in G outside F,
locality on (F, G - x) makes G - x a witness for G too.  G - x contains
F, so it is not scanned after F: F = G - x, the first failing covering
pair (x ascending).

A value table w is local exactly when its induced violator table
V(G) = {h outside G : w(G + h) > w(G)} is, so that table is checked.  On
a monotone w, G misses V(G - x) iff w(G - x) = w(G), and then V(G - x)
is inside V(G): a covering pair fails for w iff it fails for V.  The
argument above, with h raising w(G) but not w(F), makes the first
witness (F, h) of w that covering pair with its least such h.

The ground-set size is capped at 24 table entries-wise; exhaustive
checks get slow in practice above n = 16, which is where the CLI warns.

Which constructors trust their input: the public ExplicitViolatorSpace
and AbstractLpTable constructors check the table's length and every
entry, and neither trusts the axioms until check_axioms() passes.
Tables the library builds itself skip what holds by construction:
ConcreteLpProblem.to_abstract returns a value table with its violator
table already checked, without running check_axioms, and it,
AbstractLpTable.check_axioms, tabulate_oracle and
fileio.explicit_from_dict hand their mask-built tables to the private
ExplicitViolatorSpace._from_masks, which neither copies nor range-checks
them.  The tests run the skipped checks on every such table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .core import ConstraintSet, ViolationOracle, _bits, _mask_of, _names

MAX_TABLE_N = 24
EXHAUSTIVE_WARN_N = 16

INFINITY_TOKEN = "+inf"


class NotValidatedError(Exception):
    """Operation requires a table that has passed its axiom check."""


class CyclicSpaceError(Exception):
    """Operation requires an acyclic violator space."""


@dataclass(frozen=True)
class AxiomWitness:
    """Counterexample to an axiom of a violator table or a value table.

    Consistency witnesses have F == G, monotonicity ones w(F) > w(G);
    locality ones carry F subset of G with G disjoint from V(F) but
    V(G) != V(F), and on a value table the least h raising w(G) but not w(F).
    """

    axiom: str
    F: ConstraintSet
    G: ConstraintSet
    h: Optional[int] = None

    def describe(self, names: Sequence[str]) -> str:
        F, G = self.F.label(names), self.G.label(names)
        if self.axiom == "consistency":
            return f"consistency fails: G={G} meets V(G)"
        if self.axiom == "monotonicity":
            return f"monotonicity fails: w({F}) > w({G})"
        if self.h is not None:
            return f"locality fails: F={F} G={G} h={names[self.h]}"
        return f"locality fails: F={F} G={G} with G disjoint from V(F) but V(G) != V(F)"


def check_table_size(kind: str, n: int) -> None:
    """Reject a table over n elements before 2^n entries are built."""
    if not 0 <= n <= MAX_TABLE_N:
        raise ValueError(f"{kind} tables support 0 <= n <= {MAX_TABLE_N}")


class ExplicitViolatorSpace:
    """Full table G -> V(G) over all 2^n subsets of {0..n-1}."""

    def __init__(
        self,
        n: int,
        table: Sequence[int],
        names: Optional[Sequence[str]] = None,
    ):
        check_table_size("explicit", n)
        size = 1 << n
        if len(table) != size:
            raise ValueError(f"table must have {size} entries, got {len(table)}")
        full = size - 1
        for g, v in enumerate(table):
            if v < 0 or v & ~full:
                raise ValueError(f"V entry for subset {g} is not a subset of H")
        self._adopt(n, list(table), names, False)

    @classmethod
    def _from_masks(
        cls,
        n: int,
        table: List[int],
        names: Optional[Sequence[str]] = None,
        checked: bool = False,
    ) -> "ExplicitViolatorSpace":
        """A space over a table its caller built from masks: 2^n entries,
        each a subset of {0..n-1}, with 0 <= n <= MAX_TABLE_N.  The list is
        kept as it is, neither copied nor range-checked; the caller must
        not change it afterwards."""
        space = cls.__new__(cls)
        space._adopt(n, table, names, checked)
        return space

    def _adopt(
        self, n: int, table: List[int], names: Optional[Sequence[str]], checked: bool
    ) -> None:
        self.n = n
        self._table = table
        self.names = _names(names, n)
        self._checked = checked
        # the last structure() result; the table never changes
        self._structure: Optional["BasisStructure"] = None

    @property
    def checked(self) -> bool:
        return self._checked

    def _require_checked(self) -> None:
        if not self._checked:
            raise NotValidatedError("run check_axioms() on this space first")

    def violator_mask(self, mask: int) -> int:
        return self._table[mask]

    # -- axioms -------------------------------------------------------

    def check_axioms(self) -> Optional[AxiomWitness]:
        """Verify consistency and locality exhaustively.

        Returns None and marks the space checked on success, otherwise the
        first witness found (subsets scanned in mask order, submasks in
        decreasing-mask order), which is a covering pair (module
        docstring).
        """
        table = self._table
        n = self.n
        for g in range(1 << n):
            vg = table[g]
            if g & vg:
                return AxiomWitness(
                    "consistency", ConstraintSet(g, n), ConstraintSet(g, n)
                )
            m = g
            while m:
                low = m & -m
                vf = table[g ^ low]
                if g & vf == 0 and vf != vg:
                    return AxiomWitness(
                        "locality", ConstraintSet(g ^ low, n), ConstraintSet(g, n)
                    )
                m ^= low
        self._checked = True
        return None

    # -- bases --------------------------------------------------------

    def enumerate_bases(self) -> List[ConstraintSet]:
        """All bases, ascending by (cardinality, lexicographic members)."""
        self._require_checked()
        table = self._table
        found = []
        for b in range(1 << self.n):
            vb = table[b]
            m = b
            ok = True
            while m:
                low = m & -m
                if table[b ^ low] == vb:
                    ok = False
                    break
                m ^= low
            if ok:
                found.append(ConstraintSet(b, self.n))
        found.sort(key=ConstraintSet.sort_key)
        return found

    def basis_of(self, G: ConstraintSet) -> ConstraintSet:
        """The (min cardinality, then lexicographically first) basis of G."""
        self._require_checked()
        table = self._table
        target = table[G.mask]
        members = sorted(G)
        for size in range(len(members) + 1):
            for combo in combinations(members, size):
                b = _mask_of(combo)
                if table[b] == target:
                    return ConstraintSet(b, self.n)
        raise AssertionError("unreachable: G is a subset of itself")

    def combinatorial_dimension(self) -> int:
        """Size of a largest basis."""
        self._require_checked()
        return max(len(b) for b in self.enumerate_bases())

    # -- structure ----------------------------------------------------

    def structure(self) -> "BasisStructure":
        """Equivalence classes of bases, the locally-smaller order, and
        either a cycle witness or a deterministic linear extension.

        The order is held once as bitmask rows over class indices:
        succ[i] has bit j iff classes[i] <=0 classes[j], and reach is its
        transitive closure (Warshall); every field is read off the two.
        """
        self._require_checked()
        bases = self.enumerate_bases()
        # bases arrive sorted and a dict keeps first-insertion order, so
        # each class's members, and the classes by representative, are
        # already in canonical order
        by_violators: Dict[int, List[ConstraintSet]] = {}
        for b in bases:
            by_violators.setdefault(self._table[b.mask], []).append(b)
        # [B] <=0 [C] iff some member of [B] is disjoint from V([C]).
        succ = []
        for members in by_violators.values():
            row = 0
            for j, v in enumerate(by_violators):
                if any(b.mask & v == 0 for b in members):
                    row |= 1 << j
            succ.append(row)
        k = len(succ)
        reach = list(succ)
        for j in range(k):
            bit, row = 1 << j, reach[j]
            for i in range(k):
                if reach[i] & bit:
                    reach[i] |= row
        # the least class that reaches, and is reached by, another one
        start = next(
            (i for i in range(k)
             if any(reach[j] >> i & 1 for j in _bits(reach[i] & ~(1 << i)))),
            None,
        )
        acyclic = start is None
        self._structure = BasisStructure(
            space=self,
            bases=bases,
            classes=[
                BasisClass(ConstraintSet(v, self.n), members)
                for v, members in by_violators.items()
            ],
            leq0=_pairs(succ),
            leq1=_pairs(reach),
            acyclic=acyclic,
            linear_extension=_linear_extension(succ) if acyclic else None,
            cycle=None if acyclic else _cycle_witness(succ, start),
        )
        return self._structure

    # -- conversions --------------------------------------------------

    def to_concrete(self) -> "ConcreteLpProblem":
        """Concrete representation over basis-equivalence classes.

        Point p carries the classes ordered by the linear extension; the
        constraint for h collects the classes whose bases h does not
        violate.  Only defined for acyclic spaces.  It reuses the last
        structure() built for this space, since the table never changes,
        and builds one only if there is none.
        """
        st = self._structure or self.structure()
        if not st.acyclic:
            raise CyclicSpaceError("cyclic violator space has no concrete form")
        ordered = [st.classes[i] for i in st.linear_extension]
        constraints = [
            tuple(pos for pos, cls in enumerate(ordered) if not (cls.violators.mask >> h) & 1)
            for h in range(self.n)
        ]
        return ConcreteLpProblem(
            points=[cls.display_label(self.names) for cls in ordered],
            constraints=constraints,
            names=list(self.names),
        )

    def oracle(self, delta: Optional[int] = None) -> "TableOracle":
        """Violation oracle backed by this table.

        With delta omitted the exact combinatorial dimension is used,
        which requires a checked space.
        """
        if delta is None:
            delta = max(self.combinatorial_dimension(), 1)
        return TableOracle(self, delta)


class TableOracle(ViolationOracle):
    """Oracle answering from a stored table; one lookup per query."""

    def __init__(self, space: ExplicitViolatorSpace, delta: int):
        super().__init__(space.n, delta, names=space.names)
        self._space = space

    def _violates(self, G: ConstraintSet, h: int) -> bool:
        return (self._space.violator_mask(G.mask) >> h) & 1 == 1


@dataclass
class BasisClass:
    """Bases sharing one violator set; members sorted canonically."""

    violators: ConstraintSet
    members: List[ConstraintSet]

    @property
    def representative(self) -> ConstraintSet:
        return self.members[0]

    def display_label(self, names: Sequence[str]) -> str:
        core = self.representative.label(names).replace(",", "")
        return f"[{core}]" if len(self.members) > 1 else core


@dataclass
class BasisStructure:
    """Bases, their equivalence classes, and the class ordering.

    leq0/leq1 hold index pairs (i, j) meaning classes[i] <= classes[j];
    leq1 is the transitive closure of leq0.  linear_extension lists class
    indices in a total order extending leq1 and is present iff the space
    is acyclic; cycle is a class-index sequence c0, c1, ..., ck with each
    step locally smaller and an edge back from ck to c0, present iff the
    space is cyclic.
    """

    space: ExplicitViolatorSpace
    bases: List[ConstraintSet]
    classes: List[BasisClass]
    leq0: frozenset
    leq1: frozenset
    acyclic: bool
    linear_extension: Optional[List[int]] = None
    cycle: Optional[List[int]] = None

    def class_labels(self) -> List[str]:
        return [cls.display_label(self.space.names) for cls in self.classes]


def _pairs(rows: List[int]) -> frozenset:
    return frozenset((i, j) for i, row in enumerate(rows) for j in _bits(row))


def _linear_extension(succ: List[int]) -> List[int]:
    """Kahn's algorithm over bitmask predecessor rows; ties go to the
    lowest class index, and classes are ordered by representative, so
    ties resolve to the lexicographically least representative."""
    k = len(succ)
    pred = [0] * k
    for i, row in enumerate(succ):
        for j in _bits(row & ~(1 << i)):
            pred[j] |= 1 << i
    placed: List[int] = []
    done = 0
    for _ in range(k):
        nxt = next(i for i in range(k) if not done >> i & 1 and pred[i] & ~done == 0)
        placed.append(nxt)
        done |= 1 << nxt
    return placed


def _cycle_witness(succ: List[int], start: int) -> List[int]:
    """Shortest locally-smaller cycle through start, by BFS with
    neighbours in ascending order and self-loops skipped."""
    parent = {start: None}
    queue = [start]
    for node in queue:  # the queue grows while it is walked
        for nb in _bits(succ[node] & ~(1 << node)):
            if nb == start:
                path = [node]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            if nb not in parent:
                parent[nb] = node
                queue.append(nb)
    raise AssertionError("no cycle found although the order is not antisymmetric")


class AbstractLpTable:
    """Value table w over all subsets, into a linearly ordered token set.

    Tokens are opaque strings; `order` lists them ascending and is the
    single source of the comparison.
    """

    def __init__(
        self,
        n: int,
        values: Sequence[str],
        order: Sequence[str],
        names: Optional[Sequence[str]] = None,
    ):
        check_table_size("abstract", n)
        size = 1 << n
        if len(values) != size:
            raise ValueError(f"need {size} values, got {len(values)}")
        self.order = list(order)
        tokens = set(self.order)
        if len(tokens) != len(self.order):
            raise ValueError("order must not repeat tokens")
        if not tokens.issuperset(values):
            tok = next(tok for tok in values if tok not in tokens)
            raise ValueError(f"value token {tok!r} missing from order")
        self.n = n
        self.values = list(values)
        self.names = _names(names, n)
        # the checked violator table w induces, kept by check_axioms
        self._space: Optional[ExplicitViolatorSpace] = None

    @property
    def checked(self) -> bool:
        return self._space is not None

    def check_axioms(self) -> Optional[AxiomWitness]:
        """Verify monotonicity and locality exhaustively.

        Monotonicity is checked on covering pairs, which implies it for
        all nested pairs; the same pass, visiting each pair (G - h, G)
        once, fills the induced violator table.  Its first locality
        witness (F, G), with the least h raising w(G) but not w(F), is
        w's (subsets in mask order, F in decreasing-mask order, h
        ascending; module docstring), and on success it is kept.
        """
        rank = {tok: i for i, tok in enumerate(self.order)}
        r = [rank[tok] for tok in self.values]
        n = self.n
        # up[f]: the h outside f with w(f + h) > w(f), the violator table
        up = [0] * (1 << n)
        for g in range(1 << n):
            rg = r[g]
            m = g
            while m:
                low = m & -m
                f = g ^ low
                if r[f] > rg:
                    return AxiomWitness(
                        "monotonicity", ConstraintSet(f, n), ConstraintSet(g, n)
                    )
                if r[f] < rg:
                    up[f] |= low
                m ^= low
        space = ExplicitViolatorSpace._from_masks(n, up, names=self.names)
        witness = space.check_axioms()
        if witness is not None:
            raised = up[witness.G.mask] & ~up[witness.F.mask]
            return AxiomWitness(
                "locality", witness.F, witness.G, (raised & -raised).bit_length() - 1
            )
        self._space = space
        return None

    def violator_map(self) -> ExplicitViolatorSpace:
        """The induced violator table: h violates G iff adding h raises w.

        It is the checked space that a successful check_axioms kept, or
        that ConcreteLpProblem.to_abstract built from its intersection
        table; it is acyclic.
        """
        if self._space is None:
            raise NotValidatedError("run check_axioms() on this table first")
        return self._space


class ConcreteLpProblem:
    """Constraints as subsets of a linearly ordered point list.

    The value of a constraint family is the least point (by list order)
    in its intersection; the empty family's intersection is all of X.
    `constraints` is a list, so duplicate subsets are kept with
    positional identity.
    """

    def __init__(
        self,
        points: Sequence[str],
        constraints: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
    ):
        self.points = list(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be unique")
        if INFINITY_TOKEN in self.points:
            raise ValueError(f"point label {INFINITY_TOKEN!r} is reserved")
        m = len(self.points)
        self.constraints: List[Tuple[int, ...]] = []
        for c in constraints:
            tup = tuple(sorted(set(c)))
            if tup and not (0 <= tup[0] and tup[-1] < m):
                raise ValueError(f"constraint {c} indexes outside the point list")
            self.constraints.append(tup)
        self.names = _names(names, len(self.constraints))

    @property
    def n(self) -> int:
        return len(self.constraints)

    def to_abstract(self) -> AbstractLpTable:
        """Value table w(G) = least point of the intersection of G.

        Constraints are identified by their list position, so duplicates
        stay distinct.  Empty intersections map to the reserved maximal
        token.  The table is valid by construction (a least point of an
        intersection is monotone and local: the paper's concrete =>
        LP-type direction), so it is not re-checked; tests run the full
        check_axioms on it.  It comes back checked, with its violator
        table read off the intersection table: adding h to G raises w(G)
        iff the least point p of G's intersection is outside h's
        constraint, so up[G] = without[p], which misses G since every
        member of G holds p, and 0 when the intersection is empty.
        """
        n = self.n
        if n > MAX_TABLE_N:
            raise ValueError(f"too many constraints for a full table (n={n})")
        points = self.points
        m = len(points)
        # without[p]: the constraints that do not contain point p
        without = [(1 << n) - 1] * m
        for h, tup in enumerate(self.constraints):
            for p in tup:
                without[p] &= ~(1 << h)
        cmask = [sum(1 << p for p in tup) for tup in self.constraints]
        inter = [(1 << m) - 1] * (1 << n)
        for g in range(1, 1 << n):
            low = g & -g
            inter[g] = inter[g ^ low] & cmask[low.bit_length() - 1]
        values = []
        up = []
        for x in inter:
            if x:
                p = (x & -x).bit_length() - 1
                values.append(points[p])
                up.append(without[p])
            else:
                values.append(INFINITY_TOKEN)
                up.append(0)
        table = AbstractLpTable(n, values, points + [INFINITY_TOKEN], names=self.names)
        table._space = ExplicitViolatorSpace._from_masks(
            n, up, names=self.names, checked=True
        )
        return table


def check_tabulation_size(n: int) -> None:
    """Refuse to tabulate an oracle over more than EXHAUSTIVE_WARN_N
    elements, before any query."""
    if n > EXHAUSTIVE_WARN_N:
        raise ValueError(f"refusing to tabulate n={n} > {EXHAUSTIVE_WARN_N} subsets")


def tabulate_oracle(oracle: ViolationOracle) -> ExplicitViolatorSpace:
    """Materialize V(G) for every subset by scanning all h outside G.

    Every entry costs counted primitive calls.  The result is unchecked;
    run check_axioms() to certify it.
    """
    n = oracle.n
    check_tabulation_size(n)
    table = []
    for g in range(1 << n):
        G = ConstraintSet(g, n)
        v = 0
        for h in _bits(~g & ((1 << n) - 1)):
            if oracle.violates(G, h):
                v |= 1 << h
        table.append(v)
    return ExplicitViolatorSpace._from_masks(n, table, names=oracle.names)
