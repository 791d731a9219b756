"""Ground-set primitives shared by every other module.

Constraints are dense integer indices 0..n-1; human-readable names only
appear in file formats and CLI output.  ConstraintSet is an immutable
bitset over that range, and ViolationOracle is the query contract every
solver runs against: a deterministic violation test plus a monotone call
counter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence


class OracleContractError(Exception):
    """A violation query broke the oracle contract (h must lie outside G)."""


class _Counter:
    """Monotone counter, exact under concurrent increments without a lock.

    `increment` is the bound `__next__` of an `itertools.count`: one C
    call that CPython runs to completion under the GIL, so no tick is
    lost when threads share an oracle.  `value` reads the next number
    from the count's repr, which consumes no tick (its pickle support is
    deprecated and is not used).
    """

    __slots__ = ("_ticks", "increment")

    def __init__(self, start: int = 0) -> None:
        self._ticks = count(start)
        self.increment = self._ticks.__next__

    @property
    def value(self) -> int:
        return int(repr(self._ticks)[len("count("):-1])


def _bits(m: int) -> Iterator[int]:
    """Indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class ConstraintSet:
    """Immutable subset of the ground set {0..n-1} with exact set algebra.

    Backed by an arbitrary-precision bitmask, so any n is supported; the
    mask is exposed for table indexing.  All binary operations require
    both operands to live over the same ground set.
    """

    __slots__ = ("mask", "n")

    def __init__(self, mask: int, n: int):
        if n < 0:
            raise ValueError("ground-set size must be non-negative")
        if mask < 0 or mask >> n:
            raise ValueError(f"set contains indices outside 0..{n - 1}")
        self.mask = mask
        self.n = n

    @classmethod
    def empty(cls, n: int) -> "ConstraintSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "ConstraintSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "ConstraintSet":
        mask = 0
        for h in members:
            if not 0 <= h < n:
                raise ValueError(f"index {h} outside 0..{n - 1}")
            mask |= 1 << h
        return cls(mask, n)

    def _check_compatible(self, other: "ConstraintSet") -> None:
        if not isinstance(other, ConstraintSet):
            raise TypeError(f"expected ConstraintSet, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"ground-set size mismatch: {self.n} vs {other.n}")

    def __or__(self, other: "ConstraintSet") -> "ConstraintSet":
        self._check_compatible(other)
        return ConstraintSet(self.mask | other.mask, self.n)

    def issubset(self, other: "ConstraintSet") -> bool:
        self._check_compatible(other)
        return self.mask & ~other.mask == 0

    def add(self, h: int) -> "ConstraintSet":
        if not 0 <= h < self.n:
            raise ValueError(f"index {h} outside 0..{self.n - 1}")
        return ConstraintSet(self.mask | (1 << h), self.n)

    def remove(self, h: int) -> "ConstraintSet":
        if not 0 <= h < self.n:
            raise ValueError(f"index {h} outside 0..{self.n - 1}")
        return ConstraintSet(self.mask & ~(1 << h), self.n)

    def __contains__(self, h: int) -> bool:
        return 0 <= h < self.n and (self.mask >> h) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstraintSet)
            and self.mask == other.mask
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def sort_key(self) -> tuple:
        """Canonical order: cardinality first, then lexicographic members."""
        return (len(self), tuple(self))

    def label(self, names: Sequence[str]) -> str:
        """Render via per-index names; the empty set renders as a symbol."""
        if not self.mask:
            return "∅"
        return ",".join(names[h] for h in self)

    def __repr__(self) -> str:
        return f"ConstraintSet({{{', '.join(map(str, self))}}}, n={self.n})"


class ViolationOracle(ABC):
    """Violation-test contract: size n, dimension hint delta, counted queries.

    The oracle must be deterministic: repeated queries on the same (G, h)
    return the same answer.  Every accepted `violates` query increments
    `primitive_calls` by exactly one; rejected queries (h inside G) raise
    before counting so call accounting stays exact.
    """

    def __init__(self, n: int, delta: int, names: Optional[Sequence[str]] = None):
        if n < 0:
            raise ValueError("ground-set size must be non-negative")
        if delta < 1:
            raise ValueError("combinatorial-dimension hint must be >= 1")
        self.n = n
        self.delta = delta
        self.names = list(names) if names is not None else [f"h{i}" for i in range(n)]
        if len(self.names) != n:
            raise ValueError("need exactly one name per constraint")
        self._calls = _Counter()

    @property
    def primitive_calls(self) -> int:
        return self._calls.value

    def ground_set(self) -> ConstraintSet:
        return ConstraintSet.full(self.n)

    def violates(self, G: ConstraintSet, h: int) -> bool:
        """True iff h violates G.  Requires h outside G."""
        if G.n != self.n:
            raise ValueError(f"set over ground size {G.n}, oracle has {self.n}")
        if not 0 <= h < self.n:
            raise ValueError(f"index {h} outside 0..{self.n - 1}")
        if (G.mask >> h) & 1:
            raise OracleContractError(
                f"violation test requires h not in G (h={h}, G={sorted(G)})"
            )
        self._calls.increment()
        return self._violates(G, h)

    @abstractmethod
    def _violates(self, G: ConstraintSet, h: int) -> bool:
        """Instance-specific violation test; h is guaranteed outside G."""


@dataclass
class SolveStats:
    """Counters gathered by one solver run, reproducible given rng_seed."""

    rng_seed: int
    primitive_calls: int = 0
    basis2_calls: int = 0
    trivial_calls: int = 0
    loop_iterations: int = 0
    w_augmentations: int = 0
    reweight_iterations: int = 0
