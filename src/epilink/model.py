"""Chromosomes, partial assignments, and exact constrained optima.

Chromosomes are fixed-length 0/1 tuples; locus 0 is the leftmost bit in
all textual I/O.  An assignment is a partial map locus -> allele whose
unassigned loci read as the wildcard ``'*'``.  Constrained optima are
always computed by exhaustive enumeration of the free loci, so every
downstream classification (epistasis kind, stationarity, ...) rests on
exact integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

WILDCARD = "*"

#: Maximum number of completions an exhaustive scan may enumerate before
#: refusing.  Overridable per call.
DEFAULT_CAP = 2 ** 24


class EnumerationCapError(RuntimeError):
    """Raised instead of silently running an exponential enumeration."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"exhaustive enumeration needs {required} completions, "
            f"which exceeds the cap of {cap}"
        )
        self.required = required
        self.cap = cap


class AssumptionViolationError(RuntimeError):
    """The problem breaks the unique-global-optimum assumption."""

    def __init__(self, message: str, tied: Sequence[tuple[int, ...]] = ()):
        super().__init__(message)
        self.tied = tuple(tied)


def bits_from_str(s: str) -> tuple[int, ...]:
    if not set(s) <= {"0", "1"}:
        raise ValueError(f"not a bit string: {s!r}")
    return tuple(int(c) for c in s)


def bits_to_str(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def pack_bits(bits: Sequence[int]) -> int:
    """Integer index of a chromosome; locus 0 is the most significant bit."""
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def unpack_bits(value: int, size: int) -> tuple[int, ...]:
    return tuple((value >> (size - 1 - v)) & 1 for v in range(size))


class Assignment:
    """Immutable partial map locus -> allele with wildcard reads.

    ``a[v]`` returns 0, 1, or ``'*'``.  A locus may not be assigned twice
    with conflicting alleles.
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, pairs: Iterable[tuple[int, int]] | Mapping[int, int] = ()):
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        d: dict[int, int] = {}
        for v, a in pairs:
            v = int(v)
            a = int(a)
            if v < 0:
                raise ValueError(f"negative locus {v}")
            if a not in (0, 1):
                raise ValueError(f"allele must be 0 or 1, got {a}")
            if v in d and d[v] != a:
                raise ValueError(f"conflicting alleles for locus {v}")
            d[v] = a
        self._d = dict(sorted(d.items()))
        self._hash = hash(tuple(self._d.items()))

    @classmethod
    def batch_pattern(cls, loci: Iterable[int], pattern: Sequence[int]) -> "Assignment":
        """Batch assignment taking each allele from an indexable pattern.

        With ``pattern`` the global optimum this is ``{(S, g)}``; with its
        complement, ``{(S, g-bar)}``.
        """
        return cls((v, pattern[v]) for v in loci)

    def __getitem__(self, v: int):
        return self._d.get(v, WILDCARD)

    def __contains__(self, v: int) -> bool:
        return v in self._d

    def __iter__(self):
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def items(self):
        return self._d.items()

    @property
    def coverage(self) -> frozenset[int]:
        return frozenset(self._d)

    def __or__(self, other: "Assignment") -> "Assignment":
        return Assignment(list(self._d.items()) + list(other.items()))

    def apply(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Override the assigned loci of a full chromosome."""
        size = len(bits)
        for v in self._d:
            if v >= size:
                raise ValueError(f"locus {v} out of range for length {size}")
        return tuple(self._d.get(v, bits[v]) for v in range(size))

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self._d == other._d

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"({v},{a})" for v, a in self._d.items())
        return f"Assignment({{{inner}}})"

    def to_json(self) -> dict[str, int]:
        return {str(v): a for v, a in self._d.items()}


EMPTY = Assignment()


@dataclass(frozen=True)
class ConstrainedOptima:
    """All maximal-fitness completions of a partial assignment.

    ``fitness`` is the maximal fitness and ``count`` the number of
    completions reaching it.  ``per_locus[v]`` is the exact set of alleles
    occurring at locus ``v`` across the maximizers; for assigned loci it is
    the singleton of the assigned allele.  ``chromosomes`` lists the
    maximizers in packed-index order; it is built on first access only,
    since a scan can tie up to 2^(free loci) of them.
    """

    fitness: int
    count: int
    per_locus: dict[int, frozenset[int]]
    _template: tuple[int, ...] = field(repr=False, compare=False)
    _free: tuple[int, ...] = field(repr=False, compare=False)
    _hits: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def chromosomes(self) -> tuple[tuple[int, ...], ...]:
        rows = np.empty((self.count, len(self._template)), dtype=np.uint8)
        rows[:] = self._template
        rows[:, list(self._free)] = bit_rows(self._hits, len(self._free))
        return tuple(map(tuple, rows.tolist()))


def bit_rows(indices, width: int) -> np.ndarray:
    """The low ``width`` bits of each index as a uint8 row, most significant first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(indices, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.uint8)


def popcounts(width: int, dtype=np.uint8) -> np.ndarray:
    """The number of ones of each index below 2^width, filled by doubling:
    the upper half of each prefix is its lower half plus one."""
    out = np.zeros(2 ** width, dtype=dtype)
    for k in range(width):
        np.add(out[:1 << k], 1, out=out[1 << k:2 << k])
    return out


@dataclass(frozen=True)
class OptimaGrid:
    """Constrained optima of ``a | p`` for every pattern ``p`` on ``loci``.

    Row r is the pattern spelling r on the sorted ``loci`` (lexicographic
    order).  Per row: the maximal ``fitness``, the ``count`` of maximizers,
    and the OR (``ones``) and AND (``all_ones``) of their indices, whose low
    bits spell the ``free`` loci, the lowest locus most significant.
    """

    loci: tuple[int, ...]
    free: tuple[int, ...]
    fitness: np.ndarray
    count: np.ndarray
    ones: np.ndarray
    all_ones: np.ndarray

    def pattern(self, row: int) -> Assignment:
        return Assignment(zip(self.loci, unpack_bits(int(row), len(self.loci))))

    def alleles(self, loci: Sequence[int]) -> np.ndarray:
        """Per row and given free locus, the alleles its maximizers take: bit 0
        (allele 0) iff the AND bit is clear, bit 1 (allele 1) iff the OR bit is set."""
        shifts = len(self.free) - 1 - np.searchsorted(self.free, loci)
        one = (self.ones[:, None] >> shifts) & 1
        zero = 1 - ((self.all_ones[:, None] >> shifts) & 1)
        return zero | (one << 1)


def optima_grid(problem, a: Assignment, loci: Iterable[int], cap: int = DEFAULT_CAP) -> OptimaGrid:
    """Constrained optima of ``a | p`` for every pattern ``p`` on ``loci``,
    from one scan of the 2^(size - |a|) completions of ``a``."""
    return _scan(problem, a, loci, cap)[0]


def check_loci(size: int, loci: Iterable[int]) -> None:
    """Refuse any of ``loci`` outside [0, size)."""
    for v in loci:
        if not 0 <= v < size:
            raise ValueError(f"locus {v} out of range for problem size {size}")


def _scan(problem, a: Assignment, loci: Iterable[int], cap: int) -> tuple[OptimaGrid, np.ndarray]:
    """The optima grid and each maximizer's flat index (row bits above column
    bits), from the one fitness source ``problem.completions(a)``."""
    size = problem.size
    loci = tuple(sorted(set(loci)))
    check_loci(size, (*a, *loci))  # before the cap, which counts a's loci as assigned
    if any(v in a for v in loci):
        raise ValueError("grid loci must be unassigned")
    nfree = size - len(a)
    if nfree > 0 and 2 ** nfree > cap:
        raise EnumerationCapError(2 ** nfree, cap)
    unassigned = [v for v in range(size) if v not in a]
    free = tuple(v for v in unassigned if v not in loci)
    # rows: patterns on loci; columns: completions of the free loci
    values = problem.completions(a).transpose([unassigned.index(v) for v in loci + free])
    values = values.reshape(2 ** len(loci), 2 ** len(free))
    best = values.max(axis=1)
    hit = values == best[:, None]
    count = np.count_nonzero(hit, axis=1)
    hits = np.flatnonzero(hit)
    starts = np.cumsum(count) - count
    ones, all_ones = np.bitwise_or.reduceat(hits, starts), np.bitwise_and.reduceat(hits, starts)
    return OptimaGrid(loci, free, best, count, ones, all_ones), hits


def constrained_optima(problem, a: Assignment, cap: int = DEFAULT_CAP) -> ConstrainedOptima:
    """Exhaustively enumerate all completions of ``a`` and keep the maximizers
    (the one row of the grid over no loci)."""
    grid, hits = _scan(problem, a, (), cap)
    per_locus = {v: frozenset((allele,)) for v, allele in a.items()}
    for v, code in zip(grid.free, grid.alleles(grid.free)[0].tolist()):
        per_locus[v] = frozenset(allele for allele in (0, 1) if code >> allele & 1)
    return ConstrainedOptima(int(grid.fitness[0]), int(grid.count[0]), per_locus,
                             a.apply((0,) * problem.size), grid.free, hits)


def psi_at(problem, a: Assignment, v: int, cap: int = DEFAULT_CAP) -> frozenset[int]:
    """The paper-style per-locus allele set of the constrained optima."""
    return constrained_optima(problem, a, cap).per_locus[v]


def global_optimum(problem, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """The unique full-enumeration maximizer; errors out on ties."""
    if 2 ** problem.size > cap:
        raise EnumerationCapError(2 ** problem.size, cap)
    if problem._g is None:
        opt = constrained_optima(problem, EMPTY, cap)
        if opt.count != 1:
            tied = sorted(opt.chromosomes)
            raise AssumptionViolationError(
                "global optimum is not unique; tied chromosomes: "
                + ", ".join(bits_to_str(c) for c in tied),
                tied,
            )
        problem._g = opt.chromosomes[0]
    return problem._g
