"""Benchmark fitness functions and problem-spec parsing.

All fitness values are integers scaled by ``FITNESS_SCALE`` (= 2) so the
half-integer bonus of the modified OneMax variant stays exact.  The scale
is invisible at I/O boundaries: reports divide it back out via
``unscale``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .model import EMPTY, bits_from_str, check_loci, pack_bits, popcounts

FITNESS_SCALE = 2

#: Bytes the dense fitness table may take, at the table's own entry size:
#: 2^25 entries of uint8 (every built-in block sum up to 25 loci), 2^22 of
#: int64 (a lookup table).
_TABLE_BUDGET = 2 ** 25


def unscale(value: int) -> float:
    """Convert an internal scaled fitness back to its natural value."""
    out = value / FITNESS_SCALE
    return out


#: The 4-bit trap and needle-in-a-haystack scores by the number of ones in
#: the block.
_TRAP = (3, 2, 1, 0, 4)
_NIAH = (0, 0, 0, 0, 4)


class FitnessProblem:
    """Pure, deterministic chromosome -> fitness contract.

    Each kind states its fitness once, over relabeled chromosomes ``y``
    (``y[i] = x[permutation[i]]``, identity by default), and its
    constructor relabels it onto chromosome loci once.  Its rows,
    ``raw_evaluate_many``, and the ``_dtype`` tensor of an assignment's
    completions, ``_tabulate``, read chromosome loci directly, and a block
    sum's rows and completions both go through its one ``_combine`` rule;
    every exact answer reads ``completions`` and evaluates no row.  The fitness
    never changes after construction, but an instance is not immutable: it
    fills two single-value caches lazily, with no locking — the global
    optimum (``_g``) and the dense fitness table (``_table``, once a
    caller's work pays for it).  Each worker process fills its own copy.
    """

    def __init__(self, name: str, size: int, permutation: Sequence[int] | None = None):
        if size <= 0:
            raise ProblemSpecError(f"problem size must be positive, got {size}")
        if permutation is not None:
            permutation = tuple(permutation)
            if sorted(permutation) != list(range(size)):
                raise ProblemSpecError(
                    f"permutation must be a bijection on [0, {size}), got {permutation}"
                )
        self.name = name
        self.size = size
        self.permutation = permutation
        self._g = None
        self._table: np.ndarray | None = None

    def raw_evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Scaled fitness of each chromosome row of ``xs``, a (rows, size) 0/1 array."""
        raise NotImplementedError

    def evaluate(self, bits: Sequence[int]) -> int:
        """Scaled fitness of one chromosome: one row of ``evaluate_many``."""
        return int(self.evaluate_many(np.array([bits]))[0])

    def evaluate_many(self, arr: np.ndarray) -> np.ndarray:
        """Scaled fitness of each row of ``arr``, a (rows, size) array of 0s
        and 1s; any other shape or entry is refused."""
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != self.size:
            raise ValueError(f"chromosome rows of shape {arr.shape} != (rows, {self.size})")
        unsigned = arr.dtype.kind in "bu"  # the GA's and the scans' uint8 rows: one cheap pass
        if not (arr.max(initial=0) <= 1 if unsigned else ((arr == 0) | (arr == 1)).all()):
            raise ValueError("chromosome entries must be 0 or 1")
        return self.raw_evaluate_many(arr)

    def fitness_table(self, work: int | None = None) -> np.ndarray | None:
        """Dense table of scaled fitness over all 2^size chromosomes, or None.

        Built iff the caller's planned ``work`` in rows (None: the whole
        table) is at least 2^size and the table's 2^size entries fit
        ``_TABLE_BUDGET`` bytes; otherwise a table built earlier is
        returned, or None.  The table is in the smallest integer type that
        holds every value of a block sum (uint8 for every built-in kind
        within the budget), int64 for a lookup table, so a caller must cast
        it before doing arithmetic on it; comparing its values needs none.
        """
        pays = work is None or work >= 2 ** self.size
        if self._table is None and pays and self._dtype.itemsize << self.size <= _TABLE_BUDGET:
            self._table = self._tabulate(EMPTY).reshape(-1)
        return self._table

    def completions(self, a) -> np.ndarray:
        """Scaled fitness of every completion of ``a``, whose loci must be below
        ``size``: a ``_dtype`` tensor with an axis of 2 per unassigned locus, in
        order.  A view of the table if ``fitness_table`` gives one for this
        work, else tabulated by the kind for ``a`` alone, and not cached."""
        check_loci(self.size, a)
        table = self.fitness_table(2 ** (self.size - len(a)))
        return self._tabulate(a) if table is None else _fixed(table, self.size, a)

    #: The integer type of the table.
    _dtype = np.dtype(np.int64)

    def _tabulate(self, a) -> np.ndarray:
        """The ``_dtype`` tensor of ``completions(a)``, built without a table."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} size={self.size}>"


def _fixed(table: np.ndarray, size: int, a) -> np.ndarray:
    """The completions of ``a`` as a view of a flat ``table`` of every
    chromosome (the Ellipsis keeps a full assignment's a 0-d array)."""
    index = [slice(None)] * size
    for v, allele in a.items():
        index[v] = allele
    return table.reshape((2,) * size)[(*index, ...)]


class _BlockSum(FitnessProblem):
    """Sum over ``blocks`` (each given block of loci of ``y``, mapped
    through the permutation to a tuple of chromosome loci) of a score of
    each block's number of ones; ``scores[j][u]`` is block j's natural
    score at u ones, and no score is negative.

    Rows and completions both go through the kind's one ``_combine``, fed
    each block's ones count and scaled scores.  Rows: one float32 product
    with a 0/1 (loci x blocks) indicator counts each block's ones (exact
    for blocks of up to 2^24 loci), one contiguous int64 vector per block,
    and the fitness is int64.  Completions: each block's count is a
    popcount broadcast onto the axes of its free loci, so no row is
    evaluated, and the tensor is filled and kept in ``_dtype``, the
    smallest integer type that holds the sum of the blocks' highest scores
    and so every value of a plain or gated sum.
    """

    def __init__(self, name: str, size: int, blocks: Sequence[Sequence[int]],
                 scores: Sequence[Sequence[float]], permutation=None):
        super().__init__(name, size, permutation)
        perm = self.permutation or range(size)
        self.blocks = tuple(tuple(perm[i] for i in block) for block in blocks)
        scaled = [(FITNESS_SCALE * np.asarray(s)).astype(np.int64) for s in scores]
        self._dtype = np.min_scalar_type(sum(int(s.max()) for s in scaled))
        self._scores = [s.astype(self._dtype) for s in scaled]
        self._indicator = np.zeros((size, len(self.blocks)), dtype=np.float32)
        for j, block in enumerate(self.blocks):
            self._indicator[block, j] = 1

    def raw_evaluate_many(self, xs):
        ones = (xs @ self._indicator).T.astype(np.int64, order="C")
        return self._combine(np.zeros(len(xs), np.int64), zip(ones, self._scores))

    def _tabulate(self, a):
        return self._combine(np.zeros((2,) * (self.size - len(a)), self._dtype),
                             self._block_ones(a))

    def _combine(self, total, counts):
        """Add the fitness of ``counts`` to the zeros ``total``, in place:
        ``counts`` pairs each block's contiguous ones count with the scores
        it reads that count in.  A plain sum adds each block's score."""
        for ones, scores in counts:
            total += _score_in_place(ones, scores)
        return total

    def _block_ones(self, a):
        """Per block, its number of ones on the loci ``a`` leaves free, as a
        contiguous ``_dtype`` tensor over the completion axes of those loci,
        and its scaled scores from the number of ones ``a`` assigns it on.
        The count is the popcount of the block's free bits, whatever their
        order (every ``_dtype`` holds 255, and a table has far fewer loci)."""
        free = [v for v in range(self.size) if v not in a]
        for block, scores in zip(self.blocks, self._scores):
            assigned = [a[v] for v in block if v in a]
            shape = [2 if v in block else 1 for v in free]
            yield (popcounts(len(block) - len(assigned), self._dtype).reshape(shape),
                   scores[sum(assigned):])


#: Entries scored per gather in ``_score_in_place``.
_SCORE_SLICE = 2 ** 12


def _score_in_place(ones: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """``scores[ones]``, written over the contiguous tensor ``ones`` a slice
    at a time, so that a block spanning every locus costs no second tensor
    of the table's size."""
    flat = ones.reshape(-1)
    for lo in range(0, len(flat), _SCORE_SLICE):
        flat[lo:lo + _SCORE_SLICE] = scores[flat[lo:lo + _SCORE_SLICE]]
    return ones


class _Leading(_BlockSum):
    """A block sum gated left to right: block i counts only while every
    earlier block is all ones.

    Its ``_combine`` is Horner's rule from the last block, ``T_i = s_i +
    [block i all ones] * T_(i+1)``, in place on the one accumulator, for
    rows and completions alike (in completions an assigned 0 keeps a gate
    shut, as the block's scores then end above its free loci's count).
    """

    def _combine(self, total, counts):
        for ones, scores in reversed(list(counts)):
            total *= ones == len(scores) - 1  # the block is all ones
            total += _score_in_place(ones, scores)
        return total


class OneMax(_BlockSum):
    """One block of every locus, scored by its number of ones."""

    def __init__(self, size: int, permutation=None, name: str | None = None):
        super().__init__(name or f"onemax-{size}", size, [range(size)], [range(size + 1)],
                         permutation)


class LeadingOnes(_Leading):
    """One-locus blocks scored (0, 1), gated: the number of leading ones."""

    def __init__(self, size: int, permutation=None, name: str | None = None):
        super().__init__(name or f"leadingones-{size}", size, [[i] for i in range(size)],
                         [(0, 1)] * size, permutation)


class _Concatenated(_BlockSum):
    """m disjoint blocks of 4 consecutive loci, each scored by ``score``."""

    kind: str
    score: tuple[int, ...]

    def __init__(self, m: int, permutation=None, name: str | None = None):
        if m <= 0:
            raise ProblemSpecError(f"{self.kind} needs at least one block, got m={m}")
        self.m = m
        blocks = [range(4 * i, 4 * i + 4) for i in range(m)]
        super().__init__(name or f"{self.kind}-m{m}", 4 * m, blocks, [self.score] * m,
                         permutation)


class CTrap(_Concatenated):
    """Concatenated 4-bit traps on disjoint blocks."""

    kind, score = "ctrap", _TRAP


class CNiah(_Concatenated):
    """Concatenated needle-in-a-haystack blocks."""

    kind, score = "cniah", _NIAH


class CycTrap(_BlockSum):
    """Cyclically overlapping traps: block i reads loci 3i..3i+3 modulo the size."""

    def __init__(self, m: int, permutation=None, name: str | None = None):
        if m <= 1:
            raise ProblemSpecError(f"cyctrap needs m >= 2, got m={m}")
        self.m = m
        blocks = [[(3 * i + j) % (3 * m) for j in range(4)] for i in range(m)]
        super().__init__(name or f"cyctrap-m{m}", 3 * m, blocks, [_TRAP] * m, permutation)


class LeadingTraps(_Leading, _Concatenated):
    """Traps gated left to right: block i counts only while every earlier trap is solved."""

    kind, score = "leadingtraps", _TRAP


class OneMaxPrimeConcat(_BlockSum):
    """Sum of modified-OneMax blocks over consecutive loci.

    Each block scores its number of ones, except the all-zeros pattern
    which scores 1.5 (the source of weak epistasis of order block-size
    minus one).
    """

    def __init__(self, block_sizes: Sequence[int], permutation=None, name: str | None = None):
        sizes = tuple(int(b) for b in block_sizes)
        if not sizes or any(b < 2 for b in sizes):
            raise ProblemSpecError(f"block sizes must all be >= 2, got {sizes}")
        self.block_sizes = sizes
        ends = np.cumsum(sizes).tolist()
        super().__init__(
            name or "onemax-prime-" + "x".join(str(b) for b in sizes),
            sum(sizes),
            [range(end - b, end) for b, end in zip(sizes, ends)],
            [(1.5, *range(1, b + 1)) for b in sizes],
            permutation,
        )


class LookupTable(FitnessProblem):
    """Fitness by direct indexing into a dense 2^size value array.

    Values are natural (unscaled); they may be half-integers and are
    scaled internally into ``values``, indexed by packed chromosome.
    """

    def __init__(self, values: Sequence[float], permutation=None, name: str | None = None):
        n = len(values)
        size = n.bit_length() - 1
        scaled = np.asarray(values, dtype=float) * FITNESS_SCALE
        if n == 0 or 2 ** size != n or scaled.ndim != 1:
            raise ProblemSpecError(f"lookup table must list exactly 2^size values, got {n}")
        bad = np.flatnonzero(~np.isfinite(scaled) | (np.round(scaled) != scaled))
        if len(bad):
            raise ProblemSpecError(
                f"fitness value {values[bad[0]]} is not an integer multiple of 1/{FITNESS_SCALE}"
            )
        super().__init__(name or f"lookup-{size}", size, permutation)
        inverse = np.argsort(self.permutation or range(size))  # axis i of y is permutation[i]
        self.values = scaled.reshape((2,) * size).transpose(inverse).astype(np.int64, order="C")
        self.values = self.values.reshape(-1)

    @classmethod
    def from_pairs(
        cls,
        size: int,
        pairs: Mapping[str, float] | Sequence[tuple[str, float]],
        default: float = 0,
        **kwargs,
    ) -> "LookupTable":
        """Build a dense table from (bitstring, value) pairs, each key once;
        missing entries take ``default``."""
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        values, listed = [default] * (2 ** size), set()
        for key, value in pairs:
            bits = bits_from_str(key)
            if len(bits) != size:
                raise ProblemSpecError(f"key {key!r} has length {len(bits)}, expected {size}")
            if key in listed:
                raise ProblemSpecError(f"key {key!r} is listed twice")
            listed.add(key)
            values[pack_bits(bits)] = value
        return cls(values, **kwargs)

    def raw_evaluate_many(self, xs):
        weights = 1 << np.arange(self.size - 1, -1, -1, dtype=np.int64)
        return self.values[xs.astype(np.int64) @ weights]

    def _tabulate(self, a):
        return _fixed(self.values, self.size, a)


class ProblemSpecError(ValueError):
    """Malformed problem specification."""


def _integral(value) -> bool:
    """An int or numpy integer; a bool, a float or a string is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(field: str, value) -> int:
    if not _integral(value):
        raise ProblemSpecError(f"{field!r} must be an integer, got {value!r}")
    return int(value)


def _integers(field: str, values) -> list[int]:
    return [int(v) for v in _list_of(field, values, _integral, "integers")]


def _real(value) -> bool:
    """An int, a float or a numpy number; a bool or a string is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _number(field: str, value):
    if not _real(value):
        raise ProblemSpecError(f"{field!r} must be a number, got {value!r}")
    return value


def _list_of(field: str, values, valid, what: str) -> list:
    listed = isinstance(values, (Sequence, np.ndarray)) and not isinstance(values, (str, bytes))
    if not listed or not all(map(valid, values)):
        raise ProblemSpecError(f"{field!r} must be a list of {what}, got {values!r}")
    return list(values)


def _size(kind: str, spec: dict) -> int:
    for field in ("l", "size"):
        if field in spec:
            return _integer(field, spec.pop(field))
    raise ProblemSpecError(f"{kind} spec needs 'l' (problem size)")


def _block_count(kind: str, spec: dict, block: int) -> int:
    if "m" in spec:
        return _integer("m", spec.pop("m"))
    if "l" in spec or "size" in spec:
        size = _size(kind, spec)
        if size % block != 0:
            raise ProblemSpecError(
                f"{kind} requires size to be a multiple of {block}, got {size}"
            )
        return size // block
    raise ProblemSpecError(f"{kind} spec needs 'm' or a compatible 'l'")


def _sized(cls):
    return lambda kind, spec, perm, name: cls(_size(kind, spec), perm, name)


def _blocks_of(cls, block: int):
    return lambda kind, spec, perm, name: cls(_block_count(kind, spec, block), perm, name)


def _onemax_prime_blocks(kind: str, spec: dict, perm, name) -> OneMaxPrimeConcat:
    if "block_sizes" not in spec:
        raise ProblemSpecError("onemax-prime-blocks spec needs 'block_sizes'")
    return OneMaxPrimeConcat(_integers("block_sizes", spec.pop("block_sizes")), perm, name)


def _lookup_table(kind: str, spec: dict, perm, name) -> LookupTable:
    if "table" in spec:
        return LookupTable(_list_of("table", spec.pop("table"), _real, "numbers"), perm, name)
    if "pairs" in spec:
        size = _size(kind, spec)
        pairs = spec.pop("pairs")
        items = list(pairs.items() if isinstance(pairs, Mapping) else pairs)
        if not all(_real(value) for _, value in items):
            raise ProblemSpecError(
                f"'pairs' must be a mapping of bit strings to numbers, got {pairs!r}"
            )
        return LookupTable.from_pairs(
            size, items, _number("default", spec.pop("default", 0)), permutation=perm, name=name
        )
    raise ProblemSpecError("lookup-table spec needs 'table' or 'pairs'")


#: Problem kind -> builder from (kind, spec, permutation, name), in ``list-problems``
#: order; a builder pops the spec fields it reads.
KINDS = {
    "onemax": _sized(OneMax),
    "leadingones": _sized(LeadingOnes),
    "ctrap": _blocks_of(CTrap, 4),
    "cyctrap": _blocks_of(CycTrap, 3),
    "cniah": _blocks_of(CNiah, 4),
    "leadingtraps": _blocks_of(LeadingTraps, 4),
    "onemax-prime-blocks": _onemax_prime_blocks,
    "lookup-table": _lookup_table,
}


def make_problem(spec: Mapping) -> FitnessProblem:
    """Build a problem from a spec mapping (the problem-spec file schema).

    Fields: ``kind`` (a key of ``KINDS``; case and ``_``/``-`` are free)
    plus ``l``/``size`` or ``m`` (or ``block_sizes`` for
    onemax-prime-blocks, ``table``/``pairs`` for lookup-table), and an
    optional explicit ``permutation`` sequence and ``name``.  A field the
    kind does not read is refused.
    """
    try:
        if not isinstance(spec, Mapping) or "kind" not in spec:
            raise ProblemSpecError("spec is not a mapping with a 'kind' field")
        fields = dict(spec)
        kind = str(fields.pop("kind")).lower().replace("_", "-")
        if kind not in KINDS:
            raise ProblemSpecError(f"unknown problem kind {kind!r}")
        perm, name = fields.pop("permutation", None), fields.pop("name", None)
        if perm is not None:
            perm = _integers("permutation", perm)
        if name is not None and not isinstance(name, str):
            raise ProblemSpecError(f"'name' must be a string, got {name!r}")
        problem = KINDS[kind](kind, fields, perm, name)
        if fields:
            raise ProblemSpecError(
                f"{kind} spec has fields it does not read: {', '.join(map(repr, fields))}"
            )
        return problem
    except (TypeError, ValueError) as exc:  # a spec or spec field of the wrong type
        raise ProblemSpecError(str(exc)) from exc


def weak_observability_problem() -> OneMaxPrimeConcat:
    """The 25-bit concatenation of modified-OneMax blocks of sizes 3..7."""
    return OneMaxPrimeConcat([3, 4, 5, 6, 7], name="onemax-prime-25")
