"""Partial enumeration, the stationary-superiority test, and the
iterative partial enumeration solver, with exact evaluation accounting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import (
    DEFAULT_CAP,
    Assignment,
    EnumerationCapError,
    bit_rows,
    check_loci,
    global_optimum,
    unpack_bits,
)
from .graph import EpistaticGraph


@dataclass
class PEResult:
    chromosome: tuple[int, ...]
    fitness: int
    evaluations: int


def partial_enumeration(
    problem,
    partition: Sequence[Iterable[int]],
    seed: int,
    cap: int = DEFAULT_CAP,
) -> PEResult:
    """Enumerate each block of the partition in order, keeping strict improvements.

    Counts exactly 1 + sum(2^|block|) fitness evaluations: the random
    start, then every pattern of each block written into the current
    chromosome.  No row is evaluated: the start is read as the completion
    of its full assignment, a block's patterns as the completions of the
    other loci's current alleles.  One block is plain full enumeration.
    """
    blocks = [sorted(set(b)) for b in partition]
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(range(problem.size)):
        raise ValueError("partition blocks must be disjoint and cover every locus")
    for b in blocks:
        if 2 ** len(b) > cap:
            raise EnumerationCapError(2 ** len(b), cap)

    rng = np.random.default_rng(seed)
    y = tuple(int(x) for x in rng.integers(0, 2, size=problem.size))
    best = int(problem.completions(Assignment.batch_pattern(range(problem.size), y)))
    evaluations = 1
    for b in blocks:
        # Every candidate rewrites all of b, so keeping strict improvements
        # in pattern order keeps the first maximum if it beats ``best``.
        fits = problem.completions(Assignment.batch_pattern(set(flat).difference(b), y))
        evaluations += fits.size
        top = int(fits.argmax())
        if fits.flat[top] > best:
            y = Assignment(zip(b, unpack_bits(top, len(b)))).apply(y)
            best = int(fits.flat[top])
    return PEResult(y, best, evaluations)


def random_population(problem, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random population as an (n, size) uint8 array."""
    return rng.integers(0, 2, size=(n, problem.size), dtype=np.uint8)


#: Fitness values compared per chunk of subsets (log 2) when scanning for
#: a stationary-superior pattern.
_CHUNK_BITS = 14

#: Chromosomes a scan tests every subset on before checking the subsets that
#: pass there on the rest of the population; with at most twice as many
#: chromosomes the whole population is tested at once.
_SCREEN_ROWS = 16


def test_so(problem, S: Iterable[int], population: np.ndarray) -> tuple[bool, Assignment | None]:
    """Check whether one assignment on S strictly beats all alternatives in
    every chromosome's context; costs n * 2^|S| counted evaluations.

    Any fitness tie within a chromosome, or a winner change between
    chromosomes, fails the test.  This is the one-subset case of the scan
    ``ipe`` runs over all subsets of a size.
    """
    S = sorted(set(S))
    if not S:
        raise ValueError("S must be nonempty")
    check_loci(problem.size, S)
    population = np.asarray(population)
    if population.ndim != 2 or population.shape[1] != problem.size:
        raise ValueError(f"population must be 2-D with {problem.size} columns")
    if len(population) == 0:
        raise ValueError("population must be nonempty")
    _, winner = _first_pass(problem, population, np.array([S]))
    if winner is None:
        return False, None
    return True, Assignment(zip(S, unpack_bits(winner, len(S))))


def _first_pass(problem, population: np.ndarray, subsets: np.ndarray) -> tuple[int, int | None]:
    """Test the subsets (rows of sorted loci, all of one size k) in order,
    a chunk at a time, and stop at the first on which one pattern is the
    unique maximum in every chromosome's context.

    Returns how many subsets were tested and the index of the passing
    subset's winning pattern (None if none passed).  Each chunk is first
    tested on the screen, the first ``_SCREEN_ROWS`` chromosomes (all n when
    n <= 2 * ``_SCREEN_ROWS``); the subsets that pass there are then checked
    in order on the remaining chromosomes, which must all pick the screen's
    winner.  A subset that fails the screen fails the whole test, so the
    result is the first subset passing on all n chromosomes.

    Fitness for a set of chromosomes and subsets is a (2^k patterns,
    chromosomes, subsets) tensor: one gather at the packed variant indices
    from the fitness table, else one ``evaluate_many`` call over the variant
    rows.  The scan's planned work for ``fitness_table`` is all of it,
    n * 2^k * subsets rows, so a scan never enumerates the search space
    where testing the subsets would not.  A chunk's screen holds up to
    2^``_CHUNK_BITS`` fitness values; without a table the first chunk is
    one subset and each next one twice the last, so a scan that passes
    early evaluates few rows it does not count.
    """
    n, size = population.shape
    k = subsets.shape[1]
    patterns = bit_rows(np.arange(2 ** k), k)
    table = problem.fitness_table((n * len(subsets)) << k)
    if table is not None:  # chromosomes as packed indices, locus 0 most significant
        place = 1 << np.arange(size - 1, -1, -1, dtype=np.int64)
        rows = population @ place
    else:
        rows = population

    def hits(chromosomes, chunk):
        """hits[p, s]: chromosomes in which pattern p reaches the maximum on
        subset s.  Every chromosome has a maximum, so s passes on these
        chromosomes iff a single pattern holds all of s's hits."""
        if table is not None:
            weights = place[chunk].T  # (k, subsets)
            offsets = patterns @ weights  # each pattern written on each subset
            context = chromosomes[:, None] & ~weights.sum(axis=0)  # subset cleared
            fits = table[offsets[:, None, :] + context]
        else:
            variants = np.empty((2 ** k, len(chromosomes), len(chunk), size), dtype=np.uint8)
            variants[:] = chromosomes[:, None, :]
            variants[:, :, np.arange(len(chunk))[:, None], chunk] = patterns[:, None, None, :]
            fits = problem.evaluate_many(variants.reshape(-1, size)).reshape(
                2 ** k, len(chromosomes), len(chunk)
            )
        return (fits == fits.max(axis=0)).sum(axis=1)

    cut = _SCREEN_ROWS if n > 2 * _SCREEN_ROWS else n
    screen, rest = rows[:cut], rows[cut:]
    most = max(1, (1 << _CHUNK_BITS) // (len(screen) << k))
    step = most if table is not None else 1
    start = 0
    while start < len(subsets):
        chunk = subsets[start:start + step]
        screened = hits(screen, chunk)
        for j in (screened.max(axis=0) == screened.sum(axis=0)).nonzero()[0]:
            winner = int(screened[:, j].argmax())
            if len(rest):
                checked = hits(rest, chunk[j:j + 1])[:, 0]
                if checked[winner] != checked.sum():
                    continue
            return start + int(j) + 1, winner
        start += len(chunk)
        step = min(2 * step, most)
    return len(subsets), None


@dataclass(frozen=True)
class TraceStep:
    """One accepted subset during the iterative solver."""

    index: int
    loci: frozenset[int]
    assignment: Assignment
    k: int
    cumulative_evaluations: int

    def to_json(self) -> dict:
        return {
            "step": self.index,
            "S": sorted(self.loci),
            "assignment": self.assignment.to_json(),
            "k": self.k,
            "cumulative_evaluations": self.cumulative_evaluations,
        }


@dataclass
class DecompositionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    failed: bool = False
    evaluations: int = 0

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "outcome": "failure" if self.failed else "success",
            "evaluations": self.evaluations,
        }


@dataclass
class IPEResult:
    chromosome: tuple[int, ...] | None  # None encodes Failure
    trace: DecompositionTrace

    @property
    def succeeded(self) -> bool:
        return self.chromosome is not None


def ipe(
    problem,
    n: int,
    seed: int,
    subset_order: str = "lex",
) -> IPEResult:
    """Iterative partial enumeration over a random population of size n.

    Subsets of the unassigned loci are visited in ascending size; each
    accepted stationary-superior pattern is frozen into every chromosome
    and the size resets to 1.  Subset enumeration restarts from scratch
    after every acceptance.  ``subset_order`` is "lex" (deterministic
    default) or "random" (seeded shuffle within each size).

    Counted evaluations are n * 2^k per subset tested, up to and including
    the first that passes ``test_so``.  The actual fitness work is less:
    each chunk of subsets is screened on the first ``_SCREEN_ROWS``
    chromosomes, and only a subset that passes there is checked on the
    rest of the population.  It is reads of the fitness table, or one
    ``evaluate_many`` call per screened chunk and per checked subset when
    ``fitness_table`` gives none (the table is over its byte budget, or a
    scan is too small to pay for building it), so a chunk may read
    screen variants beyond the first pass that are not counted.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    if subset_order not in ("lex", "random"):
        raise ValueError(f"unknown subset order policy {subset_order!r}")
    rng = np.random.default_rng(seed)
    population = random_population(problem, n, rng)
    unassigned = set(range(problem.size))
    trace = DecompositionTrace()
    k = 1
    while k <= len(unassigned):
        subsets = list(itertools.combinations(sorted(unassigned), k))
        if subset_order == "random":
            rng.shuffle(subsets)
        flat = np.fromiter(itertools.chain.from_iterable(subsets), np.intp, len(subsets) * k)
        tested, winner = _first_pass(problem, population, flat.reshape(-1, k))
        trace.evaluations += tested * n * 2 ** k
        if winner is None:
            k += 1
            continue
        S = subsets[tested - 1]
        bits = unpack_bits(winner, k)
        population[:, list(S)] = bits
        a = Assignment(zip(S, bits))
        unassigned -= set(S)
        trace.steps.append(TraceStep(len(trace.steps), frozenset(S), a, k, trace.evaluations))
        if not unassigned:
            return IPEResult(tuple(int(b) for b in population[0]), trace)
        k = 1
    trace.failed = True
    return IPEResult(None, trace)


def trace_topological_check(trace: DecompositionTrace, G: EpistaticGraph) -> bool:
    """Whether no accepted subset had an incoming edge from a still-unassigned locus."""
    unassigned = set(range(G.size))
    for step in trace.steps:
        unassigned -= step.loci
        for u in unassigned:
            for s in step.loci:
                if G.has_edge(u, s):
                    return False
    return True


@dataclass
class PacSweepRow:
    n: int
    runs: int
    success_rate: float
    wrong_rate: float
    failure_rate: float
    mean_evaluations: float


def pac_sweep(problem, n_values, runs, seed, cap=DEFAULT_CAP) -> list[PacSweepRow]:
    """IPE success statistics across population sizes, with wrong answers
    and explicit failures tallied separately."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    n_values = list(n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("population size must be >= 1")
    g = global_optimum(problem, cap)
    root = np.random.default_rng(seed)
    rows = []
    for n in n_values:
        seeds = root.integers(0, 2 ** 63, size=runs)
        success = wrong = failed = 0
        evals = 0
        for s in seeds:
            result = ipe(problem, n, int(s))
            evals += result.trace.evaluations
            if not result.succeeded:
                failed += 1
            elif result.chromosome == g:
                success += 1
            else:
                wrong += 1
        rows.append(
            PacSweepRow(n, runs, success / runs, wrong / runs, failed / runs, evals / runs)
        )
    return rows


def pac_threshold(k: int, size: int, delta: float):
    """Sufficient population size from the failure-probability bound, or a
    symbolic string when the constant factor is astronomically large."""
    exponent = k * k + k ** 3
    factor_log = f"(ln {size} + ln {1 / delta:g})"
    if exponent > 40:
        return None, f"2^{exponent} * {factor_log}"
    n = math.ceil(2 ** exponent * (math.log(size) + math.log(1 / delta)))
    return n, f"2^{exponent} * {factor_log} = {n}"
