"""Minimal generational GA used to measure how often a weak epistasis is
observable in the population (witness pattern present).

Both sweeps run through one block loop, ``_run_hits``: the
fresh-population sweep is its generation 0.  Runs evolve in blocks: a
(runs, population, loci) uint8 stack of at most ``_BLOCK_ALLELES``
alleles, and at least one run, takes one vectorised generation step with
one fitness call for the whole stack.  Each run, seeded by an integer,
draws a generation with one ``random_raw`` read of its
``default_rng(seed)`` (PCG64) words, decoded straight into the block's
arrays as exactly the numbers numpy's calls would give (``_draws``), so
every result depends only on the seed, never on the block size.

``generational_observability`` spreads its blocks over forked worker
processes, one per CPU this process may run on: each worker evolves a
contiguous share of whole blocks, and the witness counts are summed, so
the points do not depend on the number of workers.  With one CPU, one
block or no ``fork`` there is one share, evolved without forking.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from itertools import groupby, islice, repeat
from typing import Callable, Iterable, Sequence

import numpy as np


@dataclass
class GaConfig:
    population_size: int
    generations: int
    runs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.population_size < 1:
            raise ValueError("population size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


# Alleles per stacked block of runs; 5 runs of 500 x 25.  Larger blocks
# gain little speed and cost peak memory.
_BLOCK_ALLELES = 2 ** 16


def _block_runs(population_size: int, width: int) -> int:
    """Runs per stacked block: as many as fit ``_BLOCK_ALLELES``, at least one."""
    return max(1, _BLOCK_ALLELES // max(1, population_size * width))


class _Stream:
    """The PCG64 words of one run's ``default_rng(seed)``, for an integer
    seed.  numpy makes a 32-bit value from the low half of a fresh word
    and buffers the high half for the next one, which whole-word reads
    leave alone: the stream's ``spare``, ``None`` while there is none."""

    __slots__ = ("bits", "spare")

    def __init__(self, seed: int):
        self.bits = np.random.PCG64(operator.index(seed))
        self.spare = None

    def take(self, words: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` 32-bit values: ``spare``, then each of
        ``words`` low half first; an unused last half is the new ``spare``."""
        halves = words.astype("<u8", copy=False).view("<u4")
        if self.spare is not None:
            halves = np.concatenate(([self.spare], halves))
        self.spare = halves[count] if len(halves) > count else None
        return halves[:count]


def _words(count: int, buffered: bool) -> int:
    """Fresh words numpy reads for ``count`` 32-bit values, the first of
    them the buffered half if there is one; a half is left over iff
    ``count + buffered`` is odd."""
    return (count - buffered + 1) // 2


def _bound(p: float) -> np.uint64:
    """The word bound of ``random() < p``, 0 <= p < 1: ``random()`` is
    ``(word >> 11) * 2**-53``, below ``p`` iff the word is below this."""
    return np.uint64(math.ceil(p * 2 ** 53) << 11)


# The paper's rates: uniform crossover per pair, bit-flip mutation per allele
_CROSSOVER, _MUTATION = _bound(0.9), _bound(0.01)


def _populations(stream: _Stream, runs: int, n: int, width: int) -> np.ndarray:
    """``runs`` uniform (n, width) uint8 populations drawn one after another
    from ``stream``, each as ``integers(0, 2, size=(n, width),
    dtype=np.uint8)`` draws it: one 32-bit value per four alleles, low byte
    first, each allele the top bit of its byte; the unused bytes of each
    population's last value are dropped."""
    size = n * width
    count = -(-size // 4)
    words = stream.bits.random_raw(_words(runs * count, stream.spare is not None))
    halves = stream.take(words, runs * count).astype("<u4", copy=False)
    alleles = halves.view(np.uint8).reshape(runs, 4 * count)[:, :size] >> 7
    return alleles.reshape(runs, n, width)


def _draws(stream: _Stream, ab: np.ndarray, coin: np.ndarray, swap: np.ndarray,
           flips: np.ndarray) -> None:
    """Decodes one run's draws for one generation into its rows of the
    block's arrays, from one ``random_raw`` read of exactly the words
    numpy's calls would read.

    In order, as the plain per-run loop draws them: tournament entrants
    ``ab`` (``a`` then ``b``, ``integers(0, n)``) and tie coins
    (``integers(0, 2)``), one 32-bit value each; per-pair crossover flags
    (one word each) folded into the uniform-crossover mask ``swap``
    (``integers(0, 2)``, one 32-bit value per bit); mutation ``flips``
    (one word each).  ``coin``, ``swap`` and ``flips`` are bool.  numpy's
    bounded draw is Lemire's: an entrant is ``(u * n) >> 32`` of a 32-bit
    value ``u``, and a coin or mask bit is the top bit of ``u``.  A range
    of one (n = 1) reads no value.  Lemire rejects ``u`` when the low 32
    bits of ``u * n`` fall below ``2**32 % n`` (about once in 200 runs of
    20 generations at n = 500) and draws the next value, moving every
    later one along.  A read that finds more rejections among its
    entrants than it allowed for is read again with that many more values.
    """
    n, width = flips.shape
    half = n // 2
    entrants = 2 * n if n > 1 else 0
    threshold = 2 ** 32 % n
    carried = stream.spare
    buffered = carried is not None
    redrawn = 0
    while True:
        drawn = entrants + redrawn
        head = _words(drawn + n, buffered)
        body = head + half + _words(half * width, (drawn + n + buffered) % 2)
        words = stream.bits.random_raw(body + n * width)
        values = stream.take(words[:head], drawn + n)
        scaled = values[:drawn].astype(np.uint64) * n
        if not entrants or scaled.astype(np.uint32).min() >= threshold:
            break
        kept = scaled.astype(np.uint32) >= threshold
        rejected = drawn - np.count_nonzero(kept)
        if rejected == redrawn:
            scaled = scaled[kept]
            break
        stream.bits.advance(-len(words))
        stream.spare = carried
        redrawn = rejected
    if entrants:
        np.right_shift(scaled, 32, out=ab.view(np.uint64))
    else:
        ab[:] = 0
    np.greater_equal(values[drawn:], 2 ** 31, out=coin)
    mask = stream.take(words[head + half:body], half * width).reshape(half, width)
    np.greater_equal(mask, 2 ** 31, out=swap)
    swap &= (words[head:head + half] < _CROSSOVER)[:, None]
    np.less(words[body:].reshape(n, width), _MUTATION, out=flips)


def _next_generation(problem, pops: np.ndarray, streams) -> np.ndarray:
    """One generation for a (runs, n, loci) stack; run ``r`` draws from ``streams[r]``.

    Binary tournament (strict winner kept, ties by coin), uniform
    crossover of consecutive pool members (an odd last member passes
    unchanged), then bit-flip mutation.
    """
    runs, n, width = pops.shape
    half = n // 2
    ab = np.empty((runs, 2 * n), dtype=np.int64)
    coin = np.empty((runs, n), dtype=bool)
    # uint8, so that the XORs below cast nothing; ``_draws`` writes bool views
    swap = np.empty((runs, half, width), dtype=np.uint8)
    flips = np.empty((runs, n, width), dtype=np.uint8)
    for r, stream in enumerate(streams):
        _draws(stream, ab[r], coin[r], swap[r].view(bool), flips[r].view(bool))
    rows = pops.reshape(runs * n, width)
    fits = problem.evaluate_many(rows)
    ab += n * np.arange(runs)[:, None]
    a, b = ab[:, :n], ab[:, n:]
    fa, fb = fits.take(a), fits.take(b)
    winners = np.where((fa > fb) | ((fa == fb) & coin), a, b)
    # ``take`` copies each row as one block, faster than ``rows[...]``, and
    # gathering the pairs' first and second members apart lets the crossover
    # run on contiguous arrays
    first = rows.take(winners[:, 0:2 * half:2], axis=0)
    second = rows.take(winners[:, 1:2 * half:2], axis=0)
    d = first ^ second
    d &= swap
    children = np.empty_like(pops)
    children[:, 0:2 * half:2] = first ^ d
    children[:, 1:2 * half:2] = second ^ d
    children[:, 2 * half:] = rows.take(winners[:, 2 * half:], axis=0)
    children ^= flips
    return children


def _witness_counts(pops: np.ndarray, targets: Sequence[Sequence[int]]) -> np.ndarray:
    """Number of populations in the (runs, n, loci) stack holding each
    target's witness: a member with all its loci, a tuple of them, at zero.

    The targets' loci are gathered once, loci-major, so each target ORs
    whole rows of n alleles: a population lacks the witness iff every
    member has a one among the target's loci.
    """
    cols = pops.transpose(0, 2, 1)[:, [i for t in targets for i in t]]
    counts = np.empty(len(targets), dtype=np.int64)
    lo = 0
    for j, t in enumerate(targets):
        hi = lo + len(t)
        lacking = np.bitwise_or.reduce(cols[:, lo:hi], axis=1).all(axis=1)
        counts[j] = len(pops) - np.count_nonzero(lacking)
        lo = hi
    return counts


@dataclass(frozen=True)
class ObservabilityPoint:
    block_order: int
    population_size: int
    generation: int
    probability: float
    runs: int
    stderr: float


def block_order(loci: Sequence[int]) -> int:
    """The order of the weak epistases that a block of b loci carries: b - 1."""
    return len(loci) - 1


def _points(targets, n: int, hits: np.ndarray, runs: int) -> list[ObservabilityPoint]:
    """Points of (targets, generations + 1) witness counts over ``runs`` runs
    of population ``n``, target by target, then generation by generation."""
    out = []
    for t, row in zip(targets, hits.tolist()):
        for gen, hit in enumerate(row):
            p = hit / runs
            out.append(ObservabilityPoint(block_order(t), n, gen, p, runs, math.sqrt(p * (1 - p) / runs)))
    return out


def _run_hits(problem, targets, n: int, generations: int, streams: Iterable[_Stream]) -> np.ndarray:
    """(targets, generations + 1) witness counts of one run per stream in
    ``streams``, evolved block by block; a stream listed more than once
    serves those runs one after another.  ``streams`` is read a block at a
    time, so a lazy one makes each stream only when its block starts.
    """
    hits = np.zeros((len(targets), generations + 1), dtype=np.int64)
    width = problem.size
    step = _block_runs(n, width)
    streams = iter(streams)
    while block := list(islice(streams, step)):
        # the consecutive runs of one stream draw their populations at once
        pops = np.concatenate([_populations(stream, sum(1 for _ in runs), n, width)
                               for stream, runs in groupby(block)])
        for gen in range(generations + 1):
            hits[:, gen] += _witness_counts(pops, targets)
            if gen < generations:
                pops = _next_generation(problem, pops, block)
    return hits


def initial_observability(
    problem,
    targets: Sequence[Sequence[int]],
    population_sizes: Sequence[int],
    runs: int,
    seed: int,
) -> list[ObservabilityPoint]:
    """Probability the witness pattern appears in a fresh random population,
    swept over population sizes (no GA dynamics involved).

    Each size is generation 0 of ``runs`` runs of the GA's block loop, all
    drawing one after another from the one generator seeded by ``seed``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if any(n < 0 for n in population_sizes):
        raise ValueError("population size must be >= 0")
    stream = _Stream(seed)
    out = []
    for n in population_sizes:
        out += _points(targets, n, _run_hits(problem, targets, n, 0, repeat(stream, runs)), runs)
    return out


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell or
    cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _forked_hits(hits_of: Callable[[np.ndarray], np.ndarray], shares: list[np.ndarray]) -> np.ndarray:
    """``hits_of(share)`` summed over ``shares``: the first share in this
    process, each other one in a forked worker that sends its array back
    through a pipe.  Each array has the shape and dtype of the first.

    Plain ``os.fork``: a spawned worker would import numpy again (about
    0.2 s of CPU each), and importing ``multiprocessing`` alone adds about
    1 MB to the command's peak memory.
    """
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _send_hits(write, hits_of, share)
            os.close(write)
            pids.append(pid)
            pipes.append(os.fdopen(read, "rb"))
        hits = hits_of(shares[0])
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, data in zip(codes, sent):
        if code != 0 or len(data) != hits.nbytes:
            raise RuntimeError(f"a GA worker process failed with exit code {code}")
        hits += np.frombuffer(data, dtype=hits.dtype).reshape(hits.shape)
    return hits


def _send_hits(write: int, hits_of: Callable[[np.ndarray], np.ndarray], share: np.ndarray) -> None:
    """A forked worker's body: writes ``hits_of(share)`` to the pipe
    ``write`` and ends the process, never returning into the caller's code."""
    code = 1
    try:
        with os.fdopen(write, "wb") as pipe:
            pipe.write(hits_of(share).tobytes())
        code = 0
    except BaseException:
        # Not re-raised: unwinding would run the caller's code a second time.
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def generational_observability(
    problem,
    targets: Sequence[Sequence[int]],
    config: GaConfig,
) -> list[ObservabilityPoint]:
    """Probability of observing each witness per generation, averaged over
    independent seeded GA runs at a fixed population size.

    The runs are cut into contiguous shares of whole blocks, one per CPU
    this process may run on and at most one per block.  This process
    evolves the first share and a forked worker each other one.  Each run
    draws only from its own generator and the counts are summed, so the
    points do not depend on the number of workers.
    """
    run_seeds = np.random.default_rng(config.seed).integers(0, 2 ** 63, size=config.runs)
    step = _block_runs(config.population_size, problem.size)
    blocks = -(-config.runs // step)
    workers = min(_cpus(), blocks)
    cuts = [step * (blocks * w // workers) for w in range(workers + 1)]
    hits = _forked_hits(
        lambda seeds: _run_hits(problem, targets, config.population_size, config.generations,
                                map(_Stream, seeds)),
        [run_seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])],
    )
    return _points(targets, config.population_size, hits, config.runs)
