"""Minimal generational GA used to measure how often a weak epistasis is
observable in the population (witness pattern present).

Runs evolve in blocks: a (runs, population, loci) uint8 stack of at most
``_BLOCK_ALLELES`` alleles, and at least one run, takes one vectorised
generation step with one fitness call for the whole stack, and applies
uniform crossover in place with XOR.  Each run still draws from its own
seeded generator, in the order a lone run would, so every result depends
only on the seed, never on the block size.  ``run_ga`` is a stack of one
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class GaConfig:
    population_size: int
    generations: int
    crossover_prob: float = 0.9
    mutation_prob: float = 0.01
    runs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.crossover_prob <= 1 and 0 <= self.mutation_prob <= 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.population_size < 1:
            raise ValueError("population size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


@dataclass(frozen=True)
class ObservabilityTarget:
    """Loci whose joint all-zeros pattern counts as 'epistasis observed'.

    For a modified-OneMax block the witness is the whole block at zero:
    the pattern enabling the bonus fitness.
    """

    loci: tuple[int, ...]

    @property
    def order(self) -> int:
        # a b-locus block carries weak epistases of order b-1
        return len(self.loci) - 1


# Alleles per stacked block of runs; 5 runs of 500 x 25.  Larger blocks
# gain little speed and cost peak memory.
_BLOCK_ALLELES = 2 ** 16


def _block_runs(population_size: int, width: int) -> int:
    """Runs per stacked block: as many as fit ``_BLOCK_ALLELES``, at least one."""
    return max(1, _BLOCK_ALLELES // max(1, population_size * width))


def _draws(rng: np.random.Generator, n: int, width: int, config: GaConfig):
    """One run's random draws for one generation, in a fixed order.

    Tournament entrants ``ab`` (``a`` then ``b``) and tie coins; per-pair
    crossover flags folded into the uniform-crossover mask ``swap``;
    mutation ``flips``.  None of them depends on the population.  Each
    bounded draw takes one 32-bit word per value, so the one call for
    ``ab`` reads the same numbers, and leaves the generator in the same
    state, as one call each for ``a`` and ``b``; an int32 draw of range 2
    reads the words an int64 one does (a uint8 or bool draw would not).
    """
    half = n // 2
    ab = rng.integers(0, n, size=2 * n)
    coin = rng.integers(0, 2, size=n, dtype=np.int32) != 0
    cross = rng.random(half) < config.crossover_prob
    swap = (rng.integers(0, 2, size=(half, width), dtype=np.int32) != 0) & cross[:, None]
    flips = rng.random((n, width)) < config.mutation_prob
    return ab, coin, swap, flips


def _next_generation(problem, pops: np.ndarray, rngs, config: GaConfig) -> np.ndarray:
    """One generation for a (runs, n, loci) stack; run ``r`` draws from ``rngs[r]``.

    Binary tournament (strict winner kept, ties by coin), uniform
    crossover of consecutive pool members (an odd last member passes
    unchanged), then bit-flip mutation.
    """
    runs, n, width = pops.shape
    half = n // 2
    ab = np.empty((runs, 2 * n), dtype=np.int64)
    coin = np.empty((runs, n), dtype=bool)
    swap = np.empty((runs, half, width), dtype=bool)
    flips = np.empty((runs, n, width), dtype=bool)
    for r, rng in enumerate(rngs):
        ab[r], coin[r], swap[r], flips[r] = _draws(rng, n, width, config)
    rows = pops.reshape(runs * n, width)
    fits = problem.evaluate_many(rows)
    ab += n * np.arange(runs)[:, None]
    a, b = ab[:, :n], ab[:, n:]
    fa, fb = fits[a], fits[b]
    children = rows[np.where((fa > fb) | ((fa == fb) & coin), a, b)]
    first = children[:, 0:2 * half:2]
    second = children[:, 1:2 * half:2]
    d = (first ^ second) & swap
    first ^= d
    second ^= d
    children ^= flips
    return children


def run_ga(problem, config: GaConfig, seed: int | None = None) -> list[np.ndarray]:
    """One seeded run; returns per-generation population snapshots
    (index 0 is the uniform random initial population)."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    pops = rng.integers(0, 2, size=(1, config.population_size, problem.size), dtype=np.uint8)
    snapshots = [pops[0]]
    for _ in range(config.generations):
        pops = _next_generation(problem, pops, [rng], config)
        snapshots.append(pops[0])
    return snapshots


def _observed(pops: np.ndarray, target: ObservabilityTarget) -> int:
    """Number of populations in the (runs, n, loci) stack holding the witness."""
    return int((~pops[:, :, list(target.loci)].any(axis=2)).any(axis=1).sum())


@dataclass(frozen=True)
class ObservabilityPoint:
    block_order: int
    population_size: int
    generation: int
    probability: float
    runs: int
    stderr: float


def initial_observability(
    problem,
    targets: Sequence[ObservabilityTarget],
    population_sizes: Sequence[int],
    runs: int,
    seed: int,
) -> list[ObservabilityPoint]:
    """Probability the witness pattern appears in a fresh random population,
    swept over population sizes (no GA dynamics involved)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in population_sizes:
        hits = np.zeros(len(targets), dtype=np.int64)
        step = _block_runs(n, problem.size)
        for start in range(0, runs, step):
            # one call per run: a uint8 draw discards its unused random bytes
            # at the end of each call, so one merged call would differ
            pops = np.stack([
                rng.integers(0, 2, size=(n, problem.size), dtype=np.uint8)
                for _ in range(min(step, runs - start))
            ])
            hits += [_observed(pops, t) for t in targets]
        for t, hit in zip(targets, hits.tolist()):
            p = hit / runs
            out.append(
                ObservabilityPoint(
                    t.order, n, 0, p, runs, math.sqrt(p * (1 - p) / runs)
                )
            )
    return out


def generational_observability(
    problem,
    targets: Sequence[ObservabilityTarget],
    config: GaConfig,
) -> list[ObservabilityPoint]:
    """Probability of observing each witness per generation, averaged over
    independent seeded GA runs at a fixed population size."""
    hits = np.zeros((len(targets), config.generations + 1), dtype=np.int64)
    root = np.random.default_rng(config.seed)
    run_seeds = root.integers(0, 2 ** 63, size=config.runs)
    n, width = config.population_size, problem.size
    step = _block_runs(n, width)
    for start in range(0, config.runs, step):
        rngs = [np.random.default_rng(s) for s in run_seeds[start:start + step]]
        pops = np.stack([rng.integers(0, 2, size=(n, width), dtype=np.uint8) for rng in rngs])
        for gen in range(config.generations + 1):
            hits[:, gen] += [_observed(pops, t) for t in targets]
            if gen < config.generations:
                pops = _next_generation(problem, pops, rngs, config)
    out = []
    for j, t in enumerate(targets):
        for gen in range(config.generations + 1):
            p = hits[j, gen] / config.runs
            out.append(
                ObservabilityPoint(
                    t.order,
                    config.population_size,
                    gen,
                    p,
                    config.runs,
                    math.sqrt(p * (1 - p) / config.runs),
                )
            )
    return out


def closed_form_initial(order: int, population_size: int) -> float:
    """Exact probability that an all-zeros witness of (order+1) loci appears
    at least once among n uniform random chromosomes."""
    b = order + 1
    return 1.0 - (1.0 - 0.5 ** b) ** population_size


def block_targets(block_sizes: Sequence[int]) -> list[ObservabilityTarget]:
    """One witness target per consecutive block of the concatenation."""
    targets = []
    pos = 0
    for b in block_sizes:
        targets.append(ObservabilityTarget(tuple(range(pos, pos + b))))
        pos += b
    return targets
