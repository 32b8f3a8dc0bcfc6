"""Minimal generational GA used to measure how often a weak epistasis is
observable in the population (witness pattern present)."""

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


def _tournament(fits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binary tournament indices; strict winner kept, ties picked uniformly."""
    n = len(fits)
    a = rng.integers(0, n, size=n)
    b = rng.integers(0, n, size=n)
    pick_a = fits[a] > fits[b]
    tie = fits[a] == fits[b]
    coin = rng.integers(0, 2, size=n).astype(bool)
    return np.where(pick_a | (tie & coin), a, b)


def _next_generation(problem, pop: np.ndarray, config: GaConfig, rng: np.random.Generator) -> np.ndarray:
    fits = problem.evaluate_many(pop)
    pool = pop[_tournament(fits, rng)]
    n, width = pool.shape
    # pair consecutive pool members; uniform crossover per pair
    half = n // 2
    cross = rng.random(half) < config.crossover_prob
    swap = rng.integers(0, 2, size=(half, width)).astype(bool) & cross[:, None]
    first = pool[0:2 * half:2].copy()
    second = pool[1:2 * half:2].copy()
    tmp = first[swap]
    first[swap] = second[swap]
    second[swap] = tmp
    children = np.empty_like(pool)
    children[0:2 * half:2] = first
    children[1:2 * half:2] = second
    if n % 2:
        children[-1] = pool[-1]
    flips = rng.random(children.shape) < config.mutation_prob
    children[flips] = 1 - children[flips]
    return children


def run_ga(problem, config: GaConfig, seed: int | None = None) -> list[np.ndarray]:
    """One seeded run; returns per-generation population snapshots
    (index 0 is the uniform random initial population)."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    pop = rng.integers(0, 2, size=(config.population_size, problem.size), dtype=np.uint8)
    snapshots = [pop.copy()]
    for _ in range(config.generations):
        pop = _next_generation(problem, pop, config, rng)
        snapshots.append(pop.copy())
    return snapshots


def _observed(pop: np.ndarray, target: ObservabilityTarget) -> bool:
    return bool((pop[:, list(target.loci)] == 0).all(axis=1).any())


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
        hits = {t: 0 for t in targets}
        for _ in range(runs):
            pop = rng.integers(0, 2, size=(n, problem.size), dtype=np.uint8)
            for t in targets:
                hits[t] += _observed(pop, t)
        for t in targets:
            p = hits[t] / runs
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
    for run_seed in run_seeds:
        rng = np.random.default_rng(run_seed)
        pop = rng.integers(0, 2, size=(config.population_size, problem.size), dtype=np.uint8)
        for gen in range(config.generations + 1):
            for j, t in enumerate(targets):
                hits[j, gen] += _observed(pop, t)
            if gen < config.generations:
                pop = _next_generation(problem, pop, config, rng)
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
