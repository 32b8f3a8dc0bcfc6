"""Generational GA and weak-epistasis observability measurements."""

import math

import numpy as np
import pytest

from epilink.gasim import (
    GaConfig,
    ObservabilityTarget,
    block_targets,
    closed_form_initial,
    generational_observability,
    initial_observability,
    run_ga,
    _next_generation,
)
from epilink.problems import OneMax, weak_observability_problem


@pytest.fixture(scope="module")
def problem25():
    return weak_observability_problem()


@pytest.fixture(scope="module")
def targets25(problem25):
    return block_targets(problem25.block_sizes)


class TestConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            GaConfig(10, 5, crossover_prob=1.5)
        with pytest.raises(ValueError):
            GaConfig(10, 5, mutation_prob=-0.1)
        with pytest.raises(ValueError):
            GaConfig(10, 5, runs=0)

    def test_size_bounds(self):
        with pytest.raises(ValueError, match="population size"):
            GaConfig(0, 5)
        with pytest.raises(ValueError, match="generations"):
            GaConfig(10, -1)
        assert GaConfig(1, 0).generations == 0

    def test_defaults(self):
        c = GaConfig(100, 10)
        assert c.crossover_prob == 0.9
        assert c.mutation_prob == 0.01
        assert c.runs == 1000


class TestRunGa:
    def test_reproducible(self):
        p = OneMax(12)
        cfg = GaConfig(30, 5, seed=4)
        a = run_ga(p, cfg)
        b = run_ga(p, cfg)
        assert len(a) == 6
        assert all((x == y).all() for x, y in zip(a, b))

    def test_generation0_allele_frequency(self):
        p = OneMax(20)
        cfg = GaConfig(500, 0, seed=0)
        (pop,) = run_ga(p, cfg)
        freq = pop.mean(axis=0)
        sigma = math.sqrt(0.25 / 500)
        assert (abs(freq - 0.5) < 3 * sigma + 1e-9).all()

    def test_identical_population_fixed_point(self):
        p = OneMax(8)
        cfg = GaConfig(16, 1, crossover_prob=0.0, mutation_prob=0.0, seed=0)
        pop = np.tile(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8), (16, 1))
        rng = np.random.default_rng(9)
        child = _next_generation(p, pop.copy(), cfg, rng)
        assert (child == pop).all()

    def test_onemax_selection_pressure(self):
        # mean fitness climbs across early generations, averaged over runs
        p = OneMax(25)
        means = np.zeros(6)
        for seed in range(20):
            snaps = run_ga(p, GaConfig(60, 5, seed=0), seed=seed)
            means += [p.evaluate_many(s).mean() for s in snaps]
        means /= 20
        assert (np.diff(means) > 0).all()


class TestObservability:
    def test_block_targets_layout(self, targets25):
        assert [t.loci for t in targets25] == [
            tuple(range(0, 3)),
            tuple(range(3, 7)),
            tuple(range(7, 12)),
            tuple(range(12, 18)),
            tuple(range(18, 25)),
        ]
        assert [t.order for t in targets25] == [2, 3, 4, 5, 6]

    def test_closed_form(self):
        assert closed_form_initial(2, 1) == pytest.approx(1 / 8)
        assert closed_form_initial(2, 500) == pytest.approx(
            1 - (1 - 1 / 8) ** 500
        )

    def test_initial_matches_closed_form(self, problem25, targets25):
        points = initial_observability(
            problem25, targets25[:2], [20, 100], runs=600, seed=1
        )
        for pt in points:
            p = closed_form_initial(pt.block_order, pt.population_size)
            se = math.sqrt(p * (1 - p) / pt.runs)
            assert abs(pt.probability - p) <= 3 * se + 1e-9

    def test_initial_monotone_in_population(self, problem25, targets25):
        points = initial_observability(
            problem25, [targets25[-1]], [10, 100, 1000], runs=400, seed=2
        )
        probs = [pt.probability for pt in points]
        assert probs == sorted(probs)

    def test_initial_decreasing_in_order(self, problem25, targets25):
        points = initial_observability(
            problem25, targets25, [50], runs=400, seed=3
        )
        by_order = {pt.block_order: pt.probability for pt in points}
        orders = sorted(by_order)
        assert all(
            by_order[a] >= by_order[b] for a, b in zip(orders, orders[1:])
        )

    def test_generational_decline(self, problem25, targets25):
        cfg = GaConfig(200, 8, runs=60, seed=5)
        points = generational_observability(problem25, [targets25[2]], cfg)
        probs = [pt.probability for pt in points]
        assert probs[0] > probs[-1]

    def test_stderr_field(self, problem25, targets25):
        points = initial_observability(
            problem25, [targets25[0]], [10], runs=100, seed=6
        )
        pt = points[0]
        assert pt.stderr == pytest.approx(
            math.sqrt(pt.probability * (1 - pt.probability) / 100)
        )

    def test_target_order(self):
        assert ObservabilityTarget((0, 1, 2, 3)).order == 3
