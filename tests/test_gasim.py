"""Generational GA and weak-epistasis observability measurements."""

import copy
import dataclasses
import math
import os
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epilink import gasim
from epilink.gasim import (
    GaConfig,
    ObservabilityTarget,
    block_targets,
    generational_observability,
    initial_observability,
    _next_generation,
)
from epilink.problems import OneMax, OneMaxPrimeConcat, weak_observability_problem


def run_ga(problem, config: GaConfig, seed: int | None = None) -> list[np.ndarray]:
    """One seeded run, a stack of one run; returns per-generation population
    snapshots (index 0 is the uniform random initial population)."""
    stream = gasim._Stream(config.seed if seed is None else seed)
    pops = gasim._populations(stream, 1, config.population_size, problem.size)
    snapshots = [pops[0]]
    for _ in range(config.generations):
        pops = _next_generation(problem, pops, [stream])
        snapshots.append(pops[0])
    return snapshots


def closed_form_initial(order: int, population_size: int) -> float:
    """Exact probability that an all-zeros witness of (order+1) loci appears
    at least once among n uniform random chromosomes."""
    return 1.0 - (1.0 - 0.5 ** (order + 1)) ** population_size


@pytest.fixture(scope="module")
def problem25():
    return weak_observability_problem()


@pytest.fixture(scope="module")
def targets25(problem25):
    return block_targets(problem25)


class TestConfig:
    def test_size_bounds(self):
        with pytest.raises(ValueError, match="population size"):
            GaConfig(0, 5)
        with pytest.raises(ValueError, match="generations"):
            GaConfig(10, -1)
        with pytest.raises(ValueError, match="runs"):
            GaConfig(10, 5, runs=0)
        assert GaConfig(1, 0).generations == 0

    def test_defaults(self):
        # the rates are the paper's, fixed in gasim, not configured
        assert [f.name for f in dataclasses.fields(GaConfig)] == [
            "population_size", "generations", "runs", "seed"]
        c = GaConfig(100, 10)
        assert (c.runs, c.seed) == (1000, 0)


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
        # with no crossover and no mutation, selection alone keeps it
        p = OneMax(8)
        pop = np.tile(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8), (16, 1))
        with patch.object(gasim, "_CROSSOVER", gasim._bound(0.0)), \
                patch.object(gasim, "_MUTATION", gasim._bound(0.0)):
            child = _next_generation(p, pop[None].copy(), [gasim._Stream(9)])
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

    def test_block_targets_are_the_permuted_blocks(self):
        # each target is a block on chromosome loci: zeroing exactly its
        # loci, with every other locus one, earns that block's 1.5 bonus
        problem = OneMaxPrimeConcat((3, 2, 4), permutation=[4, 7, 0, 8, 2, 6, 1, 3, 5])
        targets = block_targets(problem)
        assert [t.loci for t in targets] == list(problem.blocks)
        for target, size in zip(targets, problem.block_sizes):
            x = np.ones(problem.size, dtype=np.uint8)
            x[list(target.loci)] = 0
            assert problem.evaluate(x) == 2 * (problem.size - size) + 3

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

    def test_initial_needs_a_run(self, problem25, targets25):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            initial_observability(problem25, targets25, [10], runs=0, seed=0)

    def test_initial_refuses_a_negative_population(self, problem25, targets25):
        # refused before any size is swept; a population of none is valid
        with pytest.raises(ValueError, match="population size must be >= 0"):
            initial_observability(problem25, targets25, [10, -3], 5, 0)
        points = initial_observability(problem25, targets25[:1], [0], 5, 0)
        assert [(pt.population_size, pt.probability) for pt in points] == [(0, 0.0)]

    def test_target_order(self):
        assert ObservabilityTarget((0, 1, 2, 3)).order == 3


# The per-run loop that the stacked GA replaced, kept as its reference,
# with the paper's rates.

CROSSOVER_PROB, MUTATION_PROB = 0.9, 0.01


def _sequential_tournament(fits, rng):
    n = len(fits)
    a = rng.integers(0, n, size=n)
    b = rng.integers(0, n, size=n)
    pick_a = fits[a] > fits[b]
    tie = fits[a] == fits[b]
    coin = rng.integers(0, 2, size=n).astype(bool)
    return np.where(pick_a | (tie & coin), a, b)


def _sequential_next_generation(problem, pop, rng):
    fits = problem.evaluate_many(pop)
    pool = pop[_sequential_tournament(fits, rng)]
    n, width = pool.shape
    half = n // 2
    cross = rng.random(half) < CROSSOVER_PROB
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
    flips = rng.random(children.shape) < MUTATION_PROB
    children[flips] = 1 - children[flips]
    return children


def _sequential_observed(pop, target):
    return bool((pop[:, list(target.loci)] == 0).all(axis=1).any())


def sequential_run_ga(problem, config):
    rng = np.random.default_rng(config.seed)
    pop = rng.integers(0, 2, size=(config.population_size, problem.size), dtype=np.uint8)
    snapshots = [pop.copy()]
    for _ in range(config.generations):
        pop = _sequential_next_generation(problem, pop, rng)
        snapshots.append(pop.copy())
    return snapshots


def sequential_initial(problem, targets, population_sizes, runs, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in population_sizes:
        hits = {t: 0 for t in targets}
        for _ in range(runs):
            pop = rng.integers(0, 2, size=(n, problem.size), dtype=np.uint8)
            for t in targets:
                hits[t] += _sequential_observed(pop, t)
        for t in targets:
            p = hits[t] / runs
            out.append((t.order, n, 0, p, runs, math.sqrt(p * (1 - p) / runs)))
    return out


def sequential_generational(problem, targets, config):
    hits = np.zeros((len(targets), config.generations + 1), dtype=np.int64)
    root = np.random.default_rng(config.seed)
    for run_seed in root.integers(0, 2 ** 63, size=config.runs):
        rng = np.random.default_rng(run_seed)
        pop = rng.integers(0, 2, size=(config.population_size, problem.size), dtype=np.uint8)
        for gen in range(config.generations + 1):
            for j, t in enumerate(targets):
                hits[j, gen] += _sequential_observed(pop, t)
            if gen < config.generations:
                pop = _sequential_next_generation(problem, pop, rng)
    out = []
    for j, t in enumerate(targets):
        for gen in range(config.generations + 1):
            p = hits[j, gen] / config.runs
            out.append((t.order, config.population_size, gen, p, config.runs,
                        math.sqrt(p * (1 - p) / config.runs)))
    return out


def _reference_draws(rng, n, width):
    """One run-generation's draws as one call each, in the order the
    sequential loop above makes them."""
    half = n // 2
    a = rng.integers(0, n, size=n)
    b = rng.integers(0, n, size=n)
    coin = rng.integers(0, 2, size=n).astype(bool)
    cross = rng.random(half) < CROSSOVER_PROB
    swap = rng.integers(0, 2, size=(half, width)).astype(bool) & cross[:, None]
    flips = rng.random((n, width)) < MUTATION_PROB
    return a, b, coin, swap, flips


def _as_tuples(points):
    return [(p.block_order, p.population_size, p.generation, p.probability, p.runs, p.stderr)
            for p in points]


_GA_PROBLEMS = {
    "weak-25": weak_observability_problem(),
    # permuted, so the step must evaluate through the problem's permutation
    "prime-permuted": OneMaxPrimeConcat((3, 2, 4), permutation=[4, 7, 0, 8, 2, 6, 1, 3, 5]),
    "onemax-7": OneMax(7),
}


def _ga_targets(problem):
    if isinstance(problem, OneMaxPrimeConcat):
        return block_targets(problem)
    return [ObservabilityTarget((0, 1)), ObservabilityTarget((2, 5, 6))]


class TestStackedGa:
    """The stacked GA against the per-run loop it replaced: same points and
    snapshots, whatever the number of runs in a block."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_GA_PROBLEMS)), st.sampled_from([1, 2, 3, 4, 7, 10]),
           st.integers(0, 4), st.integers(1, 7), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 3))
    def test_matches_sequential_reference(self, name, n, generations, runs, seed, block_runs):
        problem = _GA_PROBLEMS[name]
        targets = _ga_targets(problem)
        config = GaConfig(n, generations, runs=runs, seed=seed)
        with patch.object(gasim, "_BLOCK_ALLELES", block_runs * n * problem.size):
            got = _as_tuples(generational_observability(problem, targets, config))
            initial = _as_tuples(initial_observability(problem, targets, [0, n, 5], runs, seed))
        assert got == sequential_generational(problem, targets, config)
        assert initial == sequential_initial(problem, targets, [0, n, 5], runs, seed)
        snapshots = run_ga(problem, config)
        reference = sequential_run_ga(problem, config)
        assert len(snapshots) == len(reference) == generations + 1
        for mine, theirs in zip(snapshots, reference):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert (mine == theirs).all()

    def test_runs_per_block(self):
        assert gasim._block_runs(500, 25) == 5
        assert gasim._block_runs(10 ** 6, 25) == 1
        assert gasim._block_runs(0, 25) == gasim._BLOCK_ALLELES

    def test_observed_counts_populations(self):
        pops = np.ones((3, 2, 4), dtype=np.uint8)
        pops[0, 1, :2] = 0
        pops[2, 0, 1:3] = 0
        targets = [ObservabilityTarget((0, 1)), ObservabilityTarget((1, 2)),
                   ObservabilityTarget((1,))]
        assert gasim._witness_counts(pops, targets).tolist() == [1, 1, 2]
        assert gasim._witness_counts(pops[:, :0], targets).tolist() == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 6), st.integers(1, 9), st.data())
    def test_witness_counts_match_per_target_count(self, runs, n, width, data):
        # targets may be non-contiguous, unordered, overlapping or empty,
        # and need not cover every locus (as with --blocks)
        loci = st.lists(st.integers(0, width - 1), max_size=width, unique=True)
        targets = [ObservabilityTarget(tuple(t))
                   for t in data.draw(st.lists(loci, max_size=5))]
        pops = np.array(data.draw(st.lists(st.integers(0, 1), min_size=runs * n * width,
                                           max_size=runs * n * width)),
                        dtype=np.uint8).reshape(runs, n, width)
        got = gasim._witness_counts(pops, targets)
        assert got.dtype == np.int64 and got.shape == (len(targets),)
        assert got.tolist() == [sum(_sequential_observed(pop, t) for pop in pops)
                                for t in targets]


class TestWorkers:
    """Blocks of runs spread over forked workers give the points one process
    gives, whatever the number of workers."""

    @pytest.mark.parametrize("name", sorted(_GA_PROBLEMS))
    def test_points_do_not_depend_on_worker_count(self, name):
        problem = _GA_PROBLEMS[name]
        targets = _ga_targets(problem)
        n = 6
        # 3 runs per block: 11 runs make 4 blocks, the last one short
        config = GaConfig(n, 3, runs=11, seed=17)
        forked = gasim._forked_hits
        shares = []

        def spy(problem, targets, config, parts):
            shares.append([len(p) for p in parts])
            return forked(problem, targets, config, parts)

        points = {}
        with patch.object(gasim, "_BLOCK_ALLELES", 3 * n * problem.size), \
                patch.object(gasim, "_forked_hits", spy):
            for workers in (1, 2, 3):
                with patch.object(gasim, "_cpus", return_value=workers):
                    points[workers] = _as_tuples(generational_observability(problem, targets, config))
        assert shares == [[11], [6, 5], [3, 3, 5]]
        assert points[1] == points[2] == points[3]
        assert points[1] == sequential_generational(problem, targets, config)

    def test_one_block_runs_in_process(self, problem25, targets25):
        config = GaConfig(20, 2, runs=4, seed=3)
        with patch.object(gasim, "_cpus", return_value=8), \
                patch.object(os, "fork", side_effect=AssertionError):
            points = generational_observability(problem25, targets25, config)
        assert _as_tuples(points) == sequential_generational(problem25, targets25, config)

    def test_one_cpu_runs_every_block_in_process(self, problem25, targets25):
        # 2 runs per block: 7 runs make 4 blocks, all in this process
        config = GaConfig(10, 2, runs=7, seed=8)
        with patch.object(gasim, "_BLOCK_ALLELES", 2 * 10 * problem25.size), \
                patch.object(gasim, "_cpus", return_value=1), \
                patch.object(os, "fork", side_effect=AssertionError):
            points = generational_observability(problem25, targets25, config)
        assert _as_tuples(points) == sequential_generational(problem25, targets25, config)

    def test_failed_worker_raises(self, problem25, targets25):
        parent = os.getpid()

        class FailsInWorker(OneMaxPrimeConcat):
            def evaluate_many(self, rows):
                if os.getpid() != parent:
                    raise MemoryError("worker")
                return super().evaluate_many(rows)

        problem = FailsInWorker(problem25.block_sizes)
        config = GaConfig(10, 1, runs=4, seed=3)
        with patch.object(gasim, "_BLOCK_ALLELES", 2 * 10 * problem.size), \
                patch.object(gasim, "_cpus", return_value=2), \
                pytest.raises(RuntimeError, match="exit code 1"):
            generational_observability(problem, targets25, config)

    def test_cpus(self):
        assert 1 <= gasim._cpus() <= (os.cpu_count() or 1)


def _buffer_a_half(stream, rng):
    """Read one 32-bit value from the stream and from ``rng``, so that each
    holds the high half of the word it read."""
    assert stream.take(stream.bits.random_raw(1), 1)[0] == rng.integers(2 ** 32, dtype=np.uint32)
    assert stream.spare is not None


def _assert_same_state(stream, rng):
    """The stream's generator and its carried half are ``rng``'s state."""
    state = rng.bit_generator.state
    assert stream.bits.state["state"] == state["state"]
    assert stream.spare == (state["uinteger"] if state["has_uint32"] else None)


def _decoded(stream, n, width, fill=False):
    """``_draws`` of one run-generation into new arrays first filled with
    ``fill`` (``ab`` with -1), so that a value it does not write shows."""
    ab = np.full(2 * n, -1, dtype=np.int64)
    coin = np.full(n, fill)
    swap = np.full((n // 2, width), fill)
    flips = np.full((n, width), fill)
    gasim._draws(stream, ab, coin, swap, flips)
    return ab, coin, swap, flips


class TestDraws:
    """The raw-word decoder reads the same random numbers as numpy's calls,
    one per array, and leaves each generator, and its buffered half, in the
    same state."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([1, 2, 3, 500, 599]), st.integers(1, 600)),
           st.integers(1, 30), st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    @example(1, 1, 0, False, False)
    @example(1, 1, 0, True, True)
    @example(2, 3, 3, True, False)
    @example(599, 25, 1, False, True)
    @example(600, 30, 2, True, False)
    def test_same_stream_as_one_call_each(self, n, width, seed, buffered, fill):
        stream, theirs = gasim._Stream(seed), np.random.default_rng(seed)
        if buffered:
            _buffer_a_half(stream, theirs)
        ab, coin, swap, flips = _decoded(stream, n, width, fill)
        a, b, coin_ref, swap_ref, flips_ref = _reference_draws(theirs, n, width)
        assert np.array_equal(ab, np.concatenate([a, b]))
        assert np.array_equal(coin, coin_ref)
        assert np.array_equal(swap, swap_ref)
        assert np.array_equal(flips, flips_ref)
        _assert_same_state(stream, theirs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 40), st.integers(1, 30),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @example(3, 0, 25, 0, True)
    @example(1, 1, 1, 0, True)
    @example(2, 1, 1, 0, False)
    def test_populations_are_numpy_uint8_draws(self, runs, n, width, seed, buffered):
        stream, theirs = gasim._Stream(seed), np.random.default_rng(seed)
        if buffered:
            _buffer_a_half(stream, theirs)
        pops = gasim._populations(stream, runs, n, width)
        ref = np.stack([theirs.integers(0, 2, size=(n, width), dtype=np.uint8)
                        for _ in range(runs)])
        assert pops.dtype == ref.dtype and pops.shape == ref.shape
        assert np.array_equal(pops, ref)
        _assert_same_state(stream, theirs)

    def _assert_draws_match(self, stream, theirs, n, width):
        """``_draws`` from ``stream`` equals ``_reference_draws`` from
        ``theirs``, and leaves the same generator state."""
        ab, coin, swap, flips = _decoded(stream, n, width)
        a, b, coin_ref, swap_ref, flips_ref = _reference_draws(theirs, n, width)
        assert np.array_equal(ab, np.concatenate([a, b]))
        assert np.array_equal(coin, coin_ref)
        assert np.array_equal(swap, swap_ref)
        assert np.array_equal(flips, flips_ref)
        _assert_same_state(stream, theirs)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("n, seed, word, high", [
        (500, 1, 3144596, False), (500, 7, 177461, True), (500, 50, 37000, False),
        (600, 27, 109279, True)])
    def test_rejection_sites(self, n, seed, word, high, buffered):
        # each site is the rejected half of one word: the low 32 bits of its
        # product with n are below 2**32 % n (296 for n = 500).  A buffered
        # half, when there is one, is the half just before the site
        probe = np.random.default_rng(seed)
        probe.bit_generator.advance(word)
        u = int(probe.bit_generator.random_raw()) >> (32 if high else 0) & 0xFFFFFFFF
        assert u * n % 2 ** 32 < 2 ** 32 % n
        stream, theirs = gasim._Stream(seed), np.random.default_rng(seed)
        skip = word - (buffered and not high)
        stream.bits.advance(skip)
        theirs.bit_generator.advance(skip)
        if buffered:
            _buffer_a_half(stream, theirs)
        self._assert_draws_match(stream, theirs, n, 25)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_rejections_among_the_redrawn_values(self, buffered):
        # n = 3 * 2**17 rejects 2**32 % n = 2**18 of the 2**32 values, so
        # seed 224 rejects dozens of its first 2n values, and more among the
        # values that replace them: the decoder reads three times
        n = 3 * 2 ** 17
        stream, theirs = gasim._Stream(224), np.random.default_rng(224)
        if buffered:
            _buffer_a_half(stream, theirs)
        probe = copy.deepcopy(theirs)
        u = probe.integers(0, 2 ** 32, size=2 * n + 100, dtype=np.uint32).astype(np.uint64)
        rejected = np.cumsum(u * n % 2 ** 32 < 2 ** 32 % n)
        first = rejected[2 * n - 1]
        assert 0 < first < rejected[2 * n + first - 1]
        self._assert_draws_match(stream, theirs, n, 1)

    def test_redraw_in_a_block_of_runs(self, problem25, targets25):
        # GA seed 5 makes one Lemire redraw in its first 200 runs: run 26
        # (counting from 0), in its step to generation 8, whose read of
        # 3n values for entrants and coins is read again with 3n + 1.  That
        # run then goes on with the other buffered-half parity from the
        # rest of its block of 5
        config = GaConfig(500, 10, runs=30, seed=5)
        with patch.object(gasim, "_words", side_effect=gasim._words) as spy, \
                patch.object(gasim, "_cpus", return_value=1):
            points = generational_observability(problem25, targets25, config)
        assert [c.args[0] for c in spy.call_args_list].count(3 * 500 + 1) == 1
        assert _as_tuples(points) == sequential_generational(problem25, targets25, config)

    @pytest.mark.parametrize("p", [0.0, 2.0 ** -60, 0.01, 0.3, 0.9, 1 - 2.0 ** -53])
    def test_below_is_random_below_p(self, p):
        # words on both sides of the bound, and the extremes
        edge = math.ceil(p * 2 ** 53) << 11
        words = np.array([w % 2 ** 64 for w in (0, 1, edge - 1, edge, edge + 1, edge + 2047,
                                                 edge + 2048, 2 ** 64 - 1)], dtype=np.uint64)
        doubles = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert np.array_equal(words < gasim._bound(p), doubles < p)

    def test_takes_integer_seeds_only(self):
        # a fresh default_rng(int) is PCG64 with no buffered half
        for seed in (np.random.default_rng(0), np.random.Generator(np.random.MT19937(0)),
                     None, 1.5, "3"):
            with pytest.raises(TypeError):
                gasim._Stream(seed)
        stream = gasim._Stream(np.int64(3))
        _assert_same_state(stream, np.random.default_rng(3))
        assert stream.spare is None
