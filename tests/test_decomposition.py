"""Partial enumeration, the stationary-superiority test, and the
iterative solver."""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink import model
from epilink.decomposition import (
    DecompositionTrace,
    TraceStep,
    ipe,
    partial_enumeration,
    random_population,
    test_so as run_test_so,
    trace_topological_check,
)
from epilink.graph import build_eg, cyctrap_reference_partition, topological_partition
from epilink.model import Assignment, EnumerationCapError, global_optimum
from epilink.problems import (
    CNiah,
    CTrap,
    CycTrap,
    LeadingOnes,
    LeadingTraps,
    LookupTable,
    OneMax,
    OneMaxPrimeConcat,
)


class CountingProblem:
    """Wrapper that audits the exact number of fitness rows evaluated."""

    def __init__(self, inner):
        self.inner = inner
        self.size = inner.size
        self.calls = 0

    def evaluate_many(self, arr):
        self.calls += len(arr)
        return self.inner.evaluate_many(arr)


def sequential_pe(problem, partition, seed):
    """Reference partial enumeration: one scalar evaluation per candidate,
    each block's patterns in lexicographic order, strict improvements kept."""
    blocks = [sorted(set(b)) for b in partition]
    rng = np.random.default_rng(seed)
    y = tuple(int(x) for x in rng.integers(0, 2, size=problem.size))
    best = problem.evaluate(y)
    evaluations = 1
    for b in blocks:
        for pattern in itertools.product((0, 1), repeat=len(b)):
            candidate = Assignment(zip(b, pattern)).apply(y)
            fit = problem.evaluate(candidate)
            evaluations += 1
            if fit > best:
                y, best = candidate, fit
    return y, best, evaluations


@st.composite
def problem_and_partition(draw):
    """A benchmark or a random half-integer lookup table (few levels make
    ties common), and a random ordered partition of its loci."""
    choice = draw(st.sampled_from(["lookup", "onemax", "leadingones", "ctrap",
                                   "cyctrap", "leadingtraps", "onemax-prime"]))
    if choice == "lookup":
        size = draw(st.integers(1, 8))
        levels = draw(st.sampled_from([1, 2, 3, 2 ** size]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        problem = LookupTable((rng.integers(0, levels, size=2 ** size) / 2).tolist())
    else:
        problem = {
            "onemax": OneMax(7),
            "leadingones": LeadingOnes(6),
            "ctrap": CTrap(2),
            "cyctrap": CycTrap(3),
            "leadingtraps": LeadingTraps(2),
            "onemax-prime": OneMaxPrimeConcat([3, 4]),
        }[choice]
    order = draw(st.permutations(range(problem.size)))
    bounds = sorted({0, problem.size} | draw(st.sets(st.integers(0, problem.size))))
    return problem, [order[i:j] for i, j in zip(bounds, bounds[1:])]


class TestPartialEnumeration:
    def test_leadingones_singletons(self):
        p = LeadingOnes(6)
        D = [(v,) for v in range(6)]
        for seed in range(5):
            result = partial_enumeration(p, D, seed)
            assert result.chromosome == (1,) * 6
            assert result.evaluations == 1 + 6 * 2

    def test_ctrap_block_partition(self, ctrap8):
        result = partial_enumeration(ctrap8, [range(4), range(4, 8)], seed=3)
        assert result.chromosome == (1,) * 8
        assert result.evaluations == 1 + 2 * 2 ** 4 == 33

    def test_cyctrap_fixture_partition(self, cyctrap12):
        D = cyctrap_reference_partition(12)
        for seed in range(30):
            result = partial_enumeration(cyctrap12, D, seed)
            assert result.chromosome == (1,) * 12

    def test_one_block_is_full_enumeration(self, leadingtraps8):
        result = partial_enumeration(leadingtraps8, [range(8)], seed=0)
        assert result.chromosome == global_optimum(leadingtraps8)
        assert result.evaluations == 1 + 2 ** 8

    def test_exact_call_accounting(self, ctrap8):
        counting = CountingProblem(ctrap8)
        result = partial_enumeration(counting, [range(4), range(4, 8)], seed=0)
        assert counting.calls == result.evaluations == 33

    @settings(max_examples=150, deadline=None)
    @given(problem_and_partition(), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_matches_sequential_reference(self, case, seed, chunked):
        problem, partition = case
        with patch.object(model, "_STREAM_BITS", 2 if chunked else model._STREAM_BITS):
            result = partial_enumeration(problem, partition, seed)
        assert (result.chromosome, result.fitness, result.evaluations) == sequential_pe(
            problem, partition, seed
        )

    def test_invalid_partition_rejected(self, onemax4):
        with pytest.raises(ValueError):
            partial_enumeration(onemax4, [(0, 1)], seed=0)  # not covering
        with pytest.raises(ValueError):
            partial_enumeration(onemax4, [(0, 1), (1, 2, 3)], seed=0)  # overlap

    def test_block_cap(self, onemax8):
        with pytest.raises(EnumerationCapError):
            partial_enumeration(onemax8, [range(8)], seed=0, cap=2 ** 4)

    def test_topological_partition_solves_benchmarks(self):
        problems = [OneMax(8), LeadingOnes(6), CTrap(2), CNiah(2)]
        for p in problems:
            D = topological_partition(build_eg(p))
            g = global_optimum(p)
            expect = 1 + sum(2 ** len(b) for b in D)
            for seed in range(20):
                result = partial_enumeration(p, D, seed)
                assert result.chromosome == g
                assert result.evaluations == expect


class TestTestSo:
    def test_trap_block_always_wins(self, ctrap8):
        rng = np.random.default_rng(0)
        for n in (1, 2, 16):
            P = random_population(ctrap8, n, rng)
            ok, a = run_test_so(ctrap8, range(4), P)
            assert ok
            assert a == Assignment.batch(range(4), 1)

    def test_onemax_singleton(self, onemax4):
        rng = np.random.default_rng(1)
        P = random_population(onemax4, 8, rng)
        ok, a = run_test_so(onemax4, {2}, P)
        assert ok and a == Assignment(((2, 1),))

    def test_context_dependent_winner_fails(self, ctrap8):
        # 00 wins inside an otherwise-zero trap, 11 wins inside 11xx11...
        P = np.array(
            [
                [0, 0, 0, 0, 1, 1, 1, 1],
                [1, 1, 1, 1, 1, 1, 1, 1],
            ],
            dtype=np.uint8,
        )
        ok, a = run_test_so(ctrap8, {0, 1}, P)
        assert not ok and a is None

    def test_tie_fails(self, cniah4):
        # needle absent: every pattern on {0} ties at fitness 0
        P = np.array([[0, 0, 0, 0]], dtype=np.uint8)
        ok, a = run_test_so(cniah4, {0}, P)
        assert not ok and a is None

    def test_validation(self, onemax4):
        P = np.zeros((1, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            run_test_so(onemax4, set(), P)
        with pytest.raises(ValueError):
            run_test_so(onemax4, {0}, P[:0])

    def test_sound_on_stationary_optima(self, ctrap8):
        # the all-ones block pattern is an SO; every population accepts it
        from epilink.oracles import is_stationary_optimum

        a = Assignment.batch(range(4, 8), 1)
        assert is_stationary_optimum(ctrap8, a)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            P = random_population(ctrap8, 1 + seed % 4, rng)
            ok, found = run_test_so(ctrap8, range(4, 8), P)
            assert ok and found == a


class TestIpe:
    def test_onemax_singleton_steps(self, onemax8):
        result = ipe(onemax8, n=1, seed=0)
        assert result.succeeded
        assert result.chromosome == (1,) * 8
        assert [sorted(s.loci) for s in result.trace.steps] == [
            [v] for v in range(8)
        ]
        assert all(s.k == 1 for s in result.trace.steps)
        # each acceptance is the first singleton tried: 1 * 2^1 evals apiece
        assert result.trace.evaluations == 8 * 2

    def test_ctrap_large_population(self, ctrap8):
        result = ipe(ctrap8, n=256, seed=7)
        assert result.succeeded
        assert result.chromosome == (1,) * 8

    def test_deterministic(self, ctrap8):
        a = ipe(ctrap8, n=4, seed=11)
        b = ipe(ctrap8, n=4, seed=11)
        assert a.chromosome == b.chromosome
        assert [s.to_json() for s in a.trace.steps] == [
            s.to_json() for s in b.trace.steps
        ]
        assert a.trace.evaluations == b.trace.evaluations

    def test_random_policy_deterministic(self, ctrap8):
        a = ipe(ctrap8, n=8, seed=3, subset_order="random")
        b = ipe(ctrap8, n=8, seed=3, subset_order="random")
        assert a.chromosome == b.chromosome

    def test_constant_fitness_fails(self):
        p = LookupTable([0, 0, 0, 0], name="flat-2bit")
        result = ipe(p, n=4, seed=0)
        assert not result.succeeded
        assert result.chromosome is None
        assert result.trace.failed
        assert result.trace.steps == []
        # k walked 1..|U| with every subset tested: 4*(2*2 + 1*4) evals
        assert result.trace.evaluations == 4 * (2 * 2 + 1 * 4)

    def test_k_resets_after_success(self):
        # pair {0,1} must be decided jointly, then singleton 2 follows
        p = LookupTable.from_pairs(
            3, {"111": 4, "001": 3, "110": 2, "000": 1}, name="pair-then-single"
        )
        result = ipe(p, n=64, seed=1)
        assert result.succeeded
        ks = [s.k for s in result.trace.steps]
        assert ks[0] >= ks[-1] or len(set(ks)) == 1

    def test_validation(self, onemax4):
        with pytest.raises(ValueError):
            ipe(onemax4, n=0, seed=0)
        with pytest.raises(ValueError):
            ipe(onemax4, n=1, seed=0, subset_order="sorted")

    def test_fork_trace_starts_at_root(self, fork):
        result = ipe(fork, n=64, seed=5)
        assert result.succeeded
        steps = [sorted(s.loci) for s in result.trace.steps]
        assert steps[0] == [0]
        assert sorted(map(tuple, steps[1:])) == [(1,), (2,)]

    def test_trace_json_shape(self, onemax4):
        result = ipe(onemax4, n=2, seed=0)
        payload = result.trace.to_json()
        assert payload["outcome"] == "success"
        assert payload["steps"][0]["S"] == [0]
        assert payload["steps"][0]["k"] == 1
        assert payload["evaluations"] == result.trace.evaluations


class TestTraceTopologicalCheck:
    def test_leadingones_trace_ok(self):
        p = LeadingOnes(5)
        G = build_eg(p)
        result = ipe(p, n=4, seed=2)
        assert result.succeeded
        assert trace_topological_check(result.trace, G)

    def test_ctrap_trace_ok(self, ctrap8):
        G = build_eg(ctrap8)
        result = ipe(ctrap8, n=128, seed=2)
        assert result.succeeded
        assert trace_topological_check(result.trace, G)

    def test_fabricated_backwards_trace(self):
        p = LeadingOnes(5)
        G = build_eg(p)
        bad = DecompositionTrace(
            steps=[
                TraceStep(0, frozenset({4}), Assignment(((4, 1),)), 1, 2),
            ]
        )
        assert not trace_topological_check(bad, G)
