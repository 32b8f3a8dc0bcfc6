"""Partial enumeration, the stationary-superiority test, and the
iterative solver."""

import contextlib
import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink import decomposition, problems
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
    """Wrapper that audits the exact number of fitness rows evaluated; every
    other attribute is the wrapped problem's."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

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
def fitness_problem(draw):
    """A benchmark or a random half-integer lookup table; few levels make
    ties common, and one level is a flat table on which IPE fails."""
    choice = draw(st.sampled_from(["lookup", "onemax", "leadingones", "ctrap", "cniah",
                                   "cyctrap", "leadingtraps", "onemax-prime"]))
    if choice == "lookup":
        size = draw(st.integers(1, 8))
        levels = draw(st.sampled_from([1, 2, 3, 2 ** size]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return LookupTable((rng.integers(0, levels, size=2 ** size) / 2).tolist())
    return {
        "onemax": OneMax(7),
        "leadingones": LeadingOnes(6),
        "ctrap": CTrap(2),
        "cniah": CNiah(2),
        "cyctrap": CycTrap(3),
        "leadingtraps": LeadingTraps(2),
        "onemax-prime": OneMaxPrimeConcat([3, 4]),
    }[choice]


@st.composite
def problem_and_partition(draw):
    """A problem and a random ordered partition of its loci."""
    problem = draw(fitness_problem())
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
        # 1 + 2 * 2^4 counted evaluations and no row: the random start is
        # read as the completion of its full assignment, and each block's
        # patterns as the completions of the other loci
        counting = CountingProblem(ctrap8)
        result = partial_enumeration(counting, [range(4), range(4, 8)], seed=0)
        assert (result.evaluations, counting.calls) == (33, 0)

    @settings(max_examples=150, deadline=None)
    @given(problem_and_partition(), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_matches_sequential_reference(self, case, seed, tabled):
        # with the table built first, each block reads a view of it
        problem, partition = case
        if tabled:
            problem.fitness_table()
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


def sequential_so(problem, S, population):
    """Reference stationary-superiority test: one ``evaluate_many`` call over
    the n * 2^|S| variants of one subset."""
    S = sorted(set(S))
    n, npat = len(population), 2 ** len(S)
    patterns = np.array(list(itertools.product((0, 1), repeat=len(S))), dtype=np.uint8)
    variants = np.repeat(population, npat, axis=0)
    variants[:, S] = np.tile(patterns, (n, 1))
    fits = problem.evaluate_many(variants).reshape(n, npat)
    best = fits.max(axis=1)
    if not ((fits == best[:, None]).sum(axis=1) == 1).all():
        return False, None
    winners = fits.argmax(axis=1)
    if not (winners == winners[0]).all():
        return False, None
    return True, Assignment(zip(S, patterns[winners[0]].tolist()))


def sequential_ipe(problem, n, seed, subset_order):
    """Reference IPE: one ``sequential_so`` call per subset, in order, with
    n * 2^k counted evaluations per call."""
    rng = np.random.default_rng(seed)
    population = random_population(problem, n, rng)
    unassigned = set(range(problem.size))
    trace = DecompositionTrace()
    k = 1
    while k <= len(unassigned):
        subsets = list(itertools.combinations(sorted(unassigned), k))
        if subset_order == "random":
            rng.shuffle(subsets)
        for S in subsets:
            found, a = sequential_so(problem, S, population)
            trace.evaluations += n * 2 ** k
            if found:
                break
        else:
            k += 1
            continue
        for v, allele in a.items():
            population[:, v] = allele
        unassigned -= set(S)
        trace.steps.append(TraceStep(len(trace.steps), frozenset(S), a, k, trace.evaluations))
        if not unassigned:
            return tuple(int(b) for b in population[0]), trace.to_json(), trace.evaluations
        k = 1
    trace.failed = True
    return None, trace.to_json(), trace.evaluations


#: "built": the fitness table is built first, so every scan gathers from
#: it; "lazy": each scan builds it or streams as it would on its own;
#: "hidden": there is no table, so fitness goes through ``evaluate_many``.
TABLE_MODES = ["built", "lazy", "hidden"]


def fitness_path(problem, table):
    """Sets up the fitness path named by ``table``, one of ``TABLE_MODES``."""
    if table == "hidden":
        return patch.object(problem, "fitness_table", return_value=None)
    if table == "built":
        problem.fitness_table()
    return contextlib.nullcontext()


def run_ipe(problem, n, seed, order, table="lazy", chunk_bits=None, screen_rows=None):
    """``ipe`` on either fitness path; ``chunk_bits`` patches the chunk budget
    and ``screen_rows`` the chromosomes each chunk is screened on."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(fitness_path(problem, table))
        if chunk_bits is not None:
            stack.enter_context(patch.object(decomposition, "_CHUNK_BITS", chunk_bits))
        if screen_rows is not None:
            stack.enter_context(patch.object(decomposition, "_SCREEN_ROWS", screen_rows))
        result = ipe(problem, n, seed, order)
    return result.chromosome, result.trace.to_json(), result.trace.evaluations


def context_winner_table():
    """3 loci, f = 4*x1 + 2*[x0 != x2] + x0.  The winner on {0} and on {2}
    depends on the other locus, {1} always takes 1, and {0, 2} then takes
    (1, 0): a screen of one chromosome passes {0} and {2}, and a population
    that varies on the other locus fails them."""
    return LookupTable(
        [4 * x1 + 2 * (x0 != x2) + x0 for x0, x1, x2 in itertools.product((0, 1), repeat=3)],
        name="context-winner",
    )


class TestBatchedIpe:
    @settings(max_examples=150, deadline=None)
    @given(fitness_problem(), st.integers(1, 80), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["lex", "random"]), st.sampled_from(TABLE_MODES),
           st.one_of(st.none(), st.integers(0, 8)), st.sampled_from([1, 2, None]))
    def test_matches_sequential_reference(self, problem, n, seed, order, table, chunk_bits,
                                          screen_rows):
        # n above and below 2 * screen_rows: screened scans and whole-population ones
        assert run_ipe(problem, n, seed, order, table, chunk_bits, screen_rows) == (
            sequential_ipe(problem, n, seed, order)
        )

    @pytest.mark.parametrize("table", ["built", "hidden"])
    def test_screen_pass_failing_later_is_skipped(self, table):
        p = context_winner_table()
        n, seed = 8, 0
        population = random_population(p, n, np.random.default_rng(seed))
        # the first chromosome alone passes {0} and {2}; the others refute both
        assert len(set(population[:, 0])) == len(set(population[:, 2])) == 2
        got = run_ipe(p, n, seed, "lex", table, screen_rows=1)
        assert got == sequential_ipe(p, n, seed, "lex")
        steps = [(s["S"], s["cumulative_evaluations"]) for s in got[1]["steps"]]
        # {0} is tested before {1} passes; {0} and {2} before {0, 2} passes
        assert steps == [([1], 2 * n * 2), ([0, 2], 2 * n * 2 + 2 * n * 2 + n * 4)]
        assert got[0] == (1, 1, 0)

    @pytest.mark.parametrize("table", ["built", "hidden"])
    @pytest.mark.parametrize("chunk_bits", [2, 3, None])
    def test_pass_mid_chunk_and_in_later_chunk(self, table, chunk_bits):
        # only locus 3 matters: singletons 0-2 tie, {3} is the fourth subset
        # tested; with n = 1 a chunk of 2 (bits 2) puts it second in the
        # second chunk, a chunk of 4 (bits 3) last in the first
        p = LookupTable([(i & 1) for i in range(16)], name="last-locus")
        got = run_ipe(p, 1, 0, "lex", table, chunk_bits)
        assert got == sequential_ipe(p, 1, 0, "lex")
        first = got[1]["steps"][0]
        assert (first["S"], first["cumulative_evaluations"]) == ([3], 4 * 2)

    def test_large_problem_streams(self):
        # 70 loci: no table, and too wide for a packed int64 index
        p = OneMax(70)
        assert p.fitness_table() is None
        assert run_ipe(p, 3, 2, "random") == sequential_ipe(p, 3, 2, "random")

    def test_screen_reads_fewer_rows_above_the_budget(self):
        # 24 loci, no table: the counted evaluations are n * 2^k per subset
        # tested, while most rows read are variants of the 16 screened
        # chromosomes (2,319,360 rows before the screen)
        p = CTrap(6)
        with patch.object(problems, "_TABLE_BUDGET", 1 << 20), \
                patch.object(p, "evaluate_many", wraps=p.evaluate_many) as spy:
            assert p.fitness_table() is None
            result = ipe(p, 64, 3)
        assert result.chromosome == (1,) * 24
        assert result.trace.evaluations == 2_242_560
        assert sum(len(call.args[0]) for call in spy.call_args_list) < 1_000_000

    def test_rowwise_scan_evaluates_only_the_counted_rows(self):
        # onemax-24, n = 8, no table: each of the 24 scans passes on its
        # first subset, so the 24 * 8 * 2 counted evaluations are all the
        # rows evaluated (a whole first chunk would have read 4,800)
        p = OneMax(24)
        with patch.object(p, "evaluate_many", wraps=p.evaluate_many) as spy:
            result = ipe(p, 8, 3)
        assert result.chromosome == (1,) * 24 and p.fitness_table(0) is None
        assert result.trace.evaluations == 384
        assert sum(len(call.args[0]) for call in spy.call_args_list) == 384

    def test_table_built_only_when_the_scan_costs_as_much(self):
        # onemax-20, n = 8: the first scan passes after 8 * 2 of the
        # 8 * 2 * 20 evaluations it could take, far below 2^20
        p = OneMax(20)
        assert run_ipe(p, 8, 3, "lex") == sequential_ipe(p, 8, 3, "lex")
        assert p.fitness_table(0) is None
        # onemax-4, n = 2: the first scan could take 2 * 2 * 4 = 2^4
        p = OneMax(4)
        assert run_ipe(p, 2, 3, "lex") == sequential_ipe(p, 2, 3, "lex")
        assert p.fitness_table(0) is not None


class TestTestSo:
    def test_trap_block_always_wins(self, ctrap8):
        rng = np.random.default_rng(0)
        for n in (1, 2, 16):
            P = random_population(ctrap8, n, rng)
            ok, a = run_test_so(ctrap8, range(4), P)
            assert ok
            assert a == Assignment((v, 1) for v in range(4))

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
        for table in TABLE_MODES:
            with fitness_path(onemax4, table):
                with pytest.raises(ValueError, match="S must be nonempty"):
                    run_test_so(onemax4, set(), P)
                with pytest.raises(ValueError, match="population must be nonempty"):
                    run_test_so(onemax4, {0}, P[:0])

    @pytest.mark.parametrize("prebuilt", [False, True], ids=["fresh", "prebuilt-table"])
    def test_refuses_a_population_or_locus_off_the_problem(self, prebuilt):
        # a built table would otherwise be read at any width or locus
        p = CTrap(1)
        if prebuilt:
            global_optimum(p)
            assert p.fitness_table(0) is not None
        with pytest.raises(ValueError, match="2-D with 4 columns"):
            run_test_so(p, [1], np.zeros((2, 5), np.uint8))
        with pytest.raises(ValueError, match="2-D with 4 columns"):
            run_test_so(p, [1], np.zeros(4, np.uint8))
        for locus in (4, -1):
            with pytest.raises(ValueError, match=f"^locus {locus} out of range for problem size 4$"):
                run_test_so(p, [locus], np.zeros((2, 4), np.uint8))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([2, 3, 64]), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 8), st.data(), st.sampled_from(TABLE_MODES))
    def test_matches_definition(self, size, levels, seed, n, data, table):
        rng = np.random.default_rng(seed)
        p = LookupTable((rng.integers(0, levels, size=2 ** size) / 2).tolist())
        S = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1)))
        P = random_population(p, n, rng)
        # winner: the one pattern on S strictly above every other pattern
        # in every chromosome's context
        patterns = [Assignment(zip(S, bits)) for bits in itertools.product((0, 1), repeat=len(S))]
        winners = [
            a for a in patterns
            if all(p.evaluate(a.apply(x)) > p.evaluate(b.apply(x))
                   for x in P.tolist() for b in patterns if b != a)
        ]
        with fitness_path(p, table):
            got = run_test_so(p, S, P)
        assert got == ((True, winners[0]) if winners else (False, None))

    def test_sound_on_stationary_optima(self, ctrap8):
        # the all-ones block pattern is an SO; every population accepts it
        from epilink.oracles import is_stationary_optimum

        a = Assignment((v, 1) for v in range(4, 8))
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


class TestPacSweep:
    @pytest.mark.parametrize("n_values, runs, message", [
        ([4], 0, "runs must be >= 1"),
        ([4, 0], 2, "population size must be >= 1"),
    ])
    def test_refused_before_any_work(self, n_values, runs, message):
        with patch.object(decomposition, "global_optimum", side_effect=AssertionError), \
                patch.object(decomposition, "ipe", side_effect=AssertionError):
            with pytest.raises(ValueError, match=message):
                decomposition.pac_sweep(OneMax(4), n_values, runs=runs, seed=1)


class TestPacThreshold:
    def test_feasible_bound(self):
        # k = 1: 2^2 * (ln 8 + ln 10) = 17.5
        assert decomposition.pac_threshold(1, 8, 0.1) == (18, "2^2 * (ln 8 + ln 10) = 18")

    def test_infeasible_bound_is_symbolic(self):
        assert decomposition.pac_threshold(4, 8, 0.1) == (None, "2^80 * (ln 8 + ln 10)")
