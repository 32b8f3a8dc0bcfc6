"""Brute-force theorem oracles and EBACC scoring."""

import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink import epistasis, graph
from epilink.epistasis import find_weak_epistases
from epilink.graph import build_eg, in_closure
from epilink.model import Assignment, EnumerationCapError, global_optimum, pack_bits
from epilink.oracles import (
    ebacc,
    indicator_ebacc,
    is_stationary_optimum,
    minimum_stationary_optima,
    verify,
    verify_blanket,
    verify_clique_structure,
    verify_decomposition_theorem,
)
from epilink import oracles
from epilink.problems import (
    CTrap, CycTrap, LeadingOnes, LeadingTraps, LookupTable, OneMax, make_problem,
)


def indicator(c):
    """The hypothesis that accepts exactly the chromosome ``c``."""
    return lambda bits: tuple(bits) == tuple(c)


def decomposition_report(problem, weak_order):
    weak = find_weak_epistases(problem, weak_order)
    return verify_decomposition_theorem(problem, build_eg(problem), weak)


def blanket_report(problem, S, weak_order):
    return verify_blanket(problem, S, build_eg(problem), find_weak_epistases(problem, weak_order))


class TestIsStationaryOptimum:
    def test_full_global_optimum(self, ctrap8):
        g = global_optimum(ctrap8)
        assert is_stationary_optimum(ctrap8, Assignment(enumerate(g)))

    def test_trap_block(self, ctrap8):
        assert is_stationary_optimum(ctrap8, Assignment((v, 1) for v in range(4)))

    def test_single_trap_locus_is_not(self, ctrap8):
        # the all-zeros rest of the block makes (0, 0) win instead
        assert not is_stationary_optimum(ctrap8, Assignment(((0, 1),)))

    def test_onemax_singletons_are(self, onemax8):
        for v in range(8):
            assert is_stationary_optimum(onemax8, Assignment(((v, 1),)))
            assert not is_stationary_optimum(onemax8, Assignment(((v, 0),)))

    def test_empty_rejected(self, onemax4):
        with pytest.raises(ValueError):
            is_stationary_optimum(onemax4, Assignment())

    def test_cap(self):
        p = OneMax(10)
        with pytest.raises(EnumerationCapError):
            is_stationary_optimum(p, Assignment(((0, 1),)), cap=2 ** 8)

    def test_singleton_reads_a_view(self):
        # the candidate is a strided view of the table, not a copy of it:
        # the peak is the one-byte-per-entry comparison
        problem = OneMax(20)
        problem.fitness_table()
        tracemalloc.start()
        try:
            assert is_stationary_optimum(problem, Assignment(((7, 1),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


class TestMinimumStationaryOptimum:
    def test_onemax_singleton(self):
        p = OneMax(6)
        assert minimum_stationary_optima(p)[2] == Assignment(((2, 1),))

    def test_ctrap_whole_block(self, ctrap8):
        assert minimum_stationary_optima(ctrap8)[5] == Assignment((v, 1) for v in range(4, 8))

    def test_leadingones_prefix(self):
        p = LeadingOnes(6)
        assert minimum_stationary_optima(p)[3] == Assignment((v, 1) for v in range(4))

    def test_cyctrap_locus2_coverage_ten(self, cyctrap12):
        mso = minimum_stationary_optima(cyctrap12)[2]
        assert mso.coverage == frozenset(range(10))
        assert len(mso) == 10

    def test_minimality(self, ctrap8):
        mso = minimum_stationary_optima(ctrap8)[1]
        g = global_optimum(ctrap8)
        for drop in mso.coverage:
            smaller = Assignment.batch_pattern(mso.coverage - {drop}, g)
            if len(smaller) == 0:
                continue
            assert not is_stationary_optimum(ctrap8, smaller)

    def test_in_closures_are_stationary(self, ctrap8, leadingtraps8):
        # every in-closure forced to the optimum pattern is an SO
        for p in (ctrap8, leadingtraps8):
            g = global_optimum(p)
            G = build_eg(p)
            for v in range(p.size):
                a = Assignment.batch_pattern(in_closure(G, v), g)
                assert is_stationary_optimum(p, a)


def loop_mso(problem, v):
    """Reference: the full stationary-optimum test on every subset holding
    v, in ascending size and lexicographic order, until one passes."""
    g = global_optimum(problem)
    others = sorted(set(range(problem.size)) - {v})
    for extra in range(len(others) + 1):
        for more in itertools.combinations(others, extra):
            a = Assignment.batch_pattern((v, *more), g)
            if is_stationary_optimum(problem, a):
                return a
    raise AssertionError("the full global optimum is always stationary")


@st.composite
def tied_lookup_tables(draw):
    """A half-integer lookup table of 1-8 loci with few levels (so many
    ties), a unique global optimum and, sometimes, a locus permutation."""
    size = draw(st.integers(1, 8))
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.integers(0, levels, size=2 ** size).astype(float)
    values[rng.integers(2 ** size)] = levels  # the unique global optimum
    permutation = draw(st.one_of(st.none(), st.permutations(range(size))))
    return LookupTable((values / 2).tolist(), permutation=permutation)


class TestMinimumStationaryOptimumSearch:
    """The one prefiltered walk against the plain per-locus loop."""

    @settings(max_examples=150, deadline=None)
    @given(problem=tied_lookup_tables())
    def test_matches_the_per_subset_loop(self, problem):
        assert minimum_stationary_optima(problem) == tuple(
            loop_mso(problem, v) for v in range(problem.size))

    @settings(max_examples=60, deadline=None)
    @given(problem=tied_lookup_tables())
    def test_full_test_runs_exactly_on_single_flip_survivors(self, problem):
        # the subsets handed to the full test, in order, are those of the
        # walk (ascending size, lexicographic within a size) where every
        # single-locus flip away from g loses in every context (ties count
        # as no loss) and some member has no answer yet; each at most once
        table = problem.fitness_table()
        g = global_optimum(problem)
        rows = np.arange(table.size)
        bit = [1 << (problem.size - 1 - u) for u in range(problem.size)]
        seen = []
        with mock.patch.object(oracles, "is_stationary_optimum",
                               lambda p, a, cap: seen.append(a) or is_stationary_optimum(p, a, cap)):
            found = minimum_stationary_optima(problem)
        expected = []
        left = set(range(problem.size))
        for k in range(1, problem.size + 1):
            for S in itertools.combinations(range(problem.size), k):
                if not left & set(S):
                    continue
                fixed = rows[(rows ^ pack_bits(g)) & sum(bit[u] for u in S) == 0]
                if all((table[fixed ^ bit[u]] < table[fixed]).all() for u in S):
                    a = Assignment.batch_pattern(S, g)
                    expected.append(a)
                    if is_stationary_optimum(problem, a):
                        left -= set(S)
            if not left:
                break
        assert seen == expected
        assert len(set(seen)) == len(seen)
        assert all(found[v] in seen for v in range(problem.size))

    @pytest.mark.parametrize("problem, most", [
        (LeadingTraps(3), 3),  # one full test per block
        (CTrap(3), 3),
        (LeadingOnes(8), 8),  # one prefix per locus
        (CycTrap(4), 12),
    ], ids=["leadingtraps-m3", "ctrap-m3", "leadingones-8", "cyctrap-m4"])
    def test_prefilter_leaves_few_full_tests(self, monkeypatch, problem, most):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return is_stationary_optimum(*args, **kwargs)

        monkeypatch.setattr(oracles, "is_stationary_optimum", counting)
        found = minimum_stationary_optima(problem)
        assert found == tuple(loop_mso(problem, v) for v in range(problem.size))
        assert len(calls) <= most

    @pytest.mark.parametrize("problem, cap", [(OneMax(23), 2 ** 24), (OneMax(10), 2 ** 8)],
                             ids=["oracle-bits", "cap"])
    def test_cap(self, monkeypatch, problem, cap):
        # the table budget (22 loci) or the cap refuses before any scan
        rows = []
        monkeypatch.setattr(problem, "evaluate_many", lambda ys: rows.append(len(ys)))
        with pytest.raises(EnumerationCapError):
            minimum_stationary_optima(problem, cap)
        assert rows == []

    def test_walk_holds_no_survivor_list(self):
        # every subset of OneMax survives the prefilter, yet the walk ends
        # after the singletons: the call's peak is ``reach`` and the
        # survivor mask's uint32 scratch, with no popcount tensor beside them
        problem = OneMax(20)
        problem.fitness_table()
        global_optimum(problem)
        tracemalloc.start()
        try:
            found = minimum_stationary_optima(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == tuple(Assignment(((v, 1),)) for v in range(20))
        assert peak < (8 << 20) + (512 << 10)  # two uint32 tensors of 2^20


class TestDecompositionTheorem:
    def test_ctrap_passes(self, ctrap8):
        [report] = verify(ctrap8, ["decomposition"], 3)
        assert report.ok and report.applicable
        assert report.audited_weak_order == 3
        assert len(report.claims) == 16  # closure + pattern claim per locus

    def test_leadingones_passes(self):
        p = LeadingOnes(6)
        report = decomposition_report(p, 3)
        assert report.ok
        for v, mso in enumerate(minimum_stationary_optima(p)):
            assert mso.coverage == frozenset(range(v + 1))

    def test_cyctrap_not_applicable(self, cyctrap12):
        report = decomposition_report(cyctrap12, 2)
        assert not report.applicable
        assert all(c.status == "not-applicable" for c in report.claims)
        assert any("[2, 4] => 3" in c.detail for c in report.claims)

    def test_report_serialization(self, ctrap8):
        report = decomposition_report(ctrap8, 2)
        assert report.problem == ctrap8.name
        assert all(c.status == "pass" for c in report.claims)
        assert "theorem report" in report.summary()


class TestBlanket:
    def test_ctrap_singletons(self, ctrap8):
        for v in range(8):
            report = blanket_report(ctrap8, {v}, 2)
            assert report.ok and report.applicable

    def test_onemax_vacuous(self, onemax8):
        report = blanket_report(onemax8, {3}, 2)
        assert report.ok

    def test_leadingtraps_cross_block(self, leadingtraps8):
        report = blanket_report(leadingtraps8, {4}, 2)
        assert report.ok

    def test_multi_locus_set(self, ctrap8):
        report = blanket_report(ctrap8, {0, 1}, 2)
        assert report.ok

    def test_weak_premise_not_applicable(self, cyctrap12):
        report = blanket_report(cyctrap12, {0}, 2)
        assert not report.applicable
        assert "weak epistasis found" in report.claims[0].detail

    @pytest.mark.parametrize("bad", [-1, 8, 9])
    def test_locus_out_of_range_refused(self, bad):
        # before any scan, as -1 would otherwise read locus 7 and 9 fail in numpy
        p = CTrap(2)
        G = build_eg(p)
        scanned = AssertionError("a locus out of range reached a scan")
        with mock.patch.object(p, "completions", side_effect=scanned):
            with pytest.raises(ValueError, match=f"^locus {bad} out of range for problem size 8$"):
                verify_blanket(p, {bad}, G, [])
            with pytest.raises(ValueError, match=f"^locus {bad} out of range for problem size 8$"):
                verify_blanket(p, {0, bad}, G, [])

    def test_skip_weak_audit(self, cyctrap12):
        # an empty audit passed in: the raw blanket claim itself still holds
        report = verify_blanket(cyctrap12, {1}, build_eg(cyctrap12), [])
        assert report.applicable


class TestCliqueStructure:
    def test_ctrap12(self):
        report = verify_clique_structure(CTrap(3), build_eg(CTrap(3)))
        assert report.ok and report.applicable
        assert any("max in-degree + 1" in c.name for c in report.claims)

    def test_cniah_not_applicable(self, cniah8):
        report = verify_clique_structure(cniah8, build_eg(cniah8))
        assert not report.applicable
        assert "non-strict" in report.claims[0].detail

    def test_claims_by_smallest_locus(self):
        report = verify_clique_structure(CycTrap(5), build_eg(CycTrap(5)))
        cliques = [c.name for c in report.claims if "clique" in c.name]
        assert cliques == [f"SCC {[v, v + 1]} is a bidirectional clique" for v in (1, 4, 7, 10, 13)]
        # the size claim fails here too (ROADMAP item 4)
        assert (report.claims[-1].status, report.claims[-1].detail) == ("fail", "k_scc=2, k_in=3")

    def test_onemax_vacuous(self, onemax8):
        report = verify_clique_structure(onemax8, build_eg(onemax8))
        assert report.ok
        assert any("vacuously" in c.name for c in report.claims)

    # ROADMAP item 4: the size claim fails whenever a locus outside an SCC
    # points into it.  On this 3-locus table SCC {0, 1} is a clique and
    # locus 2 points into it, with no weak epistasis at any order.
    COUNTEREXAMPLE = {"kind": "lookup-table", "table": [4, 2, 3, 0, 2, 0, 20, 0]}

    def test_size_claim_fails_on_a_strict_graph(self):
        [report] = verify(make_problem(self.COUNTEREXAMPLE), ["clique"], 2)
        assert [(c.status, c.name, c.detail) for c in report.claims] == [
            ("pass", "SCC [0, 1] is a bidirectional clique", ""),
            ("fail", "max SCC size == max in-degree + 1", "k_scc=2, k_in=2"),
        ]

    def test_counterexample_passes_the_decomposition_theorem(self):
        [report] = verify(make_problem(self.COUNTEREXAMPLE), ["decomposition"], 2)
        assert report.applicable and len(report.claims) == 6
        assert all(c.status == "pass" for c in report.claims)


class TestVerify:
    def test_reports_in_theorem_order(self, ctrap8):
        reports = verify(ctrap8, ["clique", "blanket", "decomposition"], 2)
        assert len(reports) == 1 + 8 + 1
        assert reports[0].claims[0].name == "coverage(MSO(0)) == in-closure(0)"
        assert [r.claims[0].name for r in reports[1:9]] == [
            f"blanket holds for S=[{v}]" for v in range(8)
        ]
        assert reports[9].claims[0].name == "SCC [0, 1, 2, 3] is a bidirectional clique"
        assert all(r.ok and r.applicable for r in reports)

    def test_first_report_shows_the_audit_order(self, ctrap8):
        reports = verify(ctrap8, oracles.THEOREMS, 3)
        assert [r.audited_weak_order for r in reports] == [3] + [None] * 9

    def test_clique_alone_shows_no_audit(self, ctrap8):
        [report] = verify(ctrap8, ["clique"], 3)
        assert report.audited_weak_order is None

    @pytest.mark.parametrize("theorems, audits", [(oracles.THEOREMS, 1), (["clique"], 0)])
    def test_one_graph_and_at_most_one_audit(self, ctrap8, theorems, audits):
        find = epistasis.find_weak_epistases
        with mock.patch.object(graph, "build_eg", wraps=graph.build_eg) as eg, \
                mock.patch.object(epistasis, "find_weak_epistases", wraps=find) as audit:
            verify(ctrap8, theorems, 2)
        assert (eg.call_count, audit.call_count) == (1, audits)

    def test_cap_named_before_the_budget(self):
        # a cap above the oracles' limit of 16 rows that refuses 2^10 is named
        with mock.patch.object(oracles, "_FULL_SCAN_MAX", 1 << 4), \
                mock.patch.object(graph, "build_eg", side_effect=AssertionError("scanned")):
            with pytest.raises(EnumerationCapError, match="cap of 256$"):
                verify(OneMax(10), oracles.THEOREMS, cap=256)


class TestEbacc:
    def test_exact_indicator_scores_one(self, ctrap8):
        g = global_optimum(ctrap8)
        score = ebacc(indicator(g), ctrap8)
        assert score.ebacc == 1

    def test_constant_true_scores_half(self, onemax4):
        score = ebacc(lambda c: True, onemax4)
        assert score.sensitivity_star == 1
        assert score.specificity == 0
        assert score.ebacc == Fraction(1, 2)

    def test_rejecting_accepting_below_half(self, onemax4):
        g = global_optimum(onemax4)
        wrong = (0, 0, 0, 0)

        def h(c):
            return tuple(c) == wrong

        score = ebacc(h, onemax4)
        assert score.sensitivity_star == 0
        assert score.specificity < 1
        assert score.ebacc < Fraction(1, 2)

    def test_wrong_chromosome_exact_value(self, onemax4):
        score = ebacc(indicator((0, 1, 1, 1)), onemax4)
        assert score.ebacc == Fraction(2 ** 4 - 2, 2 * (2 ** 4 - 1))

    def test_monotone_in_rejection_count(self, onemax4):
        # rejecting strictly more non-optima never lowers the score
        g = global_optimum(onemax4)
        loose = ebacc(lambda c: True, onemax4)
        tighter = ebacc(lambda c: sum(c) >= 3, onemax4)
        exact = ebacc(indicator(g), onemax4)
        assert loose.ebacc < tighter.ebacc < exact.ebacc

    def test_values_are_exact_fractions(self, onemax4):
        score = ebacc(lambda c: sum(c) >= 2, onemax4)
        assert isinstance(score.specificity, Fraction)
        assert score.ebacc == (score.sensitivity_star + score.specificity) / 2

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            ebacc(lambda c: True, OneMax(10), cap=2 ** 8)
        with pytest.raises(EnumerationCapError):
            indicator_ebacc((1,) * 10, OneMax(10), cap=2 ** 8)


@st.composite
def problem_and_chromosome(draw):
    """A ctrap, onemax or distinct-valued lookup problem of at most 10 loci,
    and either its optimum or a random chromosome."""
    kind = draw(st.sampled_from(["ctrap", "onemax", "lookup"]))
    if kind == "ctrap":
        problem = CTrap(draw(st.integers(1, 2)))
    elif kind == "onemax":
        problem = OneMax(draw(st.integers(1, 10)))
    else:
        size = draw(st.integers(1, 10))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        problem = LookupTable((rng.permutation(2 ** size) / 2).tolist())
    bits = st.lists(st.integers(0, 1), min_size=problem.size, max_size=problem.size)
    c = draw(st.one_of(st.just(global_optimum(problem)), bits.map(tuple)))
    return problem, c


class TestIndicatorEbacc:
    @settings(max_examples=80, deadline=None)
    @given(case=problem_and_chromosome())
    def test_matches_the_predicate_scan(self, case):
        problem, c = case
        got = indicator_ebacc(c, problem)
        assert got == ebacc(indicator(c), problem)
        assert isinstance(got.specificity, Fraction) and isinstance(got.ebacc, Fraction)
