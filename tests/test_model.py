"""Assignments, constrained optima, and the global-optimum contract."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink.model import (
    Assignment,
    AssumptionViolationError,
    EMPTY,
    EnumerationCapError,
    bits_from_str,
    bits_to_str,
    constrained_optima,
    global_optimum,
    optima_grid,
    pack_bits,
    popcounts,
    psi_at,
    unpack_bits,
)
from epilink.problems import LookupTable, OneMax


def A(*pairs):
    return Assignment(pairs)


class TestBitCodecs:
    def test_round_trip_str(self):
        assert bits_from_str("0110") == (0, 1, 1, 0)
        assert bits_to_str((0, 1, 1, 0)) == "0110"

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            bits_from_str("01x0")

    def test_pack_locus0_is_msb(self):
        # locus 0 is the leftmost bit in all textual I/O
        assert pack_bits((1, 0, 0, 0)) == 8
        assert unpack_bits(8, 4) == (1, 0, 0, 0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_popcounts(self, dtype):
        for width in range(13):
            counts = popcounts(width, dtype)
            assert counts.dtype == dtype
            assert counts.tolist() == [bin(i).count("1") for i in range(2 ** width)]

    def test_popcounts_peak_is_its_output(self):
        # the doubling adds in place: no temporary next to the output,
        # which keeps a block over every locus at two tables
        tracemalloc.start()
        try:
            counts = popcounts(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < counts.nbytes + (64 << 10)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_pack_unpack_inverse(self, bits):
        bits = tuple(bits)
        assert unpack_bits(pack_bits(bits), len(bits)) == bits


class TestAssignment:
    def test_empty_apply_is_identity(self):
        assert Assignment().apply((0, 1, 1, 0)) == (0, 1, 1, 0)

    def test_apply_overrides(self):
        assert A((1, 0), (3, 1)).apply((1, 1, 1, 1)) == (1, 0, 1, 1)

    def test_batch_constant(self):
        a = Assignment((v, 1) for v in {1, 3})
        assert a.apply((0, 0, 0, 0)) == (0, 1, 0, 1)
        assert a == A((1, 1), (3, 1))

    def test_batch_pattern_and_complement(self):
        g = (1, 1, 1, 1)
        assert Assignment.batch_pattern(range(4), tuple(1 - b for b in g)) == A(
            (0, 0), (1, 0), (2, 0), (3, 0)
        )
        assert Assignment.batch_pattern((), g) == Assignment()

    def test_wildcard_reads(self):
        a = A((1, 0), (3, 1))
        assert a[1] == 0
        assert a[2] == "*"
        assert 3 in a and 2 not in a

    def test_coverage(self):
        assert A((1, 0), (3, 1)).coverage == frozenset({1, 3})
        assert Assignment().coverage == frozenset()
        full = Assignment((v, 1) for v in range(4))
        assert len(full.coverage) == 4

    def test_conflicting_alleles_rejected(self):
        with pytest.raises(ValueError):
            A((1, 0), (1, 1))
        # duplicate with the same allele is fine
        assert A((1, 0), (1, 0)) == A((1, 0))

    def test_bad_allele_and_locus(self):
        with pytest.raises(ValueError):
            A((1, 2))
        with pytest.raises(ValueError):
            A((-1, 0))

    def test_out_of_range_apply(self):
        with pytest.raises(ValueError):
            A((5, 1)).apply((0, 0, 0))

    def test_union(self):
        assert A((0, 1)) | A((2, 0)) == A((0, 1), (2, 0))

    def test_json_round_trip(self):
        a = A((0, 1), (3, 0))
        assert a.to_json() == {"0": 1, "3": 0}

    def test_hash_and_order_independence(self):
        assert A((0, 1), (3, 0)) == A((3, 0), (0, 1))
        assert hash(A((0, 1), (3, 0))) == hash(A((3, 0), (0, 1)))

    @given(
        st.dictionaries(st.integers(0, 7), st.integers(0, 1), max_size=8),
        st.integers(0, 255),
    )
    def test_apply_read_back_round_trip(self, mapping, packed):
        a = Assignment(mapping)
        bits = unpack_bits(packed, 8)
        out = a.apply(bits)
        assert all(out[v] == al for v, al in a.items())
        assert all(out[v] == bits[v] for v in range(8) if v not in a)


class TestConstrainedOptima:
    def test_cniah_paper_example(self, cniah4):
        # both starting zeros tie every completion at fitness 0
        opt = constrained_optima(cniah4, A((0, 0), (1, 0)))
        assert set(opt.chromosomes) == {
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 0, 1, 1),
        }
        assert opt.per_locus[0] == frozenset({0})
        assert opt.per_locus[2] == frozenset({0, 1})

    def test_full_assignment_is_singleton(self, ctrap8):
        c = (1, 0, 1, 0, 1, 1, 1, 1)
        opt = constrained_optima(ctrap8, Assignment(enumerate(c)))
        assert opt.chromosomes == (c,)
        assert opt.fitness == ctrap8.evaluate(c)

    def test_optimal_batch_pins_everything(self, ctrap8):
        # forcing one block to the optimum leaves the rest optimal too
        g = global_optimum(ctrap8)
        a = Assignment.batch_pattern(range(4), g)
        opt = constrained_optima(ctrap8, a)
        assert all(opt.per_locus[v] == frozenset({g[v]}) for v in range(8))

    def test_members_agree_with_constraint(self, cniah8):
        a = A((0, 0), (5, 1))
        opt = constrained_optima(cniah8, a)
        assert all(c[v] == allele for c in opt.chromosomes for v, allele in a.items())

    def test_no_completion_beats_reported_fitness(self, ctrap8):
        # independent full scan over every completion
        a = A((0, 0), (4, 1))
        opt = constrained_optima(ctrap8, a)
        best = max(
            ctrap8.evaluate(a.apply(unpack_bits(i, 8))) for i in range(2 ** 8)
        )
        assert opt.fitness == best

    def test_cap_refusal_names_size(self):
        p = OneMax(8)
        with pytest.raises(EnumerationCapError) as exc:
            constrained_optima(p, Assignment(), cap=2 ** 6)
        assert exc.value.required == 2 ** 8
        assert "256" in str(exc.value)

    def test_locus_out_of_range(self, onemax4):
        with pytest.raises(ValueError):
            constrained_optima(onemax4, A((7, 1)))


class TestPsiAndEval:
    def test_psi_unconstrained_onemax(self, onemax4):
        assert psi_at(onemax4, Assignment(), 2) == frozenset({1})

    def test_eval_onemax_partial(self, onemax4):
        # best completion of 0*** is 0111, natural fitness 3 (scaled 6)
        assert constrained_optima(onemax4, A((0, 0))).fitness == 6

    def test_eval_cniah_partial(self, cniah4):
        assert constrained_optima(cniah4, A((0, 0))).fitness == 0

    def test_eval_full_equals_evaluate(self, ctrap8):
        c = (1, 1, 1, 1, 0, 0, 0, 0)
        assert constrained_optima(ctrap8, Assignment(enumerate(c))).fitness == ctrap8.evaluate(c)


class TestGlobalOptimum:
    def test_onemax(self):
        assert global_optimum(OneMax(5)) == (1, 1, 1, 1, 1)

    def test_ctrap(self, ctrap8):
        assert global_optimum(ctrap8) == (1,) * 8

    def test_tie_raises_assumption_violation(self):
        # niah variant patched so 0000 also scores the max
        p = LookupTable.from_pairs(4, {"1111": 4, "0000": 4}, name="tied-niah")
        with pytest.raises(AssumptionViolationError) as exc:
            global_optimum(p)
        assert set(exc.value.tied) == {(0, 0, 0, 0), (1, 1, 1, 1)}


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 5), st.integers(0, 1), max_size=4),
        st.integers(0, 5),
    )
    def test_monotone_restriction(self, mapping, v):
        # pinning an allele already present among the optima shrinks them
        p6 = OneMax(6)
        a = Assignment(mapping)
        if v in a:
            return
        opt = constrained_optima(p6, a)
        for allele in opt.per_locus[v]:
            refined = constrained_optima(p6, a | A((v, allele)))
            assert set(refined.chromosomes) <= set(opt.chromosomes)
            if opt.per_locus[v] == frozenset({allele}):
                assert set(refined.chromosomes) == set(opt.chromosomes)

    def test_monotone_restriction_deceptive(self, ctrap8):
        a = A((0, 0), (1, 0))
        opt = constrained_optima(ctrap8, a)
        for v in range(8):
            if v in a:
                continue
            for allele in opt.per_locus[v]:
                refined = constrained_optima(ctrap8, a | A((v, allele)))
                assert set(refined.chromosomes) <= set(opt.chromosomes)

    def test_optimal_pattern_stays_optimal(self, ctrap8, cniah8, leadingtraps8):
        # any subset forced to the optimum keeps every locus optimal
        for p in (ctrap8, cniah8, leadingtraps8):
            g = global_optimum(p)
            for S in [{0}, {0, 3}, {1, 4, 6}, set(range(8))]:
                a = Assignment.batch_pattern(S, g)
                assert all(
                    psi_at(p, a, v) == frozenset({g[v]}) for v in range(8)
                )

    def test_grid_rows_lexicographic(self, ctrap8):
        grid = optima_grid(ctrap8, EMPTY, [2, 0])
        got = [grid.pattern(r).apply((9, 9, 9)) for r in range(4)]
        assert got == [
            (0, 9, 0),
            (0, 9, 1),
            (1, 9, 0),
            (1, 9, 1),
        ]
        for r in range(4):
            assert grid.fitness[r] == constrained_optima(ctrap8, grid.pattern(r)).fitness

    def test_enumeration_matches_slow_reference(self, ctrap8):
        # cross-check the vectorized scan against a plain python loop
        a = A((2, 0), (6, 1))
        opt = constrained_optima(ctrap8, a)
        fits = {}
        for i in range(2 ** 8):
            c = a.apply(unpack_bits(i, 8))
            fits[c] = ctrap8.evaluate(c)
        best = max(fits.values())
        assert set(opt.chromosomes) == {c for c, f in fits.items() if f == best}
        assert opt.fitness == best

    def test_cache_returns_consistent_results(self, onemax8):
        a = A((3, 0))
        first = constrained_optima(onemax8, a)
        second = constrained_optima(onemax8, a)
        assert first == second
        assert first.chromosomes == second.chromosomes
