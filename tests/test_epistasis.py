"""Epistasis detection and the weak-epistasis audit."""

import itertools
from unittest.mock import patch

import numpy as np
import pytest

from epilink.decomposition import test_so as run_test_so
from epilink.model import Assignment, global_optimum, psi_at
from epilink import epistasis as ep
from epilink.epistasis import EpistasisKind
from epilink.problems import CTrap, OneMaxPrimeConcat


@pytest.fixture(scope="module")
def ctrap4():
    return CTrap(1)


class TestOrder1:
    def test_ctrap_strict(self, ctrap8):
        assert ep.order1(ctrap8, 0, 3) is EpistasisKind.STRICT

    def test_cniah_nonstrict(self, cniah8):
        assert ep.order1(cniah8, 0, 3) is EpistasisKind.NONSTRICT

    def test_onemax_none(self, onemax8):
        assert ep.order1(onemax8, 0, 3) is EpistasisKind.NONE

    def test_cross_block_none(self, ctrap8):
        assert ep.order1(ctrap8, 0, 5) is EpistasisKind.NONE

    def test_same_locus_rejected(self, onemax8):
        with pytest.raises(ValueError):
            ep.order1(onemax8, 2, 2)

    def test_agrees_with_general_detector(self, ctrap8, cniah8, onemax8, weak_pair):
        # the pairwise classifier and the general |S|=1 path must agree
        for p in (ctrap8, cniah8, onemax8, weak_pair):
            for u, v in itertools.permutations(range(min(p.size, 6)), 2):
                kind = ep.order1(p, u, v)
                assert (kind is not EpistasisKind.NONE) == ep.epistatic(p, {u}, v)


class TestEpistatic:
    def test_weak_pair_psi_values(self, weak_pair):
        # forcing loci 0 and 1 flips the optimum at 2, either alone does not
        assert psi_at(weak_pair, Assignment(((0, 0), (1, 1))), 2) == frozenset({0})
        assert psi_at(weak_pair, Assignment(((0, 0),)), 2) == frozenset({1})

    def test_weak_pair_detection(self, weak_pair):
        assert ep.epistatic(weak_pair, {0, 1}, 2)
        assert not ep.epistatic(weak_pair, {0}, 2)
        assert not ep.epistatic(weak_pair, {1}, 2)

    def test_empty_set_never_epistatic(self, ctrap8):
        assert not ep.epistatic(ctrap8, set(), 3)

    def test_target_inside_set_rejected(self, ctrap8):
        with pytest.raises(ValueError):
            ep.epistatic(ctrap8, {1, 3}, 3)

    def test_hitchhiker_excluded(self, ctrap8):
        # {0, 4} mixes two independent blocks: 4 never matters for 3
        assert ep.epistatic(ctrap8, {0, 1}, 3)
        assert not ep.epistatic(ctrap8, {0, 4}, 3)

    def test_witnesses_cover_every_member(self, ctrap4):
        wit = ep.witnesses(ctrap4, {0, 1, 2}, 3)
        assert set(wit) == {0, 1, 2}
        for s, a in wit.items():
            assert a.coverage == frozenset({0, 1, 2})
            assert psi_at(ctrap4, a, 3) != psi_at(
                ctrap4, Assignment((u, x) for u, x in a.items() if u != s), 3
            )


class TestWeakAudit:
    def test_ctrap_clean(self, ctrap8):
        assert ep.find_weak_epistases(ctrap8, max_order=3) == []

    def test_onemax_clean(self, onemax8):
        assert ep.find_weak_epistases(onemax8, max_order=3) == []

    def test_cyctrap_has_overlap_pairs(self, cyctrap12):
        weak = ep.find_weak_epistases(cyctrap12, max_order=2)
        assert (frozenset({2, 4}), 3) in weak

    def test_onemax_prime_blocks_found(self):
        p = OneMaxPrimeConcat([3])
        weak = set(ep.find_weak_epistases(p, max_order=2))
        assert weak == {
            (frozenset({0, 1}), 2),
            (frozenset({0, 2}), 1),
            (frozenset({1, 2}), 0),
        }


class TestProp4AndProp7:
    def test_non_weak_composition(self, ctrap8):
        # audited weak-free: every epistasis contains an order-1 member
        assert ep.find_weak_epistases(ctrap8, max_order=3) == []
        for order in (2, 3):
            for S in itertools.combinations(range(4), order):
                for v in set(range(4)) - set(S):
                    if ep.epistatic(ctrap8, set(S), v):
                        assert any(
                            ep.order1(ctrap8, s, v) is not EpistasisKind.NONE
                            for s in S
                        )

    def test_wrong_allele_implies_epistatic_subset(self, weak_pair):
        # whenever the non-optimal allele survives, some subset explains it
        g = global_optimum(weak_pair)
        for v in range(3):
            others = [u for u in range(3) if u != v]
            for k in (1, 2):
                for sub in itertools.combinations(others, k):
                    for pattern in itertools.product((0, 1), repeat=len(sub)):
                        a = Assignment(zip(sub, pattern))
                        if (1 - g[v]) not in psi_at(weak_pair, a, v):
                            continue
                        assert any(
                            ep.epistatic(weak_pair, set(S), v)
                            for r in range(1, len(sub) + 1)
                            for S in itertools.combinations(sub, r)
                        )


class TestLociOutOfRange:
    """A locus outside [0, size) is refused before any scan, as a negative
    one would otherwise read from the end and a large one fail in numpy."""

    @pytest.mark.parametrize("call, bad", [
        (lambda p: ep.order1(p, 1, 9), 9),
        (lambda p: ep.order1(p, 9, 1), 9),
        (lambda p: ep.order1(p, -1, 1), -1),
        (lambda p: ep.order1(p, 1, -8), -8),
        (lambda p: ep.witnesses(p, {1}, -8), -8),
        (lambda p: ep.witnesses(p, {1}, 8), 8),
        (lambda p: ep.witnesses(p, {-1}, 2), -1),
        (lambda p: ep.witnesses(p, {9}, 2), 9),
        (lambda p: ep.epistatic(p, {1}, -8), -8),
        (lambda p: ep.epistatic(p, {1}, 8), 8),
        (lambda p: ep.epistatic(p, set(), 99), 99),
        (lambda p: run_test_so(p, {-1, 2}, np.zeros((1, 8), np.uint8)), -1),
    ])
    def test_refused_before_any_scan(self, call, bad):
        p = CTrap(2)
        scanned = AssertionError("a locus out of range reached a scan")
        with patch.object(p, "completions", side_effect=scanned):
            with pytest.raises(ValueError, match=f"^locus {bad} out of range for problem size 8$"):
                call(p)
