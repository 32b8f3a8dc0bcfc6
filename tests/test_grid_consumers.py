"""The checks built on optima grids against the per-pattern loops they replace.

Each reference below walks every assignment in lexicographic order and asks
``psi_at`` once per pattern, the way witness search, the weak-epistasis
audit and the blanket check used to.  The tables are random half-integer
lookup tables of up to 6 loci, often with few distinct values (so optima
tie), and with one lifted entry (so the global optimum is unique).
"""

import itertools
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink import epistasis as ep
from epilink.graph import build_eg, in_set, max_epistasis_order
from epilink.model import EMPTY, Assignment, global_optimum, optima_grid, psi_at
from epilink.oracles import verify_blanket
from epilink.problems import LookupTable


@st.composite
def lookup_tables(draw, min_size=2, max_size=6):
    size = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([2, 3, 4, 8, 64]))
    values = rng.integers(0, levels, size=2 ** size).astype(float)
    values[rng.integers(2 ** size)] = levels  # the unique global optimum
    return LookupTable((values / 2).tolist())


def loop_reference(problem):
    """Epistasis by the lexicographic per-pattern loop, memoized per table."""

    @lru_cache(maxsize=None)
    def psi(a, v):
        return psi_at(problem, a, v)

    def witness(S, v, s):
        for pattern in itertools.product((0, 1), repeat=len(S)):
            a = Assignment(zip(S, pattern))
            if psi(a, v) != psi(Assignment((u, x) for u, x in a.items() if u != s), v):
                return a
        return None

    @lru_cache(maxsize=None)
    def witnesses(S, v):
        found = {s: witness(S, v, s) for s in S}
        return None if None in found.values() else found

    def epistatic(S, v):
        return bool(S) and witnesses(S, v) is not None

    return epistatic, witnesses


def weak_by_loop(problem, max_order):
    epistatic, _ = loop_reference(problem)
    found = []
    for order in range(2, max_order + 1):
        for S in itertools.combinations(range(problem.size), order):
            for v in range(problem.size):
                if v in S or not epistatic(S, v):
                    continue
                subsets = [T for k in range(1, order) for T in itertools.combinations(S, k)]
                if not any(epistatic(T, v) for T in subsets):
                    found.append((frozenset(S), v))
    return found


class TestEpistasisAgainstLoops:
    @settings(max_examples=80, deadline=None)
    @given(problem=lookup_tables(), data=st.data())
    def test_epistatic_and_witnesses(self, problem, data):
        epistatic, witnesses = loop_reference(problem)
        order = data.draw(st.integers(1, min(3, problem.size - 1)))
        S = tuple(sorted(data.draw(st.lists(
            st.integers(0, problem.size - 1), min_size=order, max_size=order, unique=True))))
        for v in range(problem.size):
            if v in S:
                continue
            assert ep.epistatic(problem, S, v) == epistatic(S, v)
            assert ep.witnesses(problem, S, v) == witnesses(S, v)

    @settings(max_examples=60, deadline=None)
    @given(problem=lookup_tables(max_size=5), max_order=st.integers(2, 3))
    def test_find_weak_epistases(self, problem, max_order):
        assert ep.find_weak_epistases(problem, max_order) == weak_by_loop(problem, max_order)

    @settings(max_examples=30, deadline=None)
    @given(problem=lookup_tables(max_size=5), bound=st.integers(1, 3))
    def test_max_epistasis_order(self, problem, bound):
        epistatic, _ = loop_reference(problem)
        want = max(
            (k for k in range(1, bound + 1)
             for S in itertools.combinations(range(problem.size), k)
             for v in range(problem.size) if v not in S and epistatic(S, v)),
            default=0,
        )
        assert max_epistasis_order(problem, bound) == want


def two_grid_first_witnesses(problem, S):
    """``ep._first_witnesses`` by one scan per subset: the optima without
    S[i] read from the grid over S without S[i]."""
    k = len(S)
    grid = optima_grid(problem, EMPTY, S)
    targets = grid.free
    codes = grid.alleles(targets).reshape((2,) * k + (-1,))
    out = np.full((k, k + len(targets)), -1)
    for i in range(k):
        sub = optima_grid(problem, EMPTY, S[:i] + S[i + 1:]).alleles(targets)
        changed = (codes != np.expand_dims(sub.reshape((2,) * (k - 1) + (-1,)), i)).reshape(2 ** k, -1)
        out[i, list(targets)] = np.where(changed.any(axis=0), changed.argmax(axis=0), -1)
    return out


class TestFirstWitnesses:
    @settings(max_examples=150, deadline=None)
    @given(problem=lookup_tables(max_size=7), data=st.data())
    def test_one_grid_matches_one_scan_per_subset(self, problem, data):
        # any S, from no locus to every locus
        S = tuple(sorted(data.draw(st.lists(
            st.integers(0, problem.size - 1), max_size=problem.size, unique=True))))
        got = ep._first_witnesses(optima_grid(problem, EMPTY, S))
        assert np.array_equal(got, two_grid_first_witnesses(problem, S))


def blanket_by_loop(problem, S):
    """(name, status, detail) of each claim, as the per-pattern blanket loop
    reported them with the weak-epistasis premise taken as given."""
    S = frozenset(S)
    G = build_eg(problem)
    g = global_optimum(problem)
    tier1, tier2 = in_set(G, S, 1), in_set(G, S, 2)
    blanket = Assignment.batch_pattern(sorted(tier1 - S), g)
    outside = sorted(set(range(problem.size)) - S - tier1 - tier2)
    for pattern in itertools.product((0, 1), repeat=len(outside)):
        r = Assignment(zip(outside, pattern))
        per = {s: psi_at(problem, blanket | r, s) for s in sorted(S)}
        bad = [s for s, alleles in per.items() if g[s] not in alleles]
        if bad:
            return [(f"blanket holds for S={sorted(S)}", "fail",
                     f"R={r.to_json()} excludes the correct allele at loci {bad}")]
        if all(len(alleles) == 1 for alleles in per.values()):
            if any(per[s] != frozenset((g[s],)) for s in per):
                return [(f"unique-pattern corollary for S={sorted(S)}", "fail", f"R={r.to_json()}")]
    return [(f"blanket holds for S={sorted(S)}", "pass", ""),
            (f"unique-pattern corollary for S={sorted(S)}", "pass", "")]


def claims(report):
    return [(c.name, c.status, c.detail) for c in report.claims]


class TestBlanketAgainstLoop:
    @settings(max_examples=60, deadline=None)
    @given(problem=lookup_tables(), data=st.data())
    def test_claims_and_detail(self, problem, data):
        S = data.draw(st.lists(st.integers(0, problem.size - 1), min_size=1, max_size=2,
                               unique=True))
        assert claims(verify_blanket(problem, S, build_eg(problem), [])) == blanket_by_loop(problem, S)

    def test_random_tables_fail_and_pass(self):
        # the fail path and its detail text are exercised, not only passes
        statuses = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            values = rng.integers(0, 64, size=2 ** 5).astype(float)
            values[rng.integers(2 ** 5)] = 64
            problem = LookupTable((values / 2).tolist())
            for v in range(5):
                got = claims(verify_blanket(problem, {v}, build_eg(problem), []))
                assert got == blanket_by_loop(problem, {v})
                statuses.add(got[0][1])
        assert statuses == {"pass", "fail"}
