"""The enumeration kernel against plain itertools brute force.

``optima_grid`` (and ``constrained_optima``, its one-row case) reads the
fitness of every completion from ``FitnessProblem.completions``: a view of
the dense fitness table or, where ``fitness_table`` gives none, the
completions of the assignment alone, tabulated by the kind without
evaluating a row.  Each property runs on three paths: the table built
first, the table hidden, and a byte budget of 1 that refuses every table.
``TestTableRule`` checks when the table is built, and that a scan without
one evaluates no row.
"""

import contextlib
import itertools
from dataclasses import astuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink import problems
from epilink.graph import EpistaticGraph, build_eg
from epilink.model import (
    EMPTY,
    Assignment,
    EnumerationCapError,
    bit_rows,
    constrained_optima,
    global_optimum,
    optima_grid,
    unpack_bits,
)
from epilink.oracles import is_stationary_optimum
from epilink.problems import (
    CTrap,
    CycTrap,
    LeadingOnes,
    LeadingTraps,
    LookupTable,
    OneMax,
    OneMaxPrimeConcat,
)

PATHS = ("table", "no-table", "over-budget")


def draw_assignment(draw, size, min_assigned):
    """A random assignment of at least ``min_assigned`` of ``size`` loci."""
    loci = draw(st.lists(st.integers(0, size - 1), unique=True,
                         min_size=min(min_assigned, size)))
    alleles = draw(st.lists(st.integers(0, 1), min_size=len(loci), max_size=len(loci)))
    return Assignment(zip(loci, alleles))


@st.composite
def lookup_and_assignment(draw, max_size=10, min_assigned=0, permuted=False):
    """A random half-integer lookup table, under a random permutation if
    ``permuted``, and a random partial assignment on it.  Tables with few
    distinct values make ties common; tables of all distinct values make
    stationary optima common."""
    size = draw(st.integers(1, max_size))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    levels = draw(st.sampled_from([1, 2, 3, 6, 2 ** size]))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, levels, size=2 ** size) / 2
    a = draw_assignment(draw, size, min_assigned)
    perm = draw(st.permutations(range(size))) if permuted else None
    return LookupTable(values.tolist(), perm), a


#: Block kinds of at most 8 loci, each built from a permutation.
SMALL_KINDS = (
    lambda perm: CTrap(2, perm),
    lambda perm: LeadingTraps(2, perm),
    lambda perm: CycTrap(2, perm),
    lambda perm: LeadingOnes(8, perm),
    lambda perm: OneMaxPrimeConcat((2, 3), perm),
)


@st.composite
def permuted_block_kind_and_assignment(draw):
    """A block kind of ``SMALL_KINDS`` under a random permutation, and a
    nonempty assignment on it: random, or of optimal (all-one) alleles,
    which makes stationary optima common."""
    build = draw(st.sampled_from(SMALL_KINDS))
    size = build(None).size
    problem = build(draw(st.permutations(range(size))))
    a = draw_assignment(draw, size, 1)
    return problem, Assignment((v, 1) for v in a) if draw(st.booleans()) else a


@contextlib.contextmanager
def on_path(problem, path):
    """Context in which ``constrained_optima`` takes the given path.  The
    table path builds the table first: a lone restricted scan would not.
    On the other two the kind tabulates each scan's completions alone."""
    with contextlib.ExitStack() as stack:
        if path == "table":
            problem.fitness_table()
        elif path == "no-table":
            stack.enter_context(patch.object(problem, "fitness_table", return_value=None))
        else:
            stack.enter_context(patch.object(problems, "_TABLE_BUDGET", 1))
        yield


def brute_force(problem, a):
    """Maximizers of ``a``'s completions, in ascending packed order."""
    free = [v for v in range(problem.size) if v not in a]
    fits = {}
    for pattern in itertools.product((0, 1), repeat=len(free)):
        bits = a.apply(tuple(pattern[free.index(v)] if v in free else 0
                             for v in range(problem.size)))
        fits[bits] = problem.evaluate(bits)
    best = max(fits.values())
    return best, [c for c, f in fits.items() if f == best]


class TestConstrainedOptimaDifferential:
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(case=lookup_and_assignment())
    def test_matches_brute_force(self, path, case):
        problem, a = case
        best, maximizers = brute_force(problem, a)
        with on_path(problem, path):
            opt = constrained_optima(problem, a)
        assert opt.fitness == best
        assert opt.count == len(maximizers)
        assert opt.chromosomes == tuple(maximizers)
        for v in range(problem.size):
            assert opt.per_locus[v] == frozenset(c[v] for c in maximizers)

    @pytest.mark.parametrize("path", PATHS)
    def test_leadingones_tie(self, path):
        # locus 0 fixed wrong: every completion ties at fitness 0
        p = LeadingOnes(12)
        with on_path(p, path):
            opt = constrained_optima(p, Assignment(((0, 0),)))
        assert (opt.fitness, opt.count) == (0, 2 ** 11)
        assert all(opt.per_locus[v] == frozenset({0, 1}) for v in range(1, 12))
        assert len(opt.chromosomes) == 2 ** 11
        assert opt.chromosomes[0] == (0,) * 12 and opt.chromosomes[-1] == (0,) + (1,) * 11

    def test_full_assignment_streamed(self):
        # one completion: a 0-d view of the table, or a 0-d tabulation
        c = (1, 1, 1, 1, 0, 1, 0, 0)
        for cls, path in itertools.product((CTrap, LeadingTraps), PATHS):
            p = cls(2)
            with on_path(p, path):
                opt = constrained_optima(p, Assignment(enumerate(c)))
            assert (opt.fitness, opt.count, opt.chromosomes) == (p.evaluate(c), 1, (c,))


class TestOptimaGridDifferential:
    """Each row of the grid against ``constrained_optima`` of its pattern."""

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(case=lookup_and_assignment(max_size=8), data=st.data())
    def test_rows_match_per_pattern(self, path, case, data):
        problem, a = case
        unassigned = [v for v in range(problem.size) if v not in a]
        loci = data.draw(st.lists(st.sampled_from(unassigned), unique=True) if unassigned
                         else st.just([]))
        with on_path(problem, path):
            grid = optima_grid(problem, a, loci)
        ordered = sorted(loci)
        free = [v for v in unassigned if v not in loci]
        assert (grid.loci, grid.free) == (tuple(ordered), tuple(free))
        assert len(grid.fitness) == 2 ** len(loci)
        codes = grid.alleles(free)
        for row, pattern in enumerate(itertools.product((0, 1), repeat=len(loci))):
            p = Assignment(zip(ordered, pattern))
            assert grid.pattern(row) == p
            opt = constrained_optima(problem, a | p)
            assert (grid.fitness[row], grid.count[row]) == (opt.fitness, opt.count)
            for j, v in enumerate(free):
                assert {al for al in (0, 1) if codes[row, j] >> al & 1} == opt.per_locus[v]

    def test_cap_counts_the_whole_scan(self):
        p = CTrap(2)
        with pytest.raises(EnumerationCapError) as exc:
            optima_grid(p, EMPTY, [0, 1, 2], cap=2 ** 7)
        assert exc.value.required == 2 ** 8
        assert len(optima_grid(p, Assignment(((7, 1),)), [0, 1, 2], cap=2 ** 7).fitness) == 8

    def test_bad_loci_rejected(self):
        p = CTrap(2)
        with pytest.raises(ValueError, match="out of range"):
            optima_grid(p, EMPTY, [8])
        with pytest.raises(ValueError, match="out of range"):
            optima_grid(p, EMPTY, [-1])
        # refused before the cap, which would count locus 40 as assigned
        with pytest.raises(ValueError, match="^locus 40 out of range for problem size 30$"):
            constrained_optima(OneMax(30), Assignment({40: 1}))
        with pytest.raises(ValueError, match="unassigned"):
            optima_grid(p, Assignment(((0, 1),)), [0, 1])

    def test_results_depend_only_on_inputs(self):
        # no per-problem cache: a fresh and a warm problem answer alike
        fresh, warm = CTrap(2), CTrap(2)
        a = Assignment(((0, 0),))
        for _ in range(2):
            constrained_optima(warm, a)
        assert constrained_optima(warm, a) == constrained_optima(fresh, a)
        assert not hasattr(warm, "_psi_cache")


class TestStreamingLayout:
    """How completions and tables are laid out: entry r spells r on the
    free loci, the lowest locus most significant."""

    @settings(max_examples=40, deadline=None)
    @given(case=lookup_and_assignment(max_size=8))
    def test_completion_order(self, case):
        problem, a = case
        free = [v for v in range(problem.size) if v not in a]
        want = []
        for r in range(2 ** len(free)):
            bits = dict(zip(free, unpack_bits(r, len(free))))
            want.append(problem.evaluate(a.apply(tuple(bits.get(v, 0) for v in range(problem.size)))))
        for path in reversed(PATHS):  # the table path last: it keeps the table
            with on_path(problem, path):
                got = problem.completions(a)
            assert got.shape == (2,) * len(free) and got.reshape(-1).tolist() == want

    def test_fitness_table_is_every_chromosome(self):
        p = CTrap(3)
        rows = np.array([unpack_bits(i, 12) for i in range(2 ** 12)], dtype=np.uint8)
        table, want = p.fitness_table(), p.evaluate_many(rows)
        assert table.dtype == p._dtype and want.dtype == np.int64
        assert np.array_equal(table, want)

    @given(st.lists(st.integers(0, 2 ** 12 - 1), min_size=1, max_size=20), st.integers(12, 16))
    def test_bit_rows_matches_unpack_bits(self, indices, width):
        rows = bit_rows(indices, width)
        assert rows.dtype == np.uint8
        assert [tuple(r) for r in rows.tolist()] == [unpack_bits(i, width) for i in indices]


def stationary_by_definition(problem, a):
    """The pattern of ``a`` strictly beats every other pattern on its
    coverage, for every completion of the remaining loci."""
    assigned = sorted(a.coverage)
    free = [v for v in range(problem.size) if v not in a]
    for rest in itertools.product((0, 1), repeat=len(free)):
        context = dict(zip(free, rest))

        def fit(pattern):
            full = {**context, **dict(zip(assigned, pattern))}
            return problem.evaluate(tuple(full[v] for v in range(problem.size)))

        mine = fit([a[v] for v in assigned])
        for pattern in itertools.product((0, 1), repeat=len(assigned)):
            if list(pattern) != [a[v] for v in assigned] and fit(pattern) >= mine:
                return False
    return True


class TestStationaryOptimumDifferential:
    """``is_stationary_optimum`` reads its candidate as ``completions(a)``,
    a view of the table; the definition evaluates one row at a time."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(lookup_and_assignment(max_size=8, min_assigned=1),
                          lookup_and_assignment(max_size=8, min_assigned=1, permuted=True),
                          permuted_block_kind_and_assignment()))
    def test_matches_definition(self, case):
        problem, a = case
        assert is_stationary_optimum(problem, a) == stationary_by_definition(problem, a)


class TestCapBeforeCache:
    """The cap holds whatever the problem has already cached."""

    def test_constrained_optima_fresh_and_warm(self):
        fresh, warm = CTrap(2), CTrap(2)
        constrained_optima(warm, EMPTY)
        for p in (fresh, warm):
            with pytest.raises(EnumerationCapError):
                constrained_optima(p, EMPTY, cap=16)

    def test_global_optimum_fresh_and_warm(self):
        fresh, warm = CTrap(2), CTrap(2)
        global_optimum(warm)
        for p in (fresh, warm):
            with pytest.raises(EnumerationCapError):
                global_optimum(p, cap=16)

    def test_under_cap_still_cached(self):
        p = CTrap(2)
        first = constrained_optima(p, Assignment(((0, 1),)), cap=2 ** 7)
        assert constrained_optima(p, Assignment(((0, 1),)), cap=2 ** 7) == first
        with pytest.raises(EnumerationCapError):
            constrained_optima(p, Assignment(((0, 1),)), cap=2 ** 6)


def rows_evaluated(problem):
    """Context yielding a mock whose calls are the ``evaluate_many`` calls."""
    return patch.object(problem, "evaluate_many", wraps=problem.evaluate_many)


class TestTableRule:
    """The table is built iff the caller's planned work covers 2^size rows
    and the table, at its own entry size, fits the byte budget."""

    def test_small_restricted_scan_streams(self):
        # 2^5 completions: the kind tabulates them alone, and evaluates no row
        p = OneMax(20)
        with rows_evaluated(p) as spy:
            opt = constrained_optima(p, Assignment((v, 1) for v in range(15)))
        assert (opt.fitness, opt.count) == (40, 1)
        assert p.fitness_table(0) is None
        assert not spy.called

    def test_budget(self):
        assert OneMax(21).fitness_table().shape == (2 ** 21,)
        assert OneMax(26).fitness_table() is None  # 2^26 uint8 entries: 64 MiB
        with patch.object(problems, "_TABLE_BUDGET", 1 << 21):
            assert OneMax(22).fitness_table() is None

    def test_budget_counts_the_tables_own_bytes(self):
        # 2^8 uint8 entries of a block sum, or 2^5 int64 ones of a lookup table
        with patch.object(problems, "_TABLE_BUDGET", 1 << 8):
            assert OneMax(8).fitness_table().shape == (2 ** 8,)
            assert OneMax(9).fitness_table() is None
            assert LookupTable(list(range(2 ** 5))).fitness_table().shape == (2 ** 5,)
            assert LookupTable(list(range(2 ** 6))).fitness_table() is None

    @pytest.mark.parametrize("top, dtype", [(45, np.uint8), (45.5, np.uint16)])
    @pytest.mark.parametrize("cls", [problems._BlockSum, problems._Leading])
    def test_table_at_the_edge_of_its_dtype(self, cls, top, dtype):
        # scaled block maxima 110 + 55 + 2 * top: 255 fits uint8, 256 does
        # not; each block's maximum is at all ones, so the optimum is unique
        blocks = [[0, 1, 2], [3, 4], [1, 3, 5]]
        scores = [(50, 20, 10, 55), (20, 0, 27.5), (40, 30, 0, top)]
        streamed, tabled = cls("edge", 6, blocks, scores), cls("edge", 6, blocks, scores)
        table = tabled.fitness_table()
        assert table.dtype == dtype and int(table.max()) == 110 + 55 + 2 * top
        assert np.array_equal(table, tabled.evaluate_many(bit_rows(np.arange(2 ** 6), 6)))
        with patch.object(problems, "_TABLE_BUDGET", 1), rows_evaluated(streamed) as spy:
            completions = streamed.completions(EMPTY)
            assert completions.dtype == dtype and np.array_equal(completions.reshape(-1), table)
            G = build_eg(streamed)
        assert streamed.fitness_table(0) is None and not spy.called
        assert G == build_eg(tabled) == brute_force_eg(streamed, (1,) * 6)

    def test_work_below_the_table_builds_nothing(self):
        p = CTrap(2)
        assert p.fitness_table(2 ** 8 - 1) is None
        assert p.fitness_table(2 ** 8).shape == (2 ** 8,)
        assert p.fitness_table(0) is p.fitness_table()  # the table built earlier

    def test_over_budget_streams_and_matches(self):
        # ties in the values make nonstrict edges; one top value keeps the
        # global optimum unique
        rng = np.random.default_rng(11)
        values = rng.integers(0, 6, size=2 ** 10) / 2
        values[int(rng.integers(2 ** 10))] = 3
        streamed, tabled = LookupTable(values.tolist()), LookupTable(values.tolist())
        tabled.fitness_table()
        a, loci = Assignment(((4, 0),)), [1, 7]
        with patch.object(problems, "_TABLE_BUDGET", 8 << 8), rows_evaluated(streamed) as spy:
            g = global_optimum(streamed)
            G = build_eg(streamed)
            grid = optima_grid(streamed, a, loci)
        # each scan indexes the values of the completions it reads, no row
        assert streamed.fitness_table(0) is None and not spy.called
        assert g == global_optimum(tabled) == unpack_bits(int(values.argmax()), 10)
        assert G == build_eg(tabled) == brute_force_eg(streamed, g)
        assert any(kind == "nonstrict" for *_, kind in G.edges)
        want = optima_grid(tabled, a, loci)
        for got_field, want_field in zip(astuple(grid), astuple(want)):
            assert np.array_equal(got_field, want_field)
        for row in range(4):
            best, maximizers = brute_force(streamed, a | grid.pattern(row))
            assert (grid.fitness[row], grid.count[row]) == (best, len(maximizers))


def brute_force_eg(problem, g):
    """Order-1 edges from the brute-force maximizers with each locus set wrong."""
    edges = set()
    for u in range(problem.size):
        _, maximizers = brute_force(problem, Assignment(((u, 1 - g[u]),)))
        for v in range(problem.size):
            alleles = {c[v] for c in maximizers}
            if v != u and alleles != {g[v]}:
                edges.add((u, v, "strict" if alleles == {1 - g[v]} else "nonstrict"))
    return EpistaticGraph(problem.size, frozenset(edges))
