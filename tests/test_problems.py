"""Benchmark fitness functions, permutation wrapping, and spec parsing."""

import contextlib
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import niah4, trap4
from epilink import problems
from epilink.model import (
    EMPTY,
    Assignment,
    bit_rows,
    bits_from_str,
    global_optimum,
    pack_bits,
    unpack_bits,
)
from epilink.oracles import is_stationary_optimum
from epilink.problems import (
    FITNESS_SCALE,
    CNiah,
    CTrap,
    CycTrap,
    FitnessProblem,
    LeadingOnes,
    LeadingTraps,
    LookupTable,
    OneMax,
    OneMaxPrimeConcat,
    ProblemSpecError,
    make_problem,
    unscale,
    weak_observability_problem,
)


def natural(problem, bits):
    return unscale(problem.evaluate(bits))


# Scalar reference formulas, in natural units, over the permuted chromosome y.
def onemax_ref(y):
    return sum(y)


def leadingones_ref(y):
    count = 0
    for b in y:
        if b != 1:
            break
        count += 1
    return count


def blocks4(y):
    return [y[i:i + 4] for i in range(0, len(y), 4)]


def ctrap_ref(y):
    return sum(trap4(*b) for b in blocks4(y))


def cniah_ref(y):
    return sum(niah4(*b) for b in blocks4(y))


def cyctrap_ref(y):
    size = len(y)
    return sum(
        trap4(*(y[(3 * i + j) % size] for j in range(4))) for i in range(size // 3)
    )


def leadingtraps_ref(y):
    total = 0
    for b in blocks4(y):
        t = trap4(*b)
        total += t
        if t != 4:
            break
    return total


def onemax_prime_ref(block_sizes):
    def f(y):
        total, start = 0, 0
        for b in block_sizes:
            s = sum(y[start:start + b])
            total += 1.5 if s == 0 else s
            start += b
        return total
    return f


def lookup_ref(values):
    return lambda y: values[pack_bits(y)]


LOOKUP_VALUES = [((7 * i) % 11) / 2 for i in range(2 ** 6)]

#: kind -> (builder from a permutation, scalar formula of y), small sizes.
FORMULAS = {
    "onemax": (lambda perm: OneMax(6, perm), onemax_ref),
    "leadingones": (lambda perm: LeadingOnes(7, perm), leadingones_ref),
    "ctrap": (lambda perm: CTrap(2, perm), ctrap_ref),
    "cniah": (lambda perm: CNiah(2, perm), cniah_ref),
    "cyctrap-m2": (lambda perm: CycTrap(2, perm), cyctrap_ref),
    "cyctrap-m4": (lambda perm: CycTrap(4, perm), cyctrap_ref),
    "leadingtraps": (lambda perm: LeadingTraps(3, perm), leadingtraps_ref),
    "onemax-prime": (
        lambda perm: OneMaxPrimeConcat([3, 2, 4], perm), onemax_prime_ref([3, 2, 4])
    ),
    "lookup-table": (lambda perm: LookupTable(LOOKUP_VALUES, perm), lookup_ref(LOOKUP_VALUES)),
}


def every_row(size):
    return bit_rows(np.arange(2 ** size), size)


def completion_rows(problem, a):
    """The row reference of ``FitnessProblem.completions``: ``evaluate_many``
    over every completion of ``a``, entry r spelling r on the free loci."""
    free = [v for v in range(problem.size) if v not in a]
    rows = np.zeros((2 ** len(free), problem.size), dtype=np.uint8)
    for v, allele in a.items():
        rows[:, v] = allele
    rows[:, free] = every_row(len(free))
    return problem.evaluate_many(rows)


class TestSubfunctions:
    def test_trap4_all16(self):
        # 4 at the needle, deceptive gradient 3 - u elsewhere
        for i in range(16):
            b = unpack_bits(i, 4)
            expect = 4 if sum(b) == 4 else 3 - sum(b)
            assert trap4(*b) == expect

    def test_trap4_named_points(self):
        assert trap4(1, 1, 1, 1) == 4
        assert trap4(0, 0, 0, 0) == 3
        assert trap4(1, 0, 0, 0) == 2

    def test_niah4_all16(self):
        for i in range(16):
            b = unpack_bits(i, 4)
            assert niah4(*b) == (4 if sum(b) == 4 else 0)


class TestBenchmarks:
    def test_onemax(self):
        p = OneMax(6)
        assert natural(p, (1, 0, 1, 1, 0, 0)) == 3

    def test_leadingones(self):
        p = LeadingOnes(4)
        assert natural(p, (1, 1, 0, 1)) == 2
        assert natural(p, (0, 1, 1, 1)) == 0
        assert natural(p, (1, 1, 1, 1)) == 4

    def test_ctrap(self):
        p = CTrap(2)
        assert natural(p, (1,) * 8) == 8
        assert natural(p, (0,) * 8) == 6
        assert natural(p, bits_from_str("11110000")) == 7

    def test_cniah(self):
        p = CNiah(2)
        assert natural(p, (1,) * 8) == 8
        assert natural(p, bits_from_str("11110111")) == 4

    def test_cyctrap_all_ones(self):
        p = CycTrap(4)
        assert natural(p, (1,) * 12) == 16

    def test_cyctrap_wraparound_block(self):
        # block 3 reads loci 9, 10, 11, 0: solving only it needs locus 0
        p = CycTrap(4)
        c = list(bits_from_str("000000000111"))
        c[0] = 1
        # block 3 scores 4; blocks 0..2 score 3 - u on their windows
        blocks = [(0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9)]
        expect = 4 + sum(3 - sum(c[v] for v in b) for b in blocks)
        assert natural(p, tuple(c)) == expect

    def test_leadingtraps_gating(self):
        p = LeadingTraps(2)
        # first trap solved, gate open, second contributes its trap value
        assert natural(p, bits_from_str("11110000")) == 7
        # first trap unsolved, gate shut, second block never counts
        assert natural(p, bits_from_str("00001111")) == 3
        assert natural(p, (1,) * 8) == 8

    def test_onemax_prime_bonus(self):
        p = OneMaxPrimeConcat([3])
        assert natural(p, (0, 0, 0)) == 1.5
        assert p.evaluate((0, 0, 0)) == 3  # scaled integer internally
        assert natural(p, (1, 1, 1)) == 3

    def test_onemax_prime_concat_blocks(self):
        p = OneMaxPrimeConcat([2, 2])
        assert natural(p, (1, 1, 1, 1)) == 4
        assert natural(p, (0, 0, 1, 0)) == 2.5

    def test_weak_observability_problem_shape(self):
        p = weak_observability_problem()
        assert p.size == 25
        assert p.block_sizes == (3, 4, 5, 6, 7)

    @pytest.mark.parametrize("kind", FORMULAS)
    def test_evaluate_many_matches_formula(self, kind):
        build, formula = FORMULAS[kind]
        problem = build(None)
        rows = every_row(problem.size)
        expected = [formula(tuple(row)) for row in rows.tolist()]
        for dtype in (np.uint8, bool, np.int64, np.float64):  # any dtype of 0s and 1s
            batch = problem.evaluate_many(rows.astype(dtype))
            assert batch.dtype == np.int64
            assert [unscale(f) for f in batch] == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(2, 40), min_size=1, max_size=8), st.booleans(),
           st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
    def test_onemax_prime_matches_per_block_formula(self, sizes, permuted, rows, seed):
        rng = np.random.default_rng(seed)
        size = sum(sizes)
        perm = rng.permutation(size).tolist() if permuted else None
        problem = OneMaxPrimeConcat(sizes, perm)
        # rows of y, each block random, forced all-zero or forced all-one
        ys = rng.integers(0, 2, size=(rows, size), dtype=np.uint8)
        starts = np.cumsum([0] + sizes[:-1])
        for r in range(rows):
            for start, b in zip(starts, sizes):
                kind = rng.integers(3)
                if kind < 2:
                    ys[r, start:start + b] = kind
        xs = np.empty_like(ys)
        xs[:, perm if permuted else slice(None)] = ys
        batch = problem.evaluate_many(xs)
        assert batch.dtype == np.int64
        assert batch.tolist() == [
            FITNESS_SCALE * onemax_prime_ref(sizes)(y) for y in ys.tolist()
        ]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            OneMax(4).evaluate((1, 1, 1))

    @pytest.mark.parametrize("shape", [(2,), (), (1, 1, 2)])
    def test_rows_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"!= \(rows, 2\)"):
            OneMax(2).evaluate_many(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("build, row", [
        (lambda: LookupTable(list(range(16))), [0, 0, 0, 2]),  # would read as 0010
        (lambda: CTrap(2), [2, 0, 0, 0, 0, 0, 0, 0]),  # would read as 11000000
        (lambda: OneMax(2), [0.5, 1]),
    ], ids=["lookup-4", "ctrap-2", "onemax-half"])
    def test_entries_other_than_0_and_1_refused(self, build, row):
        problem = build()
        dtypes = [None, np.uint8] if all(float(v).is_integer() for v in row) else [None]
        for dtype in dtypes:
            rows = np.array([[0] * problem.size, row], dtype=dtype)
            with pytest.raises(ValueError, match="^chromosome entries must be 0 or 1$"):
                problem.evaluate_many(rows)
        with pytest.raises(ValueError, match="^chromosome entries must be 0 or 1$"):
            problem.evaluate(row)


class TestGlobalOptima:
    @pytest.mark.parametrize(
        "problem",
        [
            OneMax(10),
            LeadingOnes(10),
            CTrap(3),
            CNiah(3),
            CycTrap(4),
            LeadingTraps(3),
            OneMaxPrimeConcat([3, 4, 5]),
        ],
        ids=lambda p: p.name,
    )
    def test_unique_optimum_is_all_ones(self, problem):
        assert global_optimum(problem) == (1,) * problem.size


class TestPermutation:
    def test_identity_is_noop(self):
        base = CTrap(2)
        ident = CTrap(2, permutation=tuple(range(8)))
        for i in range(2 ** 8):
            c = unpack_bits(i, 8)
            assert base.evaluate(c) == ident.evaluate(c)

    def test_permuted_evaluation(self):
        perm = (7, 6, 5, 4, 3, 2, 1, 0)
        base = LeadingOnes(8)
        rev = LeadingOnes(8, permutation=perm)
        c = bits_from_str("00111111")
        y = tuple(c[p] for p in perm)
        assert rev.evaluate(c) == base.evaluate(y)

    @pytest.mark.parametrize("kind", FORMULAS)
    def test_permuted_evaluate_many_matches_formula(self, kind):
        build, formula = FORMULAS[kind]
        size = build(None).size
        perm = tuple(np.random.default_rng(size).permutation(size).tolist())
        rows = every_row(size)
        batch = build(perm).evaluate_many(rows)
        assert [unscale(f) for f in batch] == [
            formula(tuple(x[p] for p in perm)) for x in rows.tolist()
        ]

    def test_bad_permutation(self):
        with pytest.raises(ProblemSpecError):
            OneMax(4, permutation=(0, 1, 1, 3))


@st.composite
def tabulated_kinds(draw, max_size=12):
    """A problem of any built-in kind of at most ``max_size`` loci, with its
    scalar formula of y and, sometimes, a random permutation."""
    kind = draw(st.sampled_from(["onemax", "leadingones", "ctrap", "cniah", "cyctrap",
                                 "leadingtraps", "onemax-prime", "lookup"]))
    if kind == "onemax-prime":  # unequal blocks
        sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=max_size // 2)
                     .filter(lambda sizes: sum(sizes) <= max_size))
        build, formula = (lambda perm: OneMaxPrimeConcat(sizes, perm)), onemax_prime_ref(sizes)
    elif kind == "lookup":
        size = draw(st.integers(1, min(max_size, 10)))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = (rng.integers(0, 10, size=2 ** size) / 2).tolist()
        build, formula = (lambda perm: LookupTable(values, perm)), lookup_ref(values)
    else:  # one locus or block, and cyctrap m=2 (wrapped, overlapping blocks), included
        cls, formula, least, width = {
            "onemax": (OneMax, onemax_ref, 1, 1),
            "leadingones": (LeadingOnes, leadingones_ref, 1, 1),
            "ctrap": (CTrap, ctrap_ref, 1, 4),
            "cniah": (CNiah, cniah_ref, 1, 4),
            "cyctrap": (CycTrap, cyctrap_ref, 2, 3),
            "leadingtraps": (LeadingTraps, leadingtraps_ref, 1, 4),
        }[kind]
        m = draw(st.integers(least, max_size // width))  # loci, or blocks of ``width``
        build = lambda perm: cls(m, perm)
    size = build(None).size
    return build(draw(st.none() | st.permutations(range(size)))), formula


def permuted(problem, xs):
    """The rows ``y`` that the chromosome rows ``xs`` of ``problem`` read."""
    return xs[:, list(problem.permutation)] if problem.permutation else xs


class TestDerivedFitness:
    """Every kind derives its dense table and, but for lookup tables, its
    rows from one statement of the fitness; both against the plain
    references."""

    @settings(max_examples=80, deadline=None)
    @given(case=tabulated_kinds())
    def test_table_is_every_row(self, case):
        problem, _ = case
        table, rows = problem.fitness_table(), completion_rows(problem, EMPTY)
        assert table.dtype == problem._dtype and rows.dtype == np.int64
        assert np.array_equal(table, rows)

    @settings(max_examples=80, deadline=None)
    @given(case=tabulated_kinds(max_size=40), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_the_scalar_formula(self, case, seed):
        problem, formula = case
        xs = np.random.default_rng(seed).integers(0, 2, size=(16, problem.size), dtype=np.uint8)
        assert problem.evaluate_many(xs).tolist() == [
            FITNESS_SCALE * formula(y) for y in permuted(problem, xs).tolist()
        ]

    @settings(max_examples=30, deadline=None)
    @given(case=tabulated_kinds())
    def test_streamed_rows_above_the_budget(self, case):
        # above the budget the completions of the empty assignment are
        # tabulated on each call, and match the formula
        problem, formula = case
        with patch.object(problems, "_TABLE_BUDGET", 1 << 2):
            assert problem.size <= 2 or problem.fitness_table() is None
            completions = problem.completions(EMPTY)
        assert completions.reshape(-1).tolist() == [
            FITNESS_SCALE * formula(y) for y in permuted(problem, every_row(problem.size)).tolist()
        ]


#: "table": the table is built first, so completions are a view of it;
#: "no-table": it is hidden; "over-budget": a byte budget of 1 refuses it.
SOURCES = ("table", "no-table", "over-budget")


@contextlib.contextmanager
def completion_source(problem, source):
    """Context in which ``problem.completions`` takes the ``source`` path and
    may evaluate no row."""
    with contextlib.ExitStack() as stack:
        if source == "table":
            problem.fitness_table()
        elif source == "no-table":
            stack.enter_context(patch.object(problem, "fitness_table", return_value=None))
        else:
            stack.enter_context(patch.object(problems, "_TABLE_BUDGET", 1))
        refuse = AssertionError("completions evaluated a row")
        stack.enter_context(patch.object(FitnessProblem, "evaluate_many", side_effect=refuse))
        yield


def check_completions(problem, a, source):
    """``completions(a)`` on ``source`` against ``evaluate_many`` over every
    completion of ``a``."""
    want = completion_rows(problem, a)
    with completion_source(problem, source):
        got = problem.completions(a)
    assert problem.fitness_table(0) is None or source == "table"
    assert isinstance(got, np.ndarray) and got.dtype == problem._dtype
    assert got.shape == (2,) * (problem.size - len(a))
    assert got.reshape(-1).tolist() == want.tolist()


class TestCompletions:
    """``completions`` against the rows, for every kind, with and without a
    permutation, under random assignments, with and without a table."""

    @pytest.mark.parametrize("source", SOURCES)
    @settings(max_examples=60, deadline=None)
    @given(case=tabulated_kinds(), data=st.data())
    def test_matches_the_rows(self, source, case, data):
        problem, _ = case
        loci = data.draw(st.lists(st.integers(0, problem.size - 1), unique=True))
        alleles = data.draw(st.lists(st.integers(0, 1), min_size=len(loci), max_size=len(loci)))
        check_completions(problem, Assignment(zip(loci, alleles)), source)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("shuffle", [False, True], ids=["identity", "permuted"])
    @pytest.mark.parametrize("kind", ["leadingtraps", "leadingones", "cyctrap-m4",
                                      "onemax-prime", "ctrap"])
    def test_assigned_blocks(self, kind, shuffle, source):
        # block 0 fully assigned ones, so a gate stays open, and block 1
        # broken by one assigned 0, so a gate shuts; then every locus assigned
        build, _ = FORMULAS[kind]
        size = build(None).size
        problem = build(np.random.default_rng(size).permutation(size).tolist() if shuffle else None)
        first, second = problem.blocks[:2]
        a = Assignment([(v, 1) for v in first] + [(second[-1], 0)])
        check_completions(problem, a, source)
        check_completions(problem, a | Assignment((v, v % 2) for v in range(size) if v not in a),
                          source)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("shuffle", [False, True], ids=["identity", "permuted"])
    @pytest.mark.parametrize("kind", FORMULAS)
    def test_locus_out_of_range_refused(self, kind, shuffle, source):
        # a locus at or above the size is refused, alone or beside a valid one
        build, _ = FORMULAS[kind]
        size = build(None).size
        problem = build(np.random.default_rng(size).permutation(size).tolist() if shuffle else None)
        for a in (Assignment({size: 1}), Assignment({0: 1, size + 3: 0})):
            bad = max(a)
            with completion_source(problem, source):
                with pytest.raises(ValueError, match=f"^locus {bad} out of range for problem size {size}$"):
                    problem.completions(a)
                with pytest.raises(ValueError, match=f"^locus {bad} out of range for problem size {size}$"):
                    is_stationary_optimum(problem, a)


class TestTableEvaluatesNoRow:
    @pytest.mark.parametrize("shuffle", [False, True], ids=["identity", "permuted"])
    @pytest.mark.parametrize("kind", FORMULAS)
    def test_table_with_rows_refused(self, kind, shuffle):
        build, formula = FORMULAS[kind]
        size = build(None).size
        problem = build(np.random.default_rng(size).permutation(size).tolist() if shuffle else None)
        refuse = AssertionError("the table evaluated a row")
        with patch.object(FitnessProblem, "evaluate_many", side_effect=refuse):
            table = problem.fitness_table()
        assert table.tolist() == [
            FITNESS_SCALE * formula(y) for y in permuted(problem, every_row(size)).tolist()
        ]

    @pytest.mark.parametrize("cls", [OneMax, LeadingOnes])
    def test_table_peak_below_one_and_a_half_tables(self, cls):
        problem = cls(20)
        tracemalloc.start()
        try:
            problem.fitness_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (8 << 20)  # one and a half int64 tables

    def test_block_over_every_locus_peaks_at_two_tables(self):
        # the block's ones count is scored in place: the table and that
        # tensor, and one slice's gather
        problem = OneMax(20)
        tracemalloc.start()
        try:
            table = problem.fitness_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 1 << 20
        assert peak < 2 * table.nbytes + (128 << 10)

    def test_optimum_above_22_loci_peaks_below_48_mib(self):
        # cyctrap m8 (24 loci) reads its 16 MiB uint8 table
        problem = CycTrap(8)
        tracemalloc.start()
        try:
            g = global_optimum(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == (1,) * 24 and problem.fitness_table(0) is not None
        assert peak < 48 << 20


class TestLookupTable:
    def test_dense_table(self):
        p = LookupTable([0, 1, 2, 3], name="2bit")
        assert p.size == 2
        assert natural(p, (1, 0)) == 2

    def test_half_integers_allowed(self):
        p = LookupTable([1.5, 0])
        assert p.evaluate((0,)) == 3

    def test_quarter_integers_rejected(self):
        with pytest.raises(ProblemSpecError):
            LookupTable([0.25, 0])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ProblemSpecError):
            LookupTable([bad, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ProblemSpecError):
            LookupTable([1, 2, 3])

    def test_permuted_table_is_its_values(self):
        # the constructor transposes the values once, so the table is no copy
        values, perm = list(range(16)), [2, 0, 3, 1]
        p = LookupTable(values, permutation=perm)
        table = p.fitness_table()
        assert np.shares_memory(table, p.values)
        assert table.tolist() == [
            FITNESS_SCALE * values[pack_bits([x[i] for i in perm])] for x in every_row(4).tolist()
        ]

    def test_from_pairs_default_fill(self):
        p = LookupTable.from_pairs(3, {"111": 10, "000": 2}, default=1)
        assert natural(p, (1, 1, 1)) == 10
        assert natural(p, (0, 0, 0)) == 2
        assert natural(p, (0, 1, 0)) == 1

    def test_from_pairs_length_check(self):
        with pytest.raises(ProblemSpecError):
            LookupTable.from_pairs(3, {"11": 1})

    def test_from_pairs_key_listed_twice(self):
        with pytest.raises(ProblemSpecError, match="'01' is listed twice"):
            LookupTable.from_pairs(2, [("01", 1), ("10", 2), ("01", 5)])

    @pytest.mark.parametrize(
        "problem",
        [CTrap(2), CycTrap(2), OneMaxPrimeConcat([3, 3])],
        ids=lambda p: p.name,
    )
    def test_round_trip_from_problem(self, problem):
        frozen = LookupTable(problem.fitness_table() / FITNESS_SCALE)
        for i in range(2 ** problem.size):
            c = unpack_bits(i, problem.size)
            assert frozen.evaluate(c) == problem.evaluate(c)


class TestMakeProblem:
    def test_inline_ctrap(self):
        p = make_problem({"kind": "ctrap", "m": 2})
        assert p.size == 8

    def test_size_form(self):
        assert make_problem({"kind": "cyctrap", "l": 12}).size == 12

    def test_table3_style_lookup(self):
        p = make_problem(
            {
                "kind": "lookup-table",
                "l": 3,
                "pairs": {"111": 10, "001": 9, "101": 8, "010": 7, "011": 6},
            }
        )
        assert natural(p, (1, 1, 1)) == 10
        assert natural(p, (1, 0, 0)) == 0  # "others" default

    def test_block_size_mismatch(self):
        with pytest.raises(ProblemSpecError):
            make_problem({"kind": "ctrap", "l": 7})

    def test_unknown_kind(self):
        with pytest.raises(ProblemSpecError):
            make_problem({"kind": "nk-landscape", "l": 8})

    def test_missing_kind(self):
        with pytest.raises(ProblemSpecError):
            make_problem({"l": 8})

    def test_onemax_prime_blocks(self):
        p = make_problem({"kind": "onemax-prime-blocks", "block_sizes": [3, 4]})
        assert p.size == 7

    def test_permutation_via_spec(self):
        p = make_problem({"kind": "onemax", "l": 4, "permutation": [3, 2, 1, 0]})
        assert p.permutation == (3, 2, 1, 0)

    def test_cyctrap_needs_two_blocks(self):
        with pytest.raises(ProblemSpecError):
            make_problem({"kind": "cyctrap", "m": 1})

    @pytest.mark.parametrize("spec, unread", [
        ({"kind": "onemax", "l": 4, "permuation": [3, 2, 1, 0]}, "'permuation'"),
        ({"kind": "ctrap", "m": 2, "l": 12}, "'l'"),
        ({"kind": "ctrap", "m": 2, "block_sizes": [4, 4]}, "'block_sizes'"),
        ({"kind": "lookup-table", "table": [0, 1], "pairs": {"1": 2}}, "'pairs'"),
        ({"kind": "lookup-table", "table": [0, 1], "default": 3}, "'default'"),
        ({"kind": "onemax", "l": 4, "size": 4}, "'size'"),
    ])
    def test_unread_field_refused(self, spec, unread):
        with pytest.raises(ProblemSpecError, match=f"does not read: {unread}$"):
            make_problem(spec)

    def test_spec_is_not_consumed(self):
        spec = {"kind": "ctrap", "m": 2, "name": "t"}
        make_problem(spec)
        assert spec == {"kind": "ctrap", "m": 2, "name": "t"}

    def test_pairs_list_is_not_a_spec(self):
        with pytest.raises(ProblemSpecError, match="not a mapping"):
            make_problem([["kind", "onemax"], ["l", 4]])


class TestScaling:
    def test_scale_is_two(self):
        assert FITNESS_SCALE == 2

    def test_unscale(self):
        assert unscale(7) == 3.5
        assert unscale(8) == 4.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 12 - 1))
    def test_all_values_integral_after_scaling(self, idx):
        p = OneMaxPrimeConcat([3, 4, 5])
        c = unpack_bits(idx, 12)
        assert isinstance(p.evaluate(c), int)
