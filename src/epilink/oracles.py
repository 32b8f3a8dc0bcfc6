"""Brute-force ground-truth checkers: stationary optima, decomposition and
blanket theorem verification, clique structure, and EBACC scoring;
``verify`` runs the theorem checks on one graph and one audit.  The
stationary-optimum scans read the whole fitness table, so they refuse,
before any scan, what the cap or ``_FULL_SCAN_MAX`` (22 loci) refuses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .model import (
    DEFAULT_CAP,
    EMPTY,
    Assignment,
    EnumerationCapError,
    check_loci,
    global_optimum,
    optima_grid,
    popcounts,
    unpack_bits,
)
from . import THEOREMS
from . import epistasis as _ep
from . import graph as _graph

# For the annotations only: the EBACC scorers import it when called, so
# ``verify`` does not load it.
if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class Claim:
    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    detail: str = ""


@dataclass
class TheoremReport:
    problem: str
    claims: list[Claim] = field(default_factory=list)
    audited_weak_order: int | None = None

    @property
    def ok(self) -> bool:
        return not any(c.status == "fail" for c in self.claims)

    @property
    def applicable(self) -> bool:
        return any(c.status != "not-applicable" for c in self.claims)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.claims.append(Claim(name, "pass" if passed else "fail", detail))

    def add_na(self, name: str, detail: str = ""):
        self.claims.append(Claim(name, "not-applicable", detail))

    def summary(self) -> str:
        lines = [f"theorem report for {self.problem}"]
        if self.audited_weak_order is not None:
            lines.append(f"  weak-epistasis audit order: {self.audited_weak_order}")
        for c in self.claims:
            lines.append(f"  [{c.status:>14}] {c.name}" + (f" ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


#: The most chromosomes an oracle's table scan covers: 22 loci, within
#: every kind's table budget.
_FULL_SCAN_MAX = 2 ** 22


def _fitness_table(problem, cap: int) -> np.ndarray:
    """The fitness table, one axis per locus, as ``completions(EMPTY)``;
    refused, before any scan, when the cap or ``_FULL_SCAN_MAX`` refuses 2^size."""
    for limit in (cap, _FULL_SCAN_MAX):
        if 2 ** problem.size > limit:
            raise EnumerationCapError(2 ** problem.size, limit)
    return problem.completions(EMPTY)


def is_stationary_optimum(problem, a: Assignment, cap: int = DEFAULT_CAP) -> bool:
    """Whether the pattern of ``a`` strictly beats every alternative on its
    coverage under every completion of the remaining loci (full scan)."""
    if len(a) == 0:
        raise ValueError("a stationary optimum must be a nonempty assignment")
    fits = _fitness_table(problem, cap)
    # the candidate's fitness per completion of the free loci, a view of
    # the table broadcast back over the assigned axes
    candidate = np.expand_dims(problem.completions(a), sorted(a.coverage))
    # it beats every rival under every completion iff it is the only
    # entry of each completion at or above its own value
    return np.count_nonzero(fits >= candidate) == candidate.size


def minimum_stationary_optima(problem, cap: int = DEFAULT_CAP) -> tuple[Assignment, ...]:
    """Per locus v, the smallest stationary optimum assigning v: the first
    all-correct subset (no stationary optimum assigns a wrong allele)
    holding v that passes the full test, by size, lexicographic within one.

    S can only be stationary if every single-locus flip of S away from g
    loses in every context.  After one OR-transform of the table,
    ``reach[x]`` (x: the loci set wrong) holds locus u's bit iff flipping
    u fails to lose at some y within x, so S survives iff ``reach`` at the
    complement of S holds no bit of S.  One walk over the survivors, one
    size at a time and then by descending packed mask (the lexicographic
    order), runs the full test on each that holds a locus still without an
    answer, and stops once every locus has one.
    """
    table = _fitness_table(problem, cap)
    g = global_optimum(problem, cap)
    size = problem.size
    # h[x]: the fitness with the loci of x set wrong
    h = np.flip(table, np.flatnonzero(g))
    # locus u's bit in a packed index, in the smallest type that holds them all
    place = (1 << np.arange(size - 1, -1, -1)).astype(np.min_scalar_type(2 ** size - 1))
    reach = np.zeros(h.shape, dtype=place.dtype)
    for u in range(size):
        right, wrong = np.moveaxis(h, u, 0)
        np.moveaxis(reach, u, 0)[0] |= (wrong >= right) * place[u]  # a tie is no loss
    for u in range(size):  # OR over every wrong-set below each x
        np.moveaxis(reach, u, 0)[1] |= np.moveaxis(reach, u, 0)[0]
    caught = np.arange(2 ** size, dtype=place.dtype)  # m & reach[~m], per mask m
    caught &= reach.ravel()[::-1]
    del reach
    survives = caught == 0
    del caught
    ones = popcounts(size)
    found: dict[int, Assignment] = {}
    left = 2 ** size - 1  # the loci still without an answer
    for k in range(1, size + 1):  # one popcount level at a time
        sized = np.flatnonzero(survives & (ones == k))[::-1]
        for m in sized[(sized & left) != 0].tolist():
            if m & left:
                a = Assignment.batch_pattern([u for u in range(size) if m & place[u]], g)
                if is_stationary_optimum(problem, a, cap):
                    found = {u: a for u in a} | found  # earlier answers win
                    left &= ~m
        if not left:
            return tuple(found[v] for v in range(size))
    raise RuntimeError("unreachable: the full global optimum is always stationary")


def verify_decomposition_theorem(
    problem, G: _graph.EpistaticGraph, weak: list[tuple[frozenset[int], int]], cap: int = DEFAULT_CAP
) -> TheoremReport:
    """Check coverage(minimum SO of v) == in-closure of v in ``G``, the
    problem's epistatic graph, for every locus, plus the all-correct-pattern
    corollary.

    The claims are conditional on the absence of weak epistasis; when
    ``weak``, the bounded audit's finds, names one, every claim is
    reported not-applicable with the witnesses attached.
    """
    report = TheoremReport(problem.name)
    if weak:
        for v in range(problem.size):
            onto_v = [S for S, w in weak if w == v]
            witnesses = "; ".join(f"{sorted(S)} => {v}" for S in onto_v)
            report.add_na(
                f"coverage(MSO({v})) == in-closure({v})",
                f"weak epistases found: {witnesses}" if onto_v
                else "weak epistases found elsewhere in the problem",
            )
        return report
    g = global_optimum(problem, cap)
    for v, mso in enumerate(minimum_stationary_optima(problem, cap)):
        closure = _graph.in_closure(G, v)
        ok = mso.coverage == closure
        report.add(
            f"coverage(MSO({v})) == in-closure({v})",
            ok,
            "" if ok else f"MSO coverage {sorted(mso.coverage)} != closure {sorted(closure)}",
        )
        expected = Assignment.batch_pattern(closure, g)
        report.add(
            f"MSO({v}) assigns the optimal pattern on the closure",
            mso == expected if ok else False,
        )
    return report


def verify_blanket(
    problem,
    S: Iterable[int],
    G: _graph.EpistaticGraph,
    weak: list[tuple[frozenset[int], int]],
    cap: int = DEFAULT_CAP,
) -> TheoremReport:
    """Check that correctly setting the direct in-neighbors of S in ``G``,
    the problem's epistatic graph, keeps every correct allele on S
    constrained-optimal, for every assignment on the loci beyond the
    second in-tier, unless ``weak``, the bounded audit's finds, names a
    witness."""
    S = frozenset(S)
    check_loci(problem.size, S)
    report = TheoremReport(problem.name)
    if weak:
        Sw, vw = weak[0]
        report.add_na(
            f"blanket holds for S={sorted(S)}",
            f"weak epistasis found: {sorted(Sw)} => {vw}",
        )
        return report
    g = global_optimum(problem, cap)
    tier1 = _graph.in_set(G, S, 1)
    tier2 = _graph.in_set(G, S, 2)
    blanket = Assignment.batch_pattern(sorted(tier1 - S), g)
    outside = set(range(problem.size)) - S - tier1 - tier2
    grid = optima_grid(problem, blanket, outside, cap)
    members = sorted(S)
    # per row and member of S: whether its correct allele stays optimal
    kept = (grid.alleles(members) >> np.array(g)[members]) & 1
    if not kept.all():
        row = int(np.argmin(kept.all(axis=1)))  # the first row with a loss
        bad = [s for s, ok in zip(members, kept[row]) if not ok]
        report.add(
            f"blanket holds for S={members}",
            False,
            f"R={grid.pattern(row).to_json()} excludes the correct allele at loci {bad}",
        )
        return report
    # The corollary (all-singleton optima are exactly the correct pattern)
    # follows: a singleton that holds the correct allele is that allele.
    report.add(f"blanket holds for S={members}", True)
    report.add(f"unique-pattern corollary for S={members}", True)
    return report


def verify_clique_structure(problem, G: _graph.EpistaticGraph) -> TheoremReport:
    """On strict-only epistatic graphs ``G``: every multi-vertex SCC is a
    bidirectional clique, and the largest SCC size equals the largest
    in-degree plus one."""
    report = TheoremReport(problem.name)
    if not G.only_strict():
        nonstrict = sorted((u, v) for u, v, k in G.edges if k == "nonstrict")
        report.add_na(
            "SCCs are disjoint maximal cliques",
            f"graph has non-strict edges, e.g. {nonstrict[:4]}",
        )
        return report
    comps = _graph.components(G)
    for comp in comps:
        if len(comp) < 2:
            continue
        missing = [(u, v) for u in comp for v in comp if u != v and not G.has_edge(u, v)]
        report.add(
            f"SCC {sorted(comp)} is a bidirectional clique",
            not missing,
            f"missing edges {missing[:4]}" if missing else "",
        )
    k_scc = max(map(len, comps), default=0)
    k_in = G.max_in_degree()
    if k_scc >= 2:
        report.add(
            "max SCC size == max in-degree + 1",
            k_scc == k_in + 1,
            f"k_scc={k_scc}, k_in={k_in}",
        )
    else:
        report.add("no cycles: clique structure holds vacuously", True)
    return report


def verify(
    problem, theorems: Iterable[str], weak_order: int = 4, cap: int = DEFAULT_CAP
) -> list[TheoremReport]:
    """Reports on the named ``theorems`` (of ``THEOREMS``): decomposition,
    the blanket of each singleton {v}, then clique structure.  They share
    one epistatic graph and, for the first two, one weak-epistasis audit,
    whose order the first report shows.  The decomposition theorem refuses
    what its table scan would refuse before anything is scanned."""
    theorems = set(theorems)
    if "decomposition" in theorems:
        _fitness_table(problem, cap)
    G = _graph.build_eg(problem, cap)
    audited = bool({"decomposition", "blanket"} & theorems)
    weak = _ep.find_weak_epistases(problem, weak_order, cap) if audited else []
    reports = []
    if "decomposition" in theorems:
        reports.append(verify_decomposition_theorem(problem, G, weak, cap))
    if "blanket" in theorems:
        reports += [verify_blanket(problem, {v}, G, weak, cap) for v in range(problem.size)]
    if "clique" in theorems:
        reports.append(verify_clique_structure(problem, G))
    if audited:
        reports[0].audited_weak_order = weak_order
    return reports


@dataclass(frozen=True)
class EbaccScore:
    """Extreme balanced accuracy of a global-optimum hypothesis."""

    sensitivity_star: int
    specificity: Fraction
    ebacc: Fraction


def ebacc(hypothesis: Callable[[tuple[int, ...]], bool], problem, cap: int = DEFAULT_CAP) -> EbaccScore:
    """Score a predicate over the full search space.

    The single positive is the unique global optimum; specificity is the
    fraction of non-optima the predicate rejects.
    """
    from fractions import Fraction

    size = problem.size
    g = global_optimum(problem, cap)  # refuses 2^size > cap
    sens = 1 if hypothesis(g) else 0
    rejected = 0
    total = 2 ** size - 1
    for idx in range(2 ** size):
        bits = unpack_bits(idx, size)
        if bits == g:
            continue
        if not hypothesis(bits):
            rejected += 1
    spec = Fraction(rejected, total)
    return EbaccScore(sens, spec, Fraction(sens + spec, 2))


def indicator_ebacc(c: Sequence[int], problem, cap: int = DEFAULT_CAP) -> EbaccScore:
    """``ebacc`` of the indicator hypothesis of ``c`` in closed form: it
    accepts only c, so it finds the optimum iff c is the optimum,
    and otherwise accepts one of the 2^size - 1 non-optima."""
    from fractions import Fraction

    if tuple(c) == global_optimum(problem, cap):  # refuses 2^size > cap
        return EbaccScore(1, Fraction(1), Fraction(1))
    spec = Fraction(2 ** problem.size - 2, 2 ** problem.size - 1)
    return EbaccScore(0, spec, spec / 2)
