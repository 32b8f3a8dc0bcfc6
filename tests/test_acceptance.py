"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Statistical criteria use fixed seeds so reruns are exact.
"""

import itertools
import math

import numpy as np

from conftest import niah4, trap4
from epilink import epistasis as ep
from epilink.decomposition import ipe, pac_sweep, partial_enumeration
from epilink.gasim import (
    GaConfig,
    block_targets,
    generational_observability,
    initial_observability,
)
from epilink.graph import build_eg, topological_partition
from epilink.model import Assignment, constrained_optima, global_optimum, unpack_bits
from epilink.oracles import (
    ebacc,
    minimum_stationary_optima,
    verify_blanket,
    verify_clique_structure,
    verify_decomposition_theorem,
)
from epilink.problems import (
    CNiah,
    CTrap,
    CycTrap,
    LeadingOnes,
    LeadingTraps,
    OneMax,
    weak_observability_problem,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{status}] {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_01_benchmark_fidelity():
    ok = all(
        trap4(*unpack_bits(i, 4)) == (4 if sum(unpack_bits(i, 4)) == 4 else 3 - sum(unpack_bits(i, 4)))
        and niah4(*unpack_bits(i, 4)) == (4 if sum(unpack_bits(i, 4)) == 4 else 0)
        for i in range(16)
    )
    for p in (OneMax(10), LeadingOnes(10), CTrap(3), CycTrap(4), CNiah(3), LeadingTraps(3)):
        ok = ok and global_optimum(p) == (1,) * p.size
    report(1, "subfunction values and unique all-ones optima", ok)


def test_criterion_02_constrained_optima_example():
    opt = constrained_optima(CNiah(1), Assignment(((0, 0), (1, 0))))
    ok = set(opt.chromosomes) == {
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
    }
    report(2, "constrained optima of the 4-bit needle problem under (0,0),(1,0)", ok)


def _clique_edges(blocks, kind):
    return {
        (u, v, kind)
        for block in blocks
        for u, v in itertools.permutations(block, 2)
    }


def _cyctrap12_expected_edges():
    # overlap loci sit in two blocks; non-overlap siblings pair up
    edges = set()
    for i in range(4):
        o = 3 * i
        strict_targets = {
            (o + 1) % 12, (o + 2) % 12, (o - 1) % 12, (o - 2) % 12,
        }
        edges |= {(o, t, "strict") for t in strict_targets}
        edges |= {
            (o, t, "nonstrict")
            for t in set(range(12)) - strict_targets - {o}
        }
        edges.add((o + 1, o + 2, "strict"))
        edges.add((o + 2, o + 1, "strict"))
    return frozenset(edges)


def test_criterion_03_eg_structures():
    checks = []
    checks.append(build_eg(OneMax(8)).edges == frozenset())
    checks.append(
        build_eg(LeadingOnes(6)).edges
        == frozenset(
            (u, v, "nonstrict") for u in range(6) for v in range(u + 1, 6)
        )
    )
    checks.append(
        build_eg(CTrap(2)).edges
        == frozenset(_clique_edges([range(4), range(4, 8)], "strict"))
    )
    checks.append(
        build_eg(CNiah(2)).edges
        == frozenset(_clique_edges([range(4), range(4, 8)], "nonstrict"))
    )
    checks.append(build_eg(CycTrap(4)).edges == _cyctrap12_expected_edges())
    lt_expect = _clique_edges([range(4), range(4, 8)], "strict") | {
        (u, v, "nonstrict") for u in range(4) for v in range(4, 8)
    }
    checks.append(build_eg(LeadingTraps(2)).edges == frozenset(lt_expect))
    report(3, "epistatic-graph structures of the six benchmarks", all(checks))


def test_criterion_04_decomposition_theorem():
    ok = True
    for p in (OneMax(10), LeadingOnes(8), CTrap(2), CNiah(2), LeadingTraps(2)):
        r = verify_decomposition_theorem(p, build_eg(p), ep.find_weak_epistases(p, 3))
        ok = ok and r.ok and r.applicable
    p = CycTrap(4)
    r = verify_decomposition_theorem(p, build_eg(p), ep.find_weak_epistases(p, 2))
    ok = ok and not r.applicable
    ok = ok and any("[2, 4] => 3" in c.detail for c in r.claims)
    report(4, "minimum-SO coverage equals the in-closure on clean benchmarks", ok)


def test_criterion_05_cyctrap_mso_size():
    mso = minimum_stationary_optima(CycTrap(4))[2]
    report(5, "cyclic-trap minimum SO of locus 2 covers ten loci",
           mso.coverage == frozenset(range(10)))


def test_criterion_06_pe_correctness():
    ok = True
    for p in (OneMax(10), LeadingOnes(8), CTrap(2), CNiah(2), LeadingTraps(2)):
        D = topological_partition(build_eg(p))
        g = global_optimum(p)
        expect_evals = 1 + sum(2 ** len(b) for b in D)
        for seed in range(100):
            result = partial_enumeration(p, D, seed)
            ok = ok and result.chromosome == g
            ok = ok and result.evaluations == expect_evals
    report(6, "partial enumeration solves every clean benchmark, exact cost", ok)


def test_criterion_07_blanket_theorem():
    ok = True
    for p in (CTrap(2), LeadingTraps(2)):
        G, weak = build_eg(p), ep.find_weak_epistases(p, 3)
        for v in range(p.size):
            r = verify_blanket(p, {v}, G, weak)
            ok = ok and r.ok and r.applicable
    report(7, "epistasis blanket holds for every singleton", ok)


def test_criterion_08_clique_structure():
    G = build_eg(CTrap(3))
    r = verify_clique_structure(CTrap(3), G)
    ok = r.ok and r.applicable
    ok = ok and G.max_in_degree() + 1 == 4
    report(8, "strict-graph SCCs are disjoint 4-cliques, size = in-degree + 1", ok)


def test_criterion_09_lookup_problems(weak_pair, fork):
    ok = ep.epistatic(weak_pair, {0, 1}, 2)
    ok = ok and not ep.epistatic(weak_pair, {0}, 2)
    ok = ok and not ep.epistatic(weak_pair, {1}, 2)

    good = 0
    misses = []
    for seed in range(200):
        result = ipe(fork, n=64, seed=seed)
        steps = [sorted(s.loci) for s in result.trace.steps]
        if (
            result.succeeded
            and steps[0] == [0]
            and sorted(map(tuple, steps[1:])) == [(1,), (2,)]
        ):
            good += 1
        else:
            misses.append((seed, steps))
    for seed, steps in misses:
        print(f"  criterion 09 sampling miss: seed={seed} steps={steps}")
    report(9, "weak-pair classification and root-first solver traces",
           ok and good >= 198, f"{good}/200 conforming traces")


def test_criterion_10_pac_bound_k1():
    # sufficient n from the order-1 bound: 2^2 (ln 16 + ln 10) -> 21
    n = math.ceil(4 * (math.log(16) + math.log(10)))
    assert n == 21
    (row,) = pac_sweep(OneMax(16), [n], runs=500, seed=0)
    # one-sided 95% tolerance around the target rate 0.9
    floor = 0.9 - 1.645 * math.sqrt(0.9 * 0.1 / 500)
    report(10, "success rate at the sufficient population size",
           row.success_rate >= floor, f"rate={row.success_rate:.3f} n={n}")


def test_criterion_11_failure_trend():
    rows = pac_sweep(CTrap(2), [2, 8, 32, 128, 512], runs=300, seed=1)
    bad = [r.wrong_rate + r.failure_rate for r in rows]
    ok = all(a >= b for a, b in zip(bad, bad[1:]))
    ok = ok and bad[-1] <= 0.01
    report(11, "wrong-or-failure rate shrinks with population size",
           ok, "rates=" + ",".join(f"{x:.3f}" for x in bad))


def test_criterion_12_observability_trends():
    problem = weak_observability_problem()
    targets = block_targets(problem)
    sizes = [10, 20, 50, 100, 200, 500, 1000]
    runs = 1000
    initial = initial_observability(problem, targets, sizes, runs=runs, seed=2)
    ok = True

    by_order = {}
    for pt in initial:
        by_order.setdefault(pt.block_order, []).append(pt)
    # larger populations observe each witness at least as often
    for order, pts in by_order.items():
        probs = [p.probability for p in sorted(pts, key=lambda p: p.population_size)]
        ok = ok and all(a <= b for a, b in zip(probs, probs[1:]))
        ok = ok and probs[0] < probs[-1]
    # higher orders are harder to observe at every population size
    for n in sizes:
        probs = [
            next(p.probability for p in by_order[o] if p.population_size == n)
            for o in sorted(by_order)
        ]
        ok = ok and all(a >= b for a, b in zip(probs, probs[1:]))
    # uniform initialization matches the closed form within 3 standard errors:
    # the all-zeros witness of order + 1 loci appears among n random chromosomes
    for pt in initial:
        p = 1.0 - (1.0 - 0.5 ** (pt.block_order + 1)) ** pt.population_size
        se = math.sqrt(p * (1 - p) / runs)
        ok = ok and abs(pt.probability - p) <= 3 * se + 1e-9

    config = GaConfig(population_size=500, generations=20, runs=runs, seed=3)
    generational = generational_observability(problem, targets, config)
    by_order = {}
    for pt in generational:
        by_order.setdefault(pt.block_order, []).append(pt)
    for order, pts in by_order.items():
        probs = [p.probability for p in sorted(pts, key=lambda p: p.generation)]
        violations = sum(1 for a, b in zip(probs, probs[1:]) if b > a)
        ok = ok and violations <= 1
        ok = ok and probs[-1] < probs[0]
    report(12, "observability rises with population, falls with order and time", ok)


def test_criterion_13_ebacc():
    ok = True
    for p in (OneMax(12), CTrap(3)):
        g = global_optimum(p)
        ok = ok and ebacc(lambda bits: bits == g, p).ebacc == 1
        wrong = tuple(1 - b for b in g)
        score = ebacc(lambda bits: bits == wrong, p)
        ok = ok and score.sensitivity_star == 0 and score.ebacc < 0.5
    report(13, "extreme balanced accuracy endpoints", ok)
