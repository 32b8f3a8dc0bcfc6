"""The benchmark's workloads: epilink command lines and the checks on their output.

Each workload is a list of operations, one CLI invocation each.  The
inputs of every operation come from the benchmark seed.  The references
an operation is checked against are computed here, by ``reference``, when
the list is built, so none of that work falls inside a timed region.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import Spec

# A check gets (stdout, stderr) of an operation that exited 0 and returns
# the list of problems it found; an empty list means the output is correct.
Check = Callable[[str, str], list[str]]


@dataclass
class Op:
    argv: list[str]
    check: Check
    # Counted evaluations the output reports, by traced counter name; the
    # traced run compares its own counts with the sums of these.
    evaluations: Callable[[str], dict[str, int]] | None = None


class Problem:
    """A spec with the brute-force facts the checks need, computed once."""

    def __init__(self, spec: Spec, spec_dir: Path):
        self.spec = spec
        self.table = ref.full_table(spec)
        self.optimum, self.top = ref.closed_form_optimum(spec)
        if int(np.argmax(self.table)) != ref.pack(self.optimum) or self.table.max() != self.top:
            raise AssertionError(f"closed form disagrees with the formula for {spec.kind}")
        self._edges = None
        if spec.kind == "lookup-table":
            path = spec_dir / f"lookup-{len(list(spec_dir.iterdir()))}.json"
            path.write_text(json.dumps(spec.spec_json()))
            self.args = ["--spec", str(path)]
        else:
            self.args = spec.cli_args()

    @property
    def edges(self) -> set[tuple[int, int, str]]:
        if self._edges is None:
            self._edges = ref.order1_edges(self.spec, self.table)
        return self._edges

    @property
    def optimum_str(self) -> str:
        return "".join(map(str, self.optimum))


# -- parsing -------------------------------------------------------------

_DOT_EDGE = re.compile(r"^\s*(\d+) -> (\d+) \[style=(solid|dashed)\];$")


def parse_dot(text: str) -> set[tuple[int, int, str]]:
    kinds = {"solid": "strict", "dashed": "nonstrict"}
    return {
        (int(m[1]), int(m[2]), kinds[m[3]])
        for m in map(_DOT_EDGE.match, text.splitlines())
        if m
    }


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    header = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    return header, [dict(zip(columns, ln.split(","))) for ln in body[1:] if ln]


# -- checks --------------------------------------------------------------

def check_eg(p: Problem) -> Check:
    def check(out: str, err: str) -> list[str]:
        got = parse_dot(out)
        problems = []
        if got != p.edges:
            problems.append(
                f"eg {p.spec.kind}-{p.spec.size}: edges differ from brute force; "
                f"extra {sorted(got - p.edges)[:3]}, missing {sorted(p.edges - got)[:3]}"
            )
        summary = json.loads(err.strip().splitlines()[-1])
        if summary["edges"] != len(p.edges):
            problems.append(f"eg summary reports {summary['edges']} edges, brute force {len(p.edges)}")
        return problems
    return check


def _topological(partition: list[list[int]], edges) -> bool:
    position = {v: i for i, block in enumerate(partition) for v in block}
    return all(position[u] <= position[v] for u, v, _ in edges)


def check_decompose(p: Problem, fixture: bool = False) -> Check:
    l = p.spec.size

    def check(out: str, err: str) -> list[str]:
        payload = json.loads(out)
        partition = payload["partition"]
        chromosome = payload["chromosome"]
        problems = []
        if sorted(v for b in partition for v in b) != list(range(l)):
            problems.append(f"partition {partition} is not a partition of {l} loci")
            return problems
        if fixture:
            head = [list(range(10))]
            want = head + [list(range(s, min(s + 3, l))) for s in range(10, l, 3)]
            if partition != want:
                problems.append(f"fixture partition {partition} != {want}")
        else:
            if {frozenset(b) for b in partition} != set(ref.sccs(l, p.edges)):
                problems.append("partition blocks are not the SCCs of the brute-force graph")
            if not _topological(partition, p.edges):
                problems.append("partition blocks are not in a topological order")
        if payload["evaluations"] != ref.pe_evaluations(partition):
            problems.append(
                f"evaluations {payload['evaluations']} != 1 + sum 2^|block| = "
                f"{ref.pe_evaluations(partition)}"
            )
        fitness2 = int(p.table[int(chromosome, 2)])
        if payload["fitness"] * 2 != fitness2:
            problems.append(f"fitness {payload['fitness']} != formula {fitness2 / 2} at {chromosome}")
        if payload["optimal"] is not (chromosome == p.optimum_str):
            problems.append(f"optimal={payload['optimal']} but chromosome is {chromosome}")
        if p.spec.kind != "lookup-table" and (
            chromosome != p.optimum_str or payload["fitness"] * 2 != p.top
        ):
            problems.append(f"decompose found {chromosome}, closed-form optimum is {p.optimum_str}")
        return problems
    return check


def check_ipe(p: Problem, n: int, seed: int, traced: bool) -> Check:
    want = ref.reference_ipe(p.spec, n, seed, p.table)

    def check(out: str, err: str) -> list[str]:
        payload = json.loads(out)
        problems = []
        for key in ("outcome", "evaluations"):
            if payload[key] != want[key]:
                problems.append(f"ipe {key} {payload[key]} != reference {want[key]}")
        if traced:
            trace = payload["trace"]
            if trace["steps"] != want["steps"]:
                problems.append("ipe trace steps differ from the reference")
            if trace["evaluations"] != want["evaluations"]:
                problems.append("ipe trace evaluations differ from the reference")
            expected = "failure" if want["outcome"] == "failure" else "success"
            if trace["outcome"] != expected:
                problems.append(f"ipe trace outcome {trace['outcome']} != {expected}")
        if payload["outcome"] != "failure":
            if (payload["ebacc"] == 1.0) is not (payload["outcome"] == p.optimum_str):
                problems.append(f"ebacc {payload['ebacc']} for outcome {payload['outcome']}")
            pairs = {e[:2] for e in p.edges}
            unassigned = set(range(p.spec.size))
            ok = True
            for step in want["steps"]:
                unassigned -= set(step["S"])
                ok = ok and not any((u, s) in pairs for u in unassigned for s in step["S"])
            if payload["topological_order_ok"] is not ok:
                problems.append(f"topological_order_ok={payload['topological_order_ok']}, reference {ok}")
        return problems
    return check


_CLAIM = re.compile(r"^  \[\s*(pass|fail|not-applicable)\] ")


def check_verify(out: str, err: str) -> list[str]:
    reports = [r for r in out.split("\n\n") if r.strip()]
    claims = [m[1] for m in map(_CLAIM.match, out.splitlines()) if m]
    problems = []
    if not reports or len(claims) < len(reports):
        problems.append("verify printed no claims")
    if "fail" in claims:
        problems.append(f"verify reports {claims.count('fail')} failed claims")
    return problems


def check_pac_sweep(p: Problem, n_values: list[int] | None, runs: int, delta: float) -> Check:
    def check(out: str, err: str) -> list[str]:
        header, rows = parse_csv(out)
        problems = []
        k = ref.difficulty(p.spec.size, p.edges)
        if f"decomposition_difficulty={k}" not in header:
            problems.append(f"pac-sweep header {header} does not give difficulty {k}")
        want_n = [ref.pac_threshold(k, p.spec.size, delta)] if n_values is None else n_values
        if [int(r["n"]) for r in rows] != want_n:
            problems.append(f"pac-sweep swept n={[r['n'] for r in rows]}, expected {want_n}")
        for r in rows:
            rates = [float(r[c]) for c in ("success_rate", "wrong_rate", "failure_rate")]
            if int(r["runs"]) != runs or abs(sum(rates) - 1) > 1e-9 or min(rates) < 0:
                problems.append(f"pac-sweep row {r} has bad runs or rates")
            if n_values is None and rates[0] < 1 - delta:
                problems.append(f"success rate {rates[0]} < 1 - delta at the threshold n")
            if float(r["mean_evaluations"]) <= 0:
                problems.append(f"pac-sweep row {r} counted no evaluations")
        return problems
    return check


def pac_sweep_evaluations(out: str) -> dict[str, int]:
    _, rows = parse_csv(out)
    return {"decomposition.ipe.evaluations": sum(
        round(float(r["mean_evaluations"]) * int(r["runs"])) for r in rows
    )}


WEAK_BLOCKS = (3, 4, 5, 6, 7)
WEAK_SIZES = (10, 20, 50, 100, 200, 500, 1000)


def check_weak_observability(runs: int, population: int, generations: int) -> Check:
    def check(out: str, err: str) -> list[str]:
        _, rows = parse_csv(out)
        problems = []
        # Initial populations over every size, then each GA generation.
        want = sorted([(b - 1, n, 0) for n in WEAK_SIZES for b in WEAK_BLOCKS]
                      + [(b - 1, population, g) for b in WEAK_BLOCKS for g in range(generations + 1)])
        got = sorted((int(r["block_order"]), int(r["population_size"]), int(r["generation"]))
                     for r in rows)
        if got != want:
            problems.append(f"observability rows cover {len(got)} (order, n, generation) "
                            f"points, not the {len(want)} expected")
        for r in rows:
            prob, gen, n = float(r["probability"]), int(r["generation"]), int(r["population_size"])
            if int(r["runs"]) != runs or not 0 <= prob <= 1:
                problems.append(f"observability row {r} has bad runs or probability")
            if abs(float(r["stderr"]) - round(math.sqrt(prob * (1 - prob) / runs), 6)) > 1e-9:
                problems.append(f"observability row {r} has a wrong standard error")
            if gen == 0:
                exact = ref.observability(int(r["block_order"]) + 1, n)
                bound = 5 * math.sqrt(exact * (1 - exact) / runs) + 1 / runs
                if abs(prob - exact) > bound:
                    problems.append(
                        f"order {r['block_order']} n={n}: observed {prob}, "
                        f"closed form {exact:.4f} +- {bound:.4f}"
                    )
        return problems
    return check


def _evaluations_field(counter: str) -> Callable[[str], dict[str, int]]:
    return lambda out: {counter: json.loads(out)["evaluations"]}


# -- workloads -----------------------------------------------------------

def _seeds(seed: int):
    rng = np.random.default_rng(seed)
    return rng, lambda: int(rng.integers(0, 2 ** 31))


def _eg(p: Problem) -> Op:
    return Op(["eg", *p.args], check_eg(p))


def _decompose(p: Problem, seed: int, fixture: bool = False) -> Op:
    extra = ["--fixture-partition"] if fixture else []
    return Op(
        ["decompose", *p.args, "--seed", str(seed), *extra],
        check_decompose(p, fixture),
        _evaluations_field("decomposition.partial_enumeration.evaluations"),
    )


def _ipe(p: Problem, n: int, seed: int, traced: bool = False) -> Op:
    extra = ["--trace"] if traced else []
    return Op(
        ["ipe", *p.args, "--n", str(n), "--seed", str(seed), *extra],
        check_ipe(p, n, seed, traced),
        _evaluations_field("decomposition.ipe.evaluations"),
    )


def _verify(p: Problem) -> Op:
    # Weak-epistasis audit to order 2 keeps the 12-bit runs at a few seconds.
    return Op(["verify", *p.args, "--weak-order", "2"], check_verify)


def analyze(seed: int, spec_dir: Path) -> list[Op]:
    rng, draw = _seeds(seed)
    trap20 = Problem(Spec("ctrap", 20), spec_dir)
    lead18 = Problem(Spec("leadingones", 18), spec_dir)
    ltrap12 = Problem(Spec("leadingtraps", 12), spec_dir)
    lookup12 = Problem(ref.random_lookup(12, rng), spec_dir)
    trap12 = Problem(Spec("ctrap", 12), spec_dir)
    cyc12 = Problem(Spec("cyctrap", 12), spec_dir)
    return [
        _decompose(trap20, draw()),
        _eg(lead18),
        _eg(ltrap12),
        _decompose(lookup12, draw()),
        _ipe(trap12, 64, draw()),
        _verify(trap12),
        _verify(ltrap12),
        # Fails on today's code: cmd_verify skips the weak-epistasis audit
        # for every blanket check after the first report, so the blanket
        # claims for loci 0, 3, 6 and 9 print "fail" and the command exits 4.
        _verify(cyc12),
    ]


def wide(seed: int, spec_dir: Path) -> list[Op]:
    _, draw = _seeds(seed)
    cyc21 = Problem(Spec("cyctrap", 21), spec_dir)
    return [_eg(cyc21), _decompose(cyc21, draw(), fixture=True)]


PAC_N = [2, 8, 32, 128, 512]
PAC_RUNS = 30


def ipe_sweep(seed: int, spec_dir: Path) -> list[Op]:
    rng, draw = _seeds(seed)
    trap8 = Problem(Spec("ctrap", 8), spec_dir)
    onemax16 = Problem(Spec("onemax", 16), spec_dir)
    n_values = ",".join(map(str, PAC_N))
    ops = [
        Op(["pac-sweep", *trap8.args, "--n-values", n_values, "--runs", str(PAC_RUNS),
            "--seed", str(draw())],
           check_pac_sweep(trap8, PAC_N, PAC_RUNS, 0.1), pac_sweep_evaluations),
        Op(["pac-sweep", *onemax16.args, "--runs", str(PAC_RUNS), "--seed", str(draw())],
           check_pac_sweep(onemax16, None, PAC_RUNS, 0.1), pac_sweep_evaluations),
    ]
    for spec, n in ((Spec("ctrap", 12), 64), (Spec("leadingtraps", 12), 64),
                    (ref.random_lookup(6, rng), 16)):
        ops.append(_ipe(Problem(spec, spec_dir), n, draw(), traced=True))
    return ops


GA_RUNS = 200
GA_POPULATION = 500
GA_GENERATIONS = 20


def ga(seed: int, spec_dir: Path) -> list[Op]:
    _, draw = _seeds(seed)
    return [Op(
        ["weak-observability", "--runs", str(GA_RUNS), "--seed", str(draw()),
         "--population", str(GA_POPULATION), "--generations", str(GA_GENERATIONS)],
        check_weak_observability(GA_RUNS, GA_POPULATION, GA_GENERATIONS),
    )]


WORKLOADS = {"analyze": analyze, "wide": wide, "ipe-sweep": ipe_sweep, "ga": ga}
