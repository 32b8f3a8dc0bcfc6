"""Command-line front end: graph extraction, decomposition runs, theorem
verification, PAC-success sweeps, and the weak-epistasis observability
experiment.  Tabular output is CSV, graphs are DOT, everything else JSON."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from typing import Sequence

# numpy's OpenBLAS starts a thread per CPU when it is imported, and no
# command makes a BLAS call that gains from them (the only one, the block
# sums of the block-sum kinds, is as fast on one thread).  This runs before
# any command loads numpy; a value the user has set wins, and forked GA
# workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _register_lazily(*names: str) -> None:
    """Put each submodule in ``sys.modules`` and on the package, as an
    import does, but compile and execute it only on its first attribute
    access (``importlib.util.LazyLoader``): a command loads only the
    modules it uses."""
    package = sys.modules[__package__]
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


# A command loads only the modules it uses, and numpy with the first of
# them: ``list-problems``, ``--help`` and the usage errors need only the
# names the package itself defines, since each command checks its options
# before it builds a problem.
# ``model`` and ``problems`` are registered last, so they follow the others
# in ``sys.modules``.  bench/tracing.py rebinds each traced function in
# every module in that order, loading a lazy one as it reaches it; one
# loaded after ``model``'s functions are wrapped would bind a wrapper that
# the round never undoes.
_register_lazily("decomposition", "epistasis", "gasim", "graph", "oracles", "model", "problems")
from . import (
    DEFAULT_CAP,
    KIND_NAMES,
    THEOREMS,
    AssumptionViolationError,
    EnumerationCapError,
    ProblemSpecError,
    decomposition,
    gasim,
    graph,
    model,
    oracles,
    problems,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_THEOREM = 4
EXIT_ASSUMPTION = 5


def __getattr__(name):
    # ``cli.pac_sweep`` is a traced name; read through decomposition, it
    # does not load that module at import.
    if name == "pac_sweep":
        return decomposition.pac_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int_list(text: str) -> list[int]:
    """A comma list of integers from the command line."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ProblemSpecError(str(exc)) from exc


def _at_least(value: int, minimum: int, what: str) -> int:
    if value < minimum:
        raise ProblemSpecError(f"{what} must be >= {minimum}")
    return value


def _load_problem(args):
    _at_least(args.cap, 1, "cap")
    if args.spec:
        if any(x is not None for x in (args.kind, args.l, args.m, args.block_sizes)):
            raise ProblemSpecError("pass --spec or --kind/--l/--m/--block-sizes, not both")
        try:
            with open(args.spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:  # missing, a directory, unreadable, ...
            raise ProblemSpecError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise ProblemSpecError(f"{args.spec}: not UTF-8 text ({exc})") from exc
    else:
        if not args.kind:
            raise ProblemSpecError("pass --spec FILE or --kind with --l/--m")
        spec = {"kind": args.kind}
        if args.l is not None:
            spec["l"] = args.l
        if args.m is not None:
            spec["m"] = args.m
        if args.block_sizes:
            spec["block_sizes"] = _int_list(args.block_sizes)
    return problems.make_problem(spec)


def _emit(text: str, output: str | None, mode: str = "w"):
    if output:
        try:
            with open(output, mode) as fh:
                fh.write(text)
        except OSError as exc:
            raise ProblemSpecError(str(exc)) from exc
    else:
        sys.stdout.write(text)


def _csv(header_lines: Sequence[str], columns: Sequence[str], rows) -> str:
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def cmd_eg(args) -> int:
    _at_least(args.epistasis_order_bound, 0, "epistasis order bound")
    problem = _load_problem(args)
    G = graph.build_eg(problem, args.cap)
    k_scc = max(map(len, graph.components(G)), default=0)
    summary = {
        "problem": problem.name,
        "size": problem.size,
        "edges": len(G.edges),
        "k_scc": k_scc,
        "k_in": G.max_in_degree(),
        "decomposition_difficulty": graph.decomposition_difficulty(G),
    }
    if args.epistasis_order_bound:
        summary["max_epistasis_order"] = graph.max_epistasis_order(
            problem, args.epistasis_order_bound, args.cap
        )
    if args.format == "dot":
        _emit(graph.to_dot(G, problem.name.replace("-", "_")), args.output)
    else:
        payload = graph.to_adjacency(G)
        payload["summary"] = summary
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def cmd_decompose(args) -> int:
    problem = _load_problem(args)
    if args.fixture_partition:
        partition = graph.cyctrap_reference_partition(problem.size)
        partition_source = "fixture"
    else:
        G = graph.build_eg(problem, args.cap)
        partition = graph.topological_partition(G)
        partition_source = "topological"
    result = decomposition.partial_enumeration(problem, partition, args.seed, args.cap)
    optimal = None
    if 2 ** problem.size <= args.cap:
        optimal = bool(result.chromosome == model.global_optimum(problem, args.cap))
    payload = {
        "problem": problem.name,
        "seed": args.seed,
        "partition_source": partition_source,
        "partition": [sorted(b) for b in partition],
        "chromosome": model.bits_to_str(result.chromosome),
        "fitness": problems.unscale(result.fitness),
        "evaluations": result.evaluations,
        "optimal": optimal,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_ipe(args) -> int:
    _at_least(args.n, 1, "population size")
    problem = _load_problem(args)
    result = decomposition.ipe(problem, args.n, args.seed, args.subset_order)
    payload = {
        "problem": problem.name,
        "n": args.n,
        "seed": args.seed,
        "outcome": model.bits_to_str(result.chromosome) if result.succeeded else "failure",
        "evaluations": result.trace.evaluations,
    }
    if args.trace:
        payload["trace"] = result.trace.to_json()
    if result.succeeded and 2 ** problem.size <= args.cap:
        score = oracles.indicator_ebacc(result.chromosome, problem, args.cap)
        payload["ebacc"] = float(score.ebacc)
        G = graph.build_eg(problem, args.cap)
        payload["topological_order_ok"] = decomposition.trace_topological_check(
            result.trace, G
        )
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    _at_least(args.weak_order, 0, "weak-epistasis audit order")
    if args.theorems is None:
        wanted = list(THEOREMS)
    else:
        wanted = [t.strip() for t in args.theorems.split(",") if t.strip()]
    unknown = set(wanted) - set(THEOREMS)
    if unknown:
        raise ProblemSpecError(f"unknown theorems: {sorted(unknown)}")
    if not wanted:
        raise ProblemSpecError("--theorems names no theorem")
    problem = _load_problem(args)
    reports = oracles.verify(problem, wanted, args.weak_order, args.cap)
    _emit("\n\n".join(r.summary() for r in reports) + "\n", args.output)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_THEOREM


def cmd_pac_sweep(args) -> int:
    if not 0 < args.delta < 1:  # also rejects NaN
        raise ProblemSpecError("delta must lie in (0, 1)")
    _at_least(args.runs, 1, "runs")
    if args.n_values is not None:
        n_values = [_at_least(n, 1, "population size") for n in _int_list(args.n_values)]
    problem = _load_problem(args)
    G = graph.build_eg(problem, args.cap)
    k = graph.decomposition_difficulty(G)
    threshold, threshold_text = decomposition.pac_threshold(k, problem.size, args.delta)
    if args.n_values is None:
        if threshold is None:
            raise ProblemSpecError(
                f"sufficient-n threshold is infeasible ({threshold_text}); pass --n-values"
            )
        n_values = [threshold]
    rows = decomposition.pac_sweep(problem, n_values, args.runs, args.seed, args.cap)
    text = _csv(
        [
            f"problem={problem.name} delta={args.delta} runs={args.runs} seed={args.seed}",
            f"decomposition_difficulty={k}",
            f"sufficient_n_threshold={threshold_text}",
        ],
        ["n", "runs", "success_rate", "wrong_rate", "failure_rate", "mean_evaluations"],
        (
            (r.n, r.runs, r.success_rate, r.wrong_rate, r.failure_rate, r.mean_evaluations)
            for r in rows
        ),
    )
    _emit(text, args.output)
    return EXIT_OK


def cmd_weak_observability(args) -> int:
    _at_least(args.runs, 1, "runs")
    _at_least(args.population, 1, "population")
    _at_least(args.generations, 0, "generations")
    wanted = None if args.blocks is None else _int_list(args.blocks)
    sizes = [_at_least(n, 0, "population size") for n in _int_list(args.population_sizes)]
    problem = problems.weak_observability_problem()
    targets = problem.blocks
    if wanted is not None:
        orders = list(map(gasim.block_order, targets))
        unknown = [w for w in wanted if w not in orders]
        if unknown:
            raise ProblemSpecError(
                f"--blocks: no block has order {', '.join(map(str, unknown))}; "
                f"the orders are {', '.join(map(str, orders))}"
            )
        targets = [t for t, order in zip(targets, orders) if order in wanted]
    points = gasim.initial_observability(problem, targets, sizes, args.runs, args.seed)
    config = gasim.GaConfig(
        population_size=args.population,
        generations=args.generations,
        runs=args.runs,
        seed=args.seed + 1,
    )
    points += gasim.generational_observability(problem, targets, config)
    text = _csv(
        [f"problem={problem.name} runs={args.runs} seed={args.seed}"],
        ["block_order", "population_size", "generation", "probability", "runs", "stderr"],
        (
            (p.block_order, p.population_size, p.generation, p.probability, p.runs,
             round(p.stderr, 6))
            for p in points
        ),
    )
    _emit(text, args.output)
    return EXIT_OK


def cmd_list_problems(args) -> int:
    _emit("\n".join(KIND_NAMES) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epilink",
        description="Epistatic-graph analysis and decomposition of small "
        "pseudo-Boolean maximization problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def problem_options(p):
        p.add_argument("--spec", help="problem spec file (JSON)")
        p.add_argument("--kind", help="inline problem kind instead of --spec")
        p.add_argument("--l", type=int, help="problem size for inline specs")
        p.add_argument("--m", type=int, help="block count for inline specs")
        p.add_argument("--block-sizes", help="comma list for onemax-prime-blocks")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP)
        p.add_argument("--output", help="write to file instead of stdout")

    def seed_option(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eg", help="extract the epistatic graph")
    problem_options(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--epistasis-order-bound", type=int, default=0,
                   help="also scan for the max epistasis order up to this bound")
    p.set_defaults(func=cmd_eg)

    p = sub.add_parser("decompose",
                       help="partition the SCCs topologically and run partial enumeration")
    problem_options(p)
    seed_option(p)
    p.add_argument("--fixture-partition", action="store_true",
                   help="use the hard-coded cyclic-trap partition")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ipe", help="run iterative partial enumeration")
    problem_options(p)
    seed_option(p)
    p.add_argument("--n", type=int, required=True, help="population size")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--subset-order", choices=["lex", "random"], default="lex")
    p.set_defaults(func=cmd_ipe)

    p = sub.add_parser("verify", help="run brute-force theorem oracles")
    problem_options(p)
    p.add_argument("--theorems")
    p.add_argument("--weak-order", type=int, default=4,
                   help="bounded weak-epistasis audit order")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pac-sweep", help="IPE success-rate sweep over population sizes")
    problem_options(p)
    seed_option(p)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--n-values", help="comma list of population sizes to sweep")
    p.add_argument("--runs", type=int, default=100)
    p.set_defaults(func=cmd_pac_sweep)

    p = sub.add_parser("weak-observability",
                       help="weak-epistasis observability experiment (25-bit problem)")
    seed_option(p)
    p.add_argument("--output", help="write to file instead of stdout")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--blocks", help="comma list of block orders to keep")
    p.add_argument("--population-sizes", default="10,20,50,100,200,500,1000")
    p.add_argument("--population", type=int, default=500)
    p.add_argument("--generations", type=int, default=20)
    p.set_defaults(func=cmd_weak_observability)

    p = sub.add_parser("list-problems", help="list supported problem kinds")
    p.add_argument("--output")
    p.set_defaults(func=cmd_list_problems)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _at_least(getattr(args, "seed", 0), 0, "seed")  # numpy seeds are non-negative
        # refuse an unwritable --output before computing; appending truncates nothing
        _emit("", args.output, mode="a")
        return args.func(args)
    except (ProblemSpecError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except AssumptionViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
