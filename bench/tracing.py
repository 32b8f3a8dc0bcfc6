"""Span tracing of epilink's layers, installed from outside the package.

Each traced function is replaced, in every epilink module that binds it,
by a wrapper that records a span (name, start, end, parent) and updates
exact counters.  Rebinding every module matters: ``epistasis`` and
``oracles`` import ``psi_at`` and ``global_optimum`` by name, so patching
``model`` alone would miss their calls.  Spans stay in memory until the
round ends; ``Tracer.metrics`` then turns them into per-layer figures.
"""

from __future__ import annotations

import contextlib
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, self seconds]
        self._open: list[list] = []  # [span index, seconds covered by child spans]
        self.counts: Counter = Counter()
        self._asked = weakref.WeakKeyDictionary()  # problem -> assignments asked
        self._tabulated = weakref.WeakSet()

    def call(self, name, fn, args, kwargs):
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._open.append([index, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child = self._open.pop()
            span = self.spans[index]
            span[2] = end
            duration = end - span[1]
            span[4] = duration - child
            if self._open:
                self._open[-1][1] += duration

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, start, end, _, self_s in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure this tracer can give, 0 for layers not run."""
        summary = self.summary()
        out: dict[str, float] = {}
        for _, _, name, _ in TRACED:
            row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.s"] = row["s"]
            out[f"{name}.self_s"] = row["self_s"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["cli.self_s"] = float(sum(
            row["self_s"] for name, row in summary.items() if name.startswith("cli.")
        ))
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "self_s": x}
            for n, s, e, p, x in self.spans
        ]

    # -- counters, called after the wrapped function returns ---------------

    def _table(self, args, kwargs, result):
        problem = args[0]
        if result is not None and problem not in self._tabulated:
            self._tabulated.add(problem)
            self.counts["problems.fitness_table.bytes"] += result.nbytes

    def _rows(self, args, kwargs, result):
        self.counts["problems.evaluate_many.rows"] += len(args[1])

    def _optima(self, args, kwargs, result):
        problem = args[0]
        assignment = args[1] if len(args) > 1 else kwargs["a"]
        asked = self._asked.setdefault(problem, set())
        if assignment in asked:
            self.counts["model.constrained_optima.repeat_calls"] += 1
            return
        asked.add(assignment)
        self.counts["model.constrained_optima.completions"] += 2 ** (problem.size - len(assignment))
        self.counts["model.constrained_optima.maximizers"] += len(result.chromosomes)

    def _weak(self, args, kwargs, result):
        self.counts["epistasis.find_weak_epistases.found"] += len(result)

    def _edges(self, args, kwargs, result):
        self.counts["graph.build_eg.edges"] += len(result.edges)

    def _pe(self, args, kwargs, result):
        self.counts["decomposition.partial_enumeration.evaluations"] += result.evaluations

    def _ipe(self, args, kwargs, result):
        self.counts["decomposition.ipe.evaluations"] += result.trace.evaluations

    def _so(self, args, kwargs, result):
        self.counts["decomposition.test_so.passes"] += bool(result[0])

    def _generations(self, args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.counts["gasim.generations"] += config.runs * config.generations

    def _count_predicate(self, args, kwargs):
        hypothesis = args[0]

        def counted(bits):
            self.counts["oracles.ebacc.predicate_calls"] += 1
            return hypothesis(bits)

        return (counted, *args[1:]), kwargs


COUNTERS = (
    "problems.fitness_table.bytes",
    "problems.evaluate_many.rows",
    "model.constrained_optima.completions",
    "model.constrained_optima.repeat_calls",
    "model.constrained_optima.maximizers",
    "epistasis.find_weak_epistases.found",
    "graph.build_eg.edges",
    "decomposition.partial_enumeration.evaluations",
    "decomposition.ipe.evaluations",
    "decomposition.test_so.passes",
    "oracles.ebacc.predicate_calls",
    "gasim.generations",
)

# (module, attribute, span name, counter method or None).  An attribute
# "Class.method" is patched on the class; any other is rebound in every
# epilink module that holds the same function object.
TRACED = (
    ("epilink.problems", "FitnessProblem.fitness_table", "problems.fitness_table", "_table"),
    ("epilink.problems", "FitnessProblem.evaluate_many", "problems.evaluate_many", "_rows"),
    ("epilink.problems", "FitnessProblem.evaluate", "problems.evaluate", None),
    ("epilink.model", "constrained_optima", "model.constrained_optima", "_optima"),
    ("epilink.model", "global_optimum", "model.global_optimum", None),
    ("epilink.epistasis", "order1", "epistasis.order1", None),
    ("epilink.epistasis", "epistatic", "epistasis.epistatic", None),
    ("epilink.epistasis", "find_weak_epistases", "epistasis.find_weak_epistases", "_weak"),
    ("epilink.graph", "build_eg", "graph.build_eg", "_edges"),
    ("epilink.graph", "topological_partition", "graph.topological_partition", None),
    ("epilink.decomposition", "partial_enumeration", "decomposition.partial_enumeration", "_pe"),
    ("epilink.decomposition", "ipe", "decomposition.ipe", "_ipe"),
    ("epilink.decomposition", "test_so", "decomposition.test_so", "_so"),
    ("epilink.oracles", "is_stationary_optimum", "oracles.is_stationary_optimum", None),
    ("epilink.oracles", "verify_decomposition_theorem", "oracles.verify_decomposition_theorem", None),
    ("epilink.oracles", "verify_blanket", "oracles.verify_blanket", None),
    ("epilink.oracles", "verify_clique_structure", "oracles.verify_clique_structure", None),
    ("epilink.oracles", "ebacc", "oracles.ebacc", None),
    ("epilink.gasim", "initial_observability", "gasim.initial_observability", None),
    ("epilink.gasim", "generational_observability", "gasim.generational_observability", "_generations"),
    ("epilink.cli", "main", "cli.main", None),
    ("epilink.cli", "cmd_eg", "cli.cmd_eg", None),
    ("epilink.cli", "cmd_decompose", "cli.cmd_decompose", None),
    ("epilink.cli", "cmd_ipe", "cli.cmd_ipe", None),
    ("epilink.cli", "cmd_verify", "cli.cmd_verify", None),
    ("epilink.cli", "cmd_pac_sweep", "cli.cmd_pac_sweep", None),
    ("epilink.cli", "cmd_weak_observability", "cli.cmd_weak_observability", None),
    ("epilink.cli", "pac_sweep", "cli.pac_sweep", None),
)

# Functions whose arguments the wrapper rewrites before the call.
_PREPARE = {"oracles.ebacc": "_count_predicate"}


def _wrapper(tracer: Tracer, name: str, fn, counter: str | None):
    after = getattr(tracer, counter) if counter else None
    prepare = getattr(tracer, _PREPARE[name]) if name in _PREPARE else None

    def traced(*args, **kwargs):
        if prepare:
            args, kwargs = prepare(args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after:
            after(args, kwargs, result)
        return result

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced epilink function through ``tracer`` for the block."""
    modules = [m for n, m in list(sys.modules.items()) if n == "epilink" or n.startswith("epilink.")]
    undo = []
    try:
        for module_name, attribute, name, counter in TRACED:
            owner = sys.modules[module_name]
            if "." in attribute:
                cls_name, attribute = attribute.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attribute]
                setattr(owner, attribute, _wrapper(tracer, name, original, counter))
                undo.append((owner, attribute, original))
                continue
            original = getattr(owner, attribute)
            wrapped = _wrapper(tracer, name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
