"""Epistasis detection, epistatic-graph decomposition, and partial
enumeration for small pseudo-Boolean maximization problems.

The names below are loaded on first use (PEP 562), so ``import epilink``
and ``import epilink.cli`` import no numpy before ``cli`` has set its
defaults."""

import importlib

# name -> submodule that defines it
_EXPORTS = {
    "Assignment": "model",
    "AssumptionViolationError": "model",
    "ConstrainedOptima": "model",
    "EnumerationCapError": "model",
    "FitnessProblem": "problems",
    "ProblemSpecError": "problems",
    "constrained_optima": "model",
    "global_optimum": "model",
    "make_problem": "problems",
    "psi_at": "model",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Not cached in the package namespace: each lookup reads the submodule's
    # current binding, so a function patched there is seen here too.
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{submodule}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
