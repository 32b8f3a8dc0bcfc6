"""Epistasis detection, epistatic-graph decomposition, and partial
enumeration for small pseudo-Boolean maximization problems.

This module loads no numpy.  It holds what the command line needs before
it builds a problem: the enumeration cap, the three error classes whose
exit codes the CLI reports, the problem kind names and the theorem names.
``model``, ``problems`` and ``oracles`` import them from here.  The other
names below are loaded on first use (PEP 562), so ``import epilink`` and
``import epilink.cli`` import no numpy; a command loads it with the first
module it needs."""

from __future__ import annotations

import importlib
from typing import Sequence

#: Maximum number of completions an exhaustive scan may enumerate before
#: refusing.  Overridable per call.
DEFAULT_CAP = 2 ** 24

#: The problem kinds, in ``list-problems`` order; ``problems.KINDS`` pairs
#: each with its builder.
KIND_NAMES = (
    "onemax",
    "leadingones",
    "ctrap",
    "cyctrap",
    "cniah",
    "leadingtraps",
    "onemax-prime-blocks",
    "lookup-table",
)

#: The theorems ``oracles.verify`` checks, in report order.
THEOREMS = ("decomposition", "blanket", "clique")


class ProblemSpecError(ValueError):
    """Malformed problem specification."""


class EnumerationCapError(RuntimeError):
    """Raised instead of silently running an exponential enumeration."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"exhaustive enumeration needs {required} completions, "
            f"which exceeds the cap of {cap}"
        )
        self.required = required
        self.cap = cap


class AssumptionViolationError(RuntimeError):
    """The problem breaks the unique-global-optimum assumption."""

    def __init__(self, message: str, tied: Sequence[tuple[int, ...]] = ()):
        super().__init__(message)
        self.tied = tuple(tied)


# name -> submodule that defines it
_EXPORTS = {
    "Assignment": "model",
    "ConstrainedOptima": "model",
    "FitnessProblem": "problems",
    "constrained_optima": "model",
    "global_optimum": "model",
    "make_problem": "problems",
    "psi_at": "model",
}

__all__ = ["AssumptionViolationError", "EnumerationCapError", "ProblemSpecError", *_EXPORTS]


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
