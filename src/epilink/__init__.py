"""Epistasis detection, epistatic-graph decomposition, and partial
enumeration for small pseudo-Boolean maximization problems."""

from .model import (
    Assignment,
    AssumptionViolationError,
    ConstrainedOptima,
    EnumerationCapError,
    constrained_optima,
    global_optimum,
    psi_at,
)
from .problems import FitnessProblem, ProblemSpecError, make_problem

__all__ = [
    "Assignment",
    "AssumptionViolationError",
    "ConstrainedOptima",
    "EnumerationCapError",
    "FitnessProblem",
    "ProblemSpecError",
    "constrained_optima",
    "global_optimum",
    "make_problem",
    "psi_at",
]
