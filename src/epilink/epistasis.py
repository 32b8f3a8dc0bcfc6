"""Detection and classification of epistatic relations.

A set of loci S is epistatic to a locus v when, for every member s of S,
some assignment on S changes the constrained-optimal allele set at v
relative to the same assignment with s dropped (so hitchhikers are
excluded).  Order-1 relations are further split into strict and
non-strict; a higher-order relation is weak when no proper subset of S
is epistatic to v.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator

import numpy as np

from .model import (
    DEFAULT_CAP,
    EMPTY,
    Assignment,
    OptimaGrid,
    check_loci,
    global_optimum,
    optima_grid,
)


class EpistasisKind(enum.Enum):
    NONE = "none"
    STRICT = "strict"
    NONSTRICT = "nonstrict"


def order1_kind(code: int, optimal: int) -> EpistasisKind:
    """The order-1 kind from u to v, given ``code``, v's ``OptimaGrid``
    allele code with u set wrong, and ``optimal``, v's globally optimal allele."""
    if code == 1 << optimal:
        return EpistasisKind.NONE
    if code == 1 << (1 - optimal):
        return EpistasisKind.STRICT
    return EpistasisKind.NONSTRICT


def order1(problem, u: int, v: int, cap: int = DEFAULT_CAP) -> EpistasisKind:
    """Classify the order-1 relation from u to v.

    Only the complement assignment at u needs enumeration: constraining u
    to its globally optimal allele provably leaves v optimal.
    """
    check_loci(problem.size, (u, v))
    if u == v:
        raise ValueError("order-1 epistasis needs two distinct loci")
    g = global_optimum(problem, cap)
    grid = optima_grid(problem, Assignment(((u, 1 - g[u]),)), (), cap)
    return order1_kind(int(grid.alleles((v,))[0, 0]), g[v])


def _first_witnesses(grid: OptimaGrid) -> np.ndarray:
    """Entry [i, v]: the first row of ``grid``, the optima grid over the
    loci S, whose optima at v change when S[i] is dropped, or -1 if none
    (always for v in S).

    The optima without S[i] come from the same grid: per pattern on the
    other loci, those of the fitter allele at S[i], or of both on a tie.
    """
    k = len(grid.loci)
    targets = grid.free
    codes = grid.alleles(targets).reshape((2,) * k + (-1,))
    fitness = grid.fitness.reshape((2,) * k + (1,))
    out = np.full((k, k + len(targets)), -1)
    for i in range(k):
        f0, f1 = np.take(fitness, 0, axis=i), np.take(fitness, 1, axis=i)
        c0, c1 = np.take(codes, 0, axis=i), np.take(codes, 1, axis=i)
        # the optima without S[i], broadcast along S[i]'s axis
        sub = np.where(f0 >= f1, c0, 0) | np.where(f1 >= f0, c1, 0)
        changed = (codes != np.expand_dims(sub, i)).reshape(2 ** k, -1)
        out[i, list(targets)] = np.where(changed.any(axis=0), changed.argmax(axis=0), -1)
    return out


def epistatic(problem, S: Iterable[int], v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether S is |S|-epistatic to v (every member has a witness assignment)."""
    S = frozenset(S)
    check_loci(problem.size, (v,))  # an empty S reaches no scan
    if v in S:
        raise ValueError("the target locus may not belong to S")
    return bool(S) and witnesses(problem, S, v, cap) is not None


def witnesses(problem, S: Iterable[int], v: int, cap: int = DEFAULT_CAP) -> dict[int, Assignment] | None:
    """Per-member witness assignments, or None if S is not epistatic to v."""
    check_loci(problem.size, (v,))  # the grid refuses S's loci
    grid = optima_grid(problem, EMPTY, S, cap)
    rows = _first_witnesses(grid)[:, v]
    if (rows < 0).any():
        return None
    return {s: grid.pattern(r) for s, r in zip(grid.loci, rows)}


def epistatic_targets(problem, max_order: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[tuple, set[int]]]:
    """Yield (S, every v that S is epistatic to) for each S of 1 to
    ``max_order`` loci, smaller sets first, lexicographic within a size."""
    for order in range(1, max_order + 1):
        for S in itertools.combinations(range(problem.size), order):
            witnessed = (_first_witnesses(optima_grid(problem, EMPTY, S, cap)) >= 0).all(axis=0)
            yield S, {int(v) for v in np.flatnonzero(witnessed)}


def find_weak_epistases(problem, max_order: int = 4, cap: int = DEFAULT_CAP) -> list[tuple[frozenset[int], int]]:
    """All weak epistases (S, v) with 2 <= |S| <= max_order.

    The audit is order-bounded because the full scan is exponential; use
    it to vet the no-weak-epistasis premise of the decomposition
    theorems.
    """
    targets: dict[tuple[int, ...], set[int]] = {}
    found: list[tuple[frozenset[int], int]] = []
    for S, hit in epistatic_targets(problem, max_order, cap):
        targets[S] = hit
        if len(S) < 2:
            continue
        proper = (targets[T] for size in range(1, len(S)) for T in itertools.combinations(S, size))
        for v in sorted(hit.difference(*proper)):  # weak: no proper subset is epistatic to v
            found.append((frozenset(S), v))
    return found
