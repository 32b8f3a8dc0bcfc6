"""Epistatic graphs, their strongly connected components (SCCs), and
topological partitions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import ProblemSpecError
from .model import DEFAULT_CAP, Assignment, global_optimum, optima_grid
from . import epistasis
from .epistasis import EpistasisKind


@dataclass(frozen=True)
class EpistaticGraph:
    """Directed graph on loci; each edge carries a strict/non-strict label."""

    size: int
    edges: frozenset[tuple[int, int, str]]

    def __post_init__(self):
        for u, v, kind in self.edges:
            if u == v:
                raise ValueError(f"self-loop at locus {u}")
            if kind not in ("strict", "nonstrict"):
                raise ValueError(f"bad edge kind {kind!r}")

    @cached_property
    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    @cached_property
    def _predecessors(self) -> dict[int, frozenset[int]]:
        return {v: frozenset(u for u, w in self.edge_pairs if w == v) for v in range(self.size)}

    def predecessors(self, v: int) -> frozenset[int]:
        return self._predecessors.get(v, frozenset())

    def in_degree(self, v: int) -> int:
        return len(self.predecessors(v))

    def max_in_degree(self) -> int:
        return max((self.in_degree(v) for v in range(self.size)), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_pairs

    def only_strict(self) -> bool:
        return all(kind == "strict" for _, _, kind in self.edges)


def build_eg(problem, cap: int = DEFAULT_CAP) -> EpistaticGraph:
    """Classify every ordered locus pair to obtain the epistatic graph: one
    scan per locus u set wrong reads the allele code of every other v."""
    g = global_optimum(problem, cap)
    edges = set()
    for u in range(problem.size):
        grid = optima_grid(problem, Assignment(((u, 1 - g[u]),)), (), cap)
        for v, code in zip(grid.free, grid.alleles(grid.free)[0].tolist()):
            kind = epistasis.order1_kind(code, g[v])
            if kind is not EpistasisKind.NONE:
                edges.add((u, v, kind.value))
    return EpistaticGraph(problem.size, frozenset(edges))


def in_set(G: EpistaticGraph, v_or_set: int | Iterable[int], i: int = 1) -> frozenset[int]:
    """The i-step in-set: tier 0 is the vertex itself, tier 1 its direct
    in-neighbors, tier i the in-neighbors of tier i-1.  Accepts a set of
    vertices (union of their in-sets)."""
    if i < 0:
        raise ValueError("tier index must be >= 0")
    if isinstance(v_or_set, int):
        tier = frozenset((v_or_set,))
    else:
        tier = frozenset(v_or_set)
    for _ in range(i):
        tier = frozenset(u for w in tier for u in G.predecessors(w))
    return tier


def in_closure(G: EpistaticGraph, v: int) -> frozenset[int]:
    """All vertices from which v is reachable, plus v itself (fixpoint)."""
    closure = {v}
    frontier = {v}
    while frontier:
        frontier = {u for w in frontier for u in G.predecessors(w)} - closure
        closure |= frontier
    return frozenset(closure)


def components(G: EpistaticGraph) -> tuple[frozenset[int], ...]:
    """The SCCs, listed by smallest locus: v's component is the set of u in
    v's in-closure whose own in-closure holds v."""
    closures = [in_closure(G, v) for v in range(G.size)]
    return tuple(dict.fromkeys(
        frozenset(u for u in closures[v] if v in closures[u]) for v in range(G.size)
    ))


def topological_partition(G: EpistaticGraph) -> tuple[frozenset[int], ...]:
    """Ordered partition of the loci: SCC blocks in a topological order.

    Each step places the component with the smallest locus among those
    whose direct in-neighbors are all placed or inside it, which makes
    the output deterministic.
    """
    left = list(components(G))
    placed: frozenset[int] = frozenset()
    order = []
    while left:
        block = next(c for c in left if in_set(G, c) <= placed | c)
        left.remove(block)
        placed |= block
        order.append(block)
    return tuple(order)


def decomposition_difficulty(G: EpistaticGraph) -> int:
    """max(largest SCC size, largest in-degree + 1)."""
    k_scc = max(map(len, components(G)), default=0)
    return max(k_scc, G.max_in_degree() + 1)


def max_epistasis_order(problem, bound: int, cap: int = DEFAULT_CAP) -> int:
    """Largest |S| <= bound with some epistasis S => v; 0 when none exists.

    Returns ``bound`` when saturated (an epistasis of exactly the bound
    order exists), so callers should treat that value as ">= bound".
    """
    found = epistasis.epistatic_targets(problem, bound, cap)
    return max((len(S) for S, targets in found if targets), default=0)


def cyctrap_reference_partition(size: int) -> tuple[frozenset[int], ...]:
    """Hard-coded PE partition for the cyclic trap: one 10-locus head block,
    then consecutive blocks of (up to) three loci.

    Deriving such partitions for weak-epistasis problems is out of scope;
    this fixture is brute-force verified in the tests before use.
    """
    if size % 3 != 0 or size < 12:
        raise ProblemSpecError(f"cyclic trap size must be 3m >= 12, got {size}")
    blocks = [frozenset(range(10))]
    pos = 10
    while pos < size:
        blocks.append(frozenset(range(pos, min(pos + 3, size))))
        pos += 3
    return tuple(blocks)


def to_dot(G: EpistaticGraph, name: str = "eg") -> str:
    """DOT export: solid edges for strict epistases, dashed for non-strict."""
    lines = [f"digraph {name} {{"]
    for v in range(G.size):
        lines.append(f"  {v};")
    for u, v, kind in sorted(G.edges):
        style = "solid" if kind == "strict" else "dashed"
        lines.append(f"  {u} -> {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_adjacency(G: EpistaticGraph) -> dict:
    """Structured-text adjacency form of the graph."""
    return {
        "size": G.size,
        "edges": [
            {"from": u, "to": v, "kind": kind} for u, v, kind in sorted(G.edges)
        ],
    }
