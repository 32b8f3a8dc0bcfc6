"""Reference computations the benchmark checks epilink's outputs against.

Nothing here imports epilink.  Every fitness formula is written out again
from the benchmark definitions, and every answer is found by brute force
over the whole search space or by a closed form.  Fitness values are kept
doubled (``2 * f``) as int64, so half-integer lookup tables stay exact.

Chromosome index convention: locus 0 is the most significant bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spec:
    """A benchmark problem as the benchmark itself understands it."""

    kind: str  # onemax | leadingones | ctrap | cyctrap | leadingtraps | lookup-table
    size: int
    values: tuple[int, ...] | None = None  # doubled lookup-table values

    def cli_args(self) -> list[str]:
        if self.kind in ("onemax", "leadingones"):
            return ["--kind", self.kind, "--l", str(self.size)]
        if self.kind == "cyctrap":
            return ["--kind", self.kind, "--m", str(self.size // 3)]
        if self.kind in ("ctrap", "leadingtraps"):
            return ["--kind", self.kind, "--m", str(self.size // 4)]
        raise ValueError(f"{self.kind} needs a spec file")

    def spec_json(self) -> dict:
        if self.kind != "lookup-table":
            raise ValueError(f"{self.kind} is given inline")
        return {"kind": "lookup-table", "table": [v / 2 for v in self.values]}


def random_lookup(size: int, rng: np.random.Generator) -> Spec:
    """A lookup table whose 2^size half-integer values are all distinct."""
    return Spec("lookup-table", size, tuple(int(v) for v in rng.permutation(2 ** size)))


def bit(idx: np.ndarray, size: int, v: int) -> np.ndarray:
    return (idx >> (size - 1 - v)) & 1


def _trap(u: np.ndarray) -> np.ndarray:
    return np.where(u == 4, 4, 3 - u)


def doubled_fitness(spec: Spec, idx: np.ndarray) -> np.ndarray:
    """2 * fitness of the chromosomes with the given packed indices."""
    idx = np.asarray(idx, dtype=np.int64)
    l = spec.size
    if spec.kind == "lookup-table":
        return np.asarray(spec.values, dtype=np.int64)[idx]
    if spec.kind == "onemax":
        return 2 * sum(bit(idx, l, v) for v in range(l))
    if spec.kind == "leadingones":
        run = np.ones_like(idx)
        total = np.zeros_like(idx)
        for v in range(l):
            run = run & bit(idx, l, v)
            total += run
        return 2 * total
    if spec.kind == "cyctrap":
        blocks = [[(3 * i + j) % l for j in range(4)] for i in range(l // 3)]
    else:
        blocks = [[4 * i + j for j in range(4)] for i in range(l // 4)]
    traps = [_trap(sum(bit(idx, l, v) for v in b)) for b in blocks]
    if spec.kind == "leadingtraps":
        total = np.zeros_like(idx)
        alive = np.ones_like(idx)
        for t in traps:
            total += alive * t
            alive = alive & (t == 4)
        return 2 * total
    return 2 * sum(traps)


def full_table(spec: Spec) -> np.ndarray:
    return doubled_fitness(spec, np.arange(2 ** spec.size, dtype=np.int64))


def closed_form_optimum(spec: Spec) -> tuple[tuple[int, ...], int]:
    """The unique optimum and its doubled fitness, without enumeration
    except for a lookup table, whose closed form is the argmax of its list."""
    l = spec.size
    if spec.kind == "lookup-table":
        best = int(np.argmax(spec.values))
        return tuple(int(b) for b in bit(np.int64(best), l, np.arange(l))), spec.values[best]
    blocks = {"cyctrap": l // 3, "ctrap": l // 4, "leadingtraps": l // 4}
    top = 4 * blocks[spec.kind] if spec.kind in blocks else l
    return (1,) * l, 2 * top


def pack(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def order1_edges(spec: Spec, table: np.ndarray | None = None) -> set[tuple[int, int, str]]:
    """Brute-force order-1 classification of every ordered locus pair.

    Fix u to its non-optimal allele, find every maximizer over the other
    loci, and read which alleles of v occur among them.
    """
    l = spec.size
    table = full_table(spec) if table is None else table
    g, _ = closed_form_optimum(spec)
    tensor = table.reshape((2,) * l)
    edges = set()
    for u in range(l):
        sub = tensor.take(1 - g[u], axis=u).ravel()
        ties = np.flatnonzero(sub == sub.max())
        has_one = int(np.bitwise_or.reduce(ties))
        all_one = int(np.bitwise_and.reduce(ties))
        for v in range(l):
            if v == u:
                continue
            shift = l - 2 - (v if v < u else v - 1)
            alleles = set()
            if (has_one >> shift) & 1:
                alleles.add(1)
            if not (all_one >> shift) & 1:
                alleles.add(0)
            if alleles == {1 - g[v]}:
                edges.add((u, v, "strict"))
            elif alleles != {g[v]}:
                edges.add((u, v, "nonstrict"))
    return edges


def sccs(size: int, edges) -> list[frozenset[int]]:
    """Strongly connected components by transitive closure (small graphs)."""
    reach = np.eye(size, dtype=bool)
    for u, v, *_ in edges:
        reach[u, v] = True
    for k in range(size):
        reach |= reach[:, [k]] & reach[[k], :]
    mutual = reach & reach.T
    return list({frozenset(np.flatnonzero(mutual[v]).tolist()) for v in range(size)})


def difficulty(size: int, edges) -> int:
    """max(largest SCC, largest in-degree + 1) of an epistatic graph."""
    indeg = [0] * size
    for _, v in {(e[0], e[1]) for e in edges}:
        indeg[v] += 1
    return max(max(len(c) for c in sccs(size, edges)), max(indeg) + 1)


def pe_evaluations(partition) -> int:
    """Counted cost of partial enumeration over an ordered partition."""
    return 1 + sum(2 ** len(b) for b in partition)


def pac_threshold(k: int, size: int, delta: float) -> int:
    """Sufficient IPE population size 2^(k^2+k^3) (ln l + ln 1/delta)."""
    return math.ceil(2 ** (k * k + k ** 3) * (math.log(size) + math.log(1 / delta)))


def reference_ipe(spec: Spec, n: int, seed: int, table: np.ndarray | None = None) -> dict:
    """Plain sequential iterative partial enumeration on packed indices.

    Subsets of the unassigned loci are tried one at a time in lexicographic
    order, smallest first.  A subset is accepted when one pattern strictly
    beats every other pattern in every chromosome; it is then frozen into
    the whole population and the subset size goes back to 1.  Each tested
    subset costs n * 2^k counted evaluations.  The population is drawn the
    way the program draws it, so the same seed gives the same population.
    """
    l = spec.size
    table = full_table(spec) if table is None else table
    rng = np.random.default_rng(seed)
    population = rng.integers(0, 2, size=(n, l), dtype=np.uint8)
    idx = population.astype(np.int64) @ (1 << np.arange(l - 1, -1, -1, dtype=np.int64))
    unassigned = list(range(l))
    steps = []
    evaluations = 0
    k = 1
    while k <= len(unassigned):
        accepted = False
        for S in itertools.combinations(unassigned, k):
            mask = sum(1 << (l - 1 - v) for v in S)
            offsets = np.array(
                [sum(((p >> (k - 1 - j)) & 1) << (l - 1 - v) for j, v in enumerate(S))
                 for p in range(2 ** k)],
                dtype=np.int64,
            )
            fits = table[(idx & ~mask)[:, None] + offsets[None, :]]
            evaluations += n * 2 ** k
            best = fits.max(axis=1)
            if ((fits == best[:, None]).sum(axis=1) != 1).any():
                continue
            winners = fits.argmax(axis=1)
            if (winners != winners[0]).any():
                continue
            w = int(winners[0])
            idx = (idx & ~mask) | offsets[w]
            unassigned = [v for v in unassigned if v not in S]
            steps.append({
                "step": len(steps),
                "S": list(S),
                "assignment": {str(v): (w >> (k - 1 - j)) & 1 for j, v in enumerate(S)},
                "k": k,
                "cumulative_evaluations": evaluations,
            })
            accepted = True
            break
        if not accepted:
            k += 1
        elif not unassigned:
            chromosome = "".join(str(int(b)) for b in bit(idx[0], l, np.arange(l)))
            return {"steps": steps, "outcome": chromosome, "evaluations": evaluations}
        else:
            k = 1
    return {"steps": steps, "outcome": "failure", "evaluations": evaluations}


def observability(block_size: int, population: int) -> float:
    """Chance that an all-zeros pattern on b loci occurs in n uniform chromosomes."""
    return 1.0 - (1.0 - 0.5 ** block_size) ** population
