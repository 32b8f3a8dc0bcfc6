"""Epistatic graphs, strongly connected components, partitions, and
difficulty measures."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink.graph import (
    EpistaticGraph,
    build_eg,
    components,
    cyctrap_reference_partition,
    decomposition_difficulty,
    in_closure,
    in_set,
    max_epistasis_order,
    to_adjacency,
    to_dot,
    topological_partition,
)
from epilink.problems import LeadingOnes, OneMax, OneMaxPrimeConcat


def edges(*triples):
    return frozenset(triples)


@pytest.fixture(scope="module")
def leadingones5_eg():
    return build_eg(LeadingOnes(5))


class TestBuildEg:
    def test_onemax_edgeless(self):
        G = build_eg(OneMax(6))
        assert G.edges == frozenset()

    def test_leadingones_upper_triangular_nonstrict(self, leadingones5_eg):
        # each locus gates all later loci through ties
        expect = edges(
            *((u, v, "nonstrict") for u in range(5) for v in range(u + 1, 5))
        )
        assert leadingones5_eg.edges == expect

    def test_ctrap_two_strict_cliques(self, ctrap8):
        G = build_eg(ctrap8)
        expect = set()
        for base in (0, 4):
            block = range(base, base + 4)
            expect |= {
                (u, v, "strict") for u, v in itertools.permutations(block, 2)
            }
        assert G.edges == frozenset(expect)

    def test_cniah_two_nonstrict_cliques(self, cniah8):
        G = build_eg(cniah8)
        assert {k for _, _, k in G.edges} == {"nonstrict"}
        assert G.edge_pairs == frozenset(
            (u, v)
            for base in (0, 4)
            for u, v in itertools.permutations(range(base, base + 4), 2)
        )


class TestGraphQueries:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpistaticGraph(3, edges((1, 1, "strict")))
        with pytest.raises(ValueError):
            EpistaticGraph(3, edges((0, 1, "solid")))

    def test_degree_and_neighbors(self, ctrap8):
        G = build_eg(ctrap8)
        assert G.predecessors(5) == frozenset({4, 6, 7})
        assert G.in_degree(5) == 3
        assert G.max_in_degree() == 3
        assert G.has_edge(4, 5) and not G.has_edge(0, 5)

    def test_only_strict(self, ctrap8, cniah8):
        assert build_eg(ctrap8).only_strict()
        assert not build_eg(cniah8).only_strict()


class TestInSets:
    def test_tier0_is_self(self, leadingones5_eg):
        assert in_set(leadingones5_eg, 3, 0) == frozenset({3})

    def test_leadingones_direct_in(self):
        G = build_eg(LeadingOnes(4))
        assert in_set(G, 3, 1) == frozenset({0, 1, 2})

    def test_ctrap_clique_in(self, ctrap8):
        G = build_eg(ctrap8)
        assert in_set(G, 5, 1) == frozenset({4, 6, 7})

    def test_set_overload_union(self, ctrap8):
        G = build_eg(ctrap8)
        assert in_set(G, {1, 5}, 1) == frozenset({0, 2, 3, 4, 6, 7})

    def test_negative_tier_rejected(self, leadingones5_eg):
        with pytest.raises(ValueError):
            in_set(leadingones5_eg, 0, -1)

    def test_in_closure_leadingones(self, leadingones5_eg):
        assert in_closure(leadingones5_eg, 3) == frozenset({0, 1, 2, 3})

    def test_in_closure_ctrap(self, ctrap8):
        G = build_eg(ctrap8)
        assert in_closure(G, 6) == frozenset({4, 5, 6, 7})

    def test_in_closure_isolated(self):
        G = build_eg(OneMax(4))
        assert in_closure(G, 2) == frozenset({2})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 20 - 1), st.integers(0, 4))
    def test_in_closure_matches_reverse_bfs(self, mask, v):
        # random 5-vertex graph, independent reverse breadth-first search
        pairs = list(itertools.permutations(range(5), 2))
        chosen = frozenset(
            (u, w, "strict") for i, (u, w) in enumerate(pairs) if mask >> i & 1
        )
        G = EpistaticGraph(5, chosen)
        seen = {v}
        queue = [v]
        while queue:
            w = queue.pop()
            for u, x in G.edge_pairs:
                if x == w and u not in seen:
                    seen.add(u)
                    queue.append(u)
        assert in_closure(G, v) == frozenset(seen)


class TestComponents:
    def test_ctrap_two_components(self, ctrap8):
        assert components(build_eg(ctrap8)) == (frozenset(range(4)), frozenset(range(4, 8)))

    def test_leadingtraps_ordered_components(self, leadingtraps8):
        # 0 -> 4 joins the blocks one way only; listed by smallest locus
        G = build_eg(leadingtraps8)
        assert G.has_edge(0, 4) and not G.has_edge(4, 0)
        assert components(G) == (frozenset(range(4)), frozenset(range(4, 8)))

    def test_onemax_singletons(self):
        assert components(build_eg(OneMax(4))) == tuple(frozenset({v}) for v in range(4))

    def test_cyctrap_partition(self, cyctrap12):
        flat = sorted(v for c in components(build_eg(cyctrap12)) for v in c)
        assert flat == list(range(12))


@st.composite
def graphs(draw):
    """Random graphs of 1-10 vertices with strict and non-strict edges."""
    size = draw(st.integers(1, 10))
    pairs = list(itertools.permutations(range(size), 2))
    kinds = draw(st.lists(st.sampled_from([None, "strict", "nonstrict"]),
                          min_size=len(pairs), max_size=len(pairs)))
    return EpistaticGraph(size, frozenset(
        (u, v, kind) for (u, v), kind in zip(pairs, kinds) if kind
    ))


def brute_components(G):
    """Mutual reachability from a Floyd-Warshall transitive closure."""
    n = G.size
    reach = [[u == v or G.has_edge(u, v) for v in range(n)] for u in range(n)]
    for w, u, v in itertools.product(range(n), repeat=3):
        reach[u][v] = reach[u][v] or (reach[u][w] and reach[w][v])
    return {frozenset(u for u in range(n) if reach[u][v] and reach[v][u]) for v in range(n)}


def kahn_partition(G, comps):
    """Kahn's sort of the components, the smallest-locus ready one first."""
    comp_of = {v: c for c in comps for v in c}
    succ = {c: {comp_of[v] for u in c for v in range(G.size)
                if G.has_edge(u, v) and comp_of[v] != c} for c in comps}
    indeg = {c: sum(c in succ[b] for b in comps) for c in comps}
    ready = [c for c in comps if indeg[c] == 0]
    order = []
    while ready:
        ready.sort(key=min)
        c = ready.pop(0)
        order.append(c)
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return tuple(order)


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_components_partition_and_difficulty(self, G):
        comps = brute_components(G)
        assert components(G) == tuple(sorted(comps, key=min))
        assert topological_partition(G) == kahn_partition(G, comps)
        in_degree = max(sum(G.has_edge(u, v) for u in range(G.size)) for v in range(G.size))
        assert decomposition_difficulty(G) == max(max(map(len, comps)), in_degree + 1)


class TestTopologicalPartition:
    def test_leadingones_singletons_in_order(self):
        D = topological_partition(build_eg(LeadingOnes(4)))
        assert D == tuple(frozenset({v}) for v in range(4))

    def test_ctrap_tie_break(self, ctrap8):
        D = topological_partition(build_eg(ctrap8))
        assert D == (frozenset(range(4)), frozenset(range(4, 8)))

    def test_fork_tie_break(self, fork):
        D = topological_partition(build_eg(fork))
        assert D == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_no_back_edges(self, leadingtraps8, cyctrap12):
        for p in (leadingtraps8, cyctrap12):
            G = build_eg(p)
            D = topological_partition(G)
            seen = set()
            for block in D:
                later = set(range(G.size)) - seen - set(block)
                assert not any(
                    G.has_edge(u, v) for u in later for v in block
                )
                seen |= block


class TestDifficulty:
    def test_onemax_is_one(self):
        assert decomposition_difficulty(build_eg(OneMax(6))) == 1

    def test_ctrap_is_four(self, ctrap8):
        assert decomposition_difficulty(build_eg(ctrap8)) == 4

    def test_leadingones_is_size(self):
        assert decomposition_difficulty(build_eg(LeadingOnes(5))) == 5


class TestMaxEpistasisOrder:
    def test_onemax_zero(self):
        assert max_epistasis_order(OneMax(5), 3) == 0

    def test_ctrap_three(self, ctrap8):
        assert max_epistasis_order(ctrap8, 4) == 3

    def test_onemax_prime_block_two(self):
        assert max_epistasis_order(OneMaxPrimeConcat([3]), 3) == 2


class TestFixturePartition:
    def test_twelve_locus_shape(self):
        assert cyctrap_reference_partition(12) == (
            frozenset(range(10)),
            frozenset({10, 11}),
        )

    def test_fifteen_locus_shape(self):
        assert cyctrap_reference_partition(15) == (
            frozenset(range(10)),
            frozenset({10, 11, 12}),
            frozenset({13, 14}),
        )

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            cyctrap_reference_partition(9)
        with pytest.raises(ValueError):
            cyctrap_reference_partition(13)


class TestExports:
    def test_dot_styles(self, leadingtraps8):
        dot = to_dot(build_eg(leadingtraps8))
        assert "digraph" in dot
        assert "0 -> 1 [style=solid];" in dot
        assert "0 -> 4 [style=dashed];" in dot

    def test_adjacency(self, ctrap8):
        payload = to_adjacency(build_eg(ctrap8))
        assert payload["size"] == 8
        assert {"from": 0, "to": 1, "kind": "strict"} in payload["edges"]
        assert len(payload["edges"]) == 24
