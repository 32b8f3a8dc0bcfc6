"""Epistatic graphs, condensation, partitions, and difficulty measures."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epilink.graph import (
    EpistaticGraph,
    build_eg,
    condense,
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
        assert G.successors(5) == frozenset({4, 6, 7})
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


class TestCondense:
    def test_ctrap_two_components_no_edges(self, ctrap8):
        cg = condense(build_eg(ctrap8))
        assert set(cg.components) == {frozenset(range(4)), frozenset(range(4, 8))}
        assert cg.edges == frozenset()

    def test_leadingtraps_ordered_components(self, leadingtraps8):
        cg = condense(build_eg(leadingtraps8))
        blocks = {frozenset(range(4)), frozenset(range(4, 8))}
        assert set(cg.components) == blocks
        index = {v: c for c, comp in enumerate(cg.components) for v in comp}
        assert cg.edges == frozenset({(index[0], index[4])})

    def test_onemax_singletons(self):
        cg = condense(build_eg(OneMax(4)))
        assert set(cg.components) == {frozenset({v}) for v in range(4)}
        assert cg.edges == frozenset()

    def test_acyclic_and_partition(self, cyctrap12):
        G = build_eg(cyctrap12)
        cg = condense(G)
        flat = sorted(v for c in cg.components for v in c)
        assert flat == list(range(12))
        # DAG check: repeatedly strip sinks
        remaining = set(range(len(cg.components)))
        live = set(cg.edges)
        while remaining:
            sinks = {i for i in remaining if not any(a == i for a, _ in live)}
            assert sinks, "condensation contains a cycle"
            remaining -= sinks
            live = {(a, b) for a, b in live if a not in sinks and b not in sinks}


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
