import inspect
import itertools
import sys
import time

import numpy as np
import pytest

from affrig.errors import InvalidInputError
from affrig.families import cycle_graph, hexagonal_torus
from affrig.hypergraph import (
    Graph,
    Hypergraph,
    as_hypergraph,
    body_graph,
    is_k_vertex_connected,
    neighborhood_hypergraph,
    squared_graph,
    truncate_hyperedges,
    zha_zhang_condition,
)

# Two running examples used across the suite: a 6-vertex hypergraph with
# hyperedges {0,1,5}, {1,2,4}, {4,5}, {3,4}, and the 6-vertex graph whose
# neighborhood hypergraph is instructive for d = 2.
FIG_HYPERGRAPH = Hypergraph.from_hyperedges(6, [[0, 1, 5], [1, 2, 4], [4, 5], [3, 4]])
FIG_GRAPH = Graph.from_edges(
    6, [(0, 1), (0, 5), (1, 2), (1, 5), (2, 4), (3, 4), (4, 5)]
)


def random_graph(rng, n, p):
    edges = [
        (u, w) for u, w in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def connected_after_removal(graph, removed):
    alive = [v for v in range(graph.vertex_count) if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def circular_ladder(rungs):
    """Two cycles of the given length joined by a rung at every position."""
    ring = [(i, (i + 1) % rungs) for i in range(rungs)]
    return Graph.from_edges(2 * rungs, ring + [(u + rungs, w + rungs) for u, w in ring]
                            + [(i, i + rungs) for i in range(rungs)])


def brute_force_k_connected(graph, k):
    n = graph.vertex_count
    if n <= k:
        return False
    for size in range(k):
        for cut in itertools.combinations(range(n), size):
            if not connected_after_removal(graph, set(cut)):
                return False
    return True


class TestConstruction:
    def test_graph_normalizes_edge_order(self):
        g = Graph.from_edges(4, [(3, 1), (1, 3), (0, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 3)]

    def test_graph_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Graph.from_edges(3, [(1, 1)])

    def test_graph_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph.from_edges(3, [(0, 3)])

    def test_graph_rejects_nonpositive_vertex_count(self):
        with pytest.raises(InvalidInputError):
            Graph.from_edges(0, [])

    def test_hypergraph_deduplicates(self):
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 1], [1, 0], [0, 1]])
        assert theta.sorted_hyperedges() == [[0, 1]]

    def test_hypergraph_keeps_singletons(self):
        theta = Hypergraph.from_hyperedges(3, [[2]])
        assert theta.sorted_hyperedges() == [[2]]

    def test_hypergraph_rejects_empty_hyperedge(self):
        with pytest.raises(InvalidInputError):
            Hypergraph.from_hyperedges(3, [[]])

    def test_adjacency(self):
        assert FIG_GRAPH.neighbors(1) == (0, 2, 5)
        assert FIG_GRAPH.degree(4) == 3

    def test_as_hypergraph_roundtrip(self):
        theta = as_hypergraph(FIG_GRAPH)
        assert sorted(theta.sorted_hyperedges()) == sorted(
            [list(e) for e in FIG_GRAPH.sorted_edges()]
        )
        assert as_hypergraph(theta) is theta


class TestBodyGraph:
    def test_fig_hypergraph(self):
        body = body_graph(FIG_HYPERGRAPH)
        assert body.sorted_edges() == [
            (0, 1),
            (0, 5),
            (1, 2),
            (1, 4),
            (1, 5),
            (2, 4),
            (3, 4),
            (4, 5),
        ]

    def test_singletons_contribute_nothing(self):
        theta = Hypergraph.from_hyperedges(3, [[0], [1, 2]])
        assert body_graph(theta).sorted_edges() == [(1, 2)]

    def test_matches_pair_truncation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            hyperedges = [
                sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                for _ in range(int(rng.integers(1, 6)))
            ]
            theta = Hypergraph.from_hyperedges(n, hyperedges)
            body = body_graph(theta)
            trunc = truncate_hyperedges(theta, 2)
            assert sorted(map(sorted, trunc.sorted_hyperedges())) == [
                list(e) for e in body.sorted_edges()
            ]


class TestNeighborhoodAndSquare:
    def test_fig_graph_neighborhoods(self):
        nbh = neighborhood_hypergraph(FIG_GRAPH)
        assert nbh.sorted_hyperedges() == [
            [0, 1, 5],
            [0, 1, 2, 5],
            [1, 2, 4],
            [3, 4],
            [2, 3, 4, 5],
            [0, 1, 4, 5],
        ]

    def test_body_of_neighborhood_is_square(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, rng.uniform(0.1, 0.7))
            assert body_graph(neighborhood_hypergraph(g)).edges == squared_graph(g).edges

    def test_square_adds_two_paths(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sq = squared_graph(path)
        assert sq.sorted_edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


class TestTruncation:
    def test_small_hyperedges_dropped(self):
        theta = Hypergraph.from_hyperedges(5, [[0, 1], [2, 3, 4]])
        assert truncate_hyperedges(theta, 3).sorted_hyperedges() == [[2, 3, 4]]

    def test_counts_on_complete_hyperedge(self):
        theta = Hypergraph.from_hyperedges(5, [[0, 1, 2, 3, 4]])
        import math

        for k in range(1, 6):
            trunc = truncate_hyperedges(theta, k)
            assert len(trunc.hyperedges) == math.comb(5, k)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidInputError):
            truncate_hyperedges(FIG_HYPERGRAPH, 0)

    def test_input_unchanged(self):
        before = FIG_HYPERGRAPH.sorted_hyperedges()
        truncate_hyperedges(FIG_HYPERGRAPH, 2)
        assert FIG_HYPERGRAPH.sorted_hyperedges() == before


class TestConnectivity:
    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            for k in range(1, 5):
                assert is_k_vertex_connected(g, k) == brute_force_k_connected(g, k), (
                    g.sorted_edges(),
                    k,
                )

    def test_matches_networkx_on_larger_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(9, 41))
            g = random_graph(rng, n, rng.uniform(0.05, 0.5))
            oracle = nx.Graph()
            oracle.add_nodes_from(range(n))
            oracle.add_edges_from(g.edges)
            kappa = nx.node_connectivity(oracle)
            for k in range(1, 5):
                assert is_k_vertex_connected(g, k) == (n > k and kappa >= k), (
                    g.sorted_edges(),
                    k,
                )

    def test_ten_thousand_cycle_in_linear_time(self):
        cycle = cycle_graph(10_000)
        start = time.perf_counter()
        assert is_k_vertex_connected(cycle, 2)
        assert not is_k_vertex_connected(cycle, 3)
        assert time.perf_counter() - start < 1.0

    def test_long_paths_need_no_recursion(self):
        # A depth-first search goes as deep as a long cycle, and the path
        # search down a long circular ladder as deep as the ladder; a
        # recursive search would exceed a recursion limit set just above the
        # current stack depth.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            assert is_k_vertex_connected(cycle_graph(300), 2)
            assert is_k_vertex_connected(circular_ladder(5000), 3)
        finally:
            sys.setrecursionlimit(limit)

    def test_torus_three_connected_in_linear_time(self):
        torus = hexagonal_torus(40, 40)
        start = time.perf_counter()
        assert is_k_vertex_connected(torus, 3)
        assert time.perf_counter() - start < 1.0

    def test_tori_glued_on_two_vertices_in_linear_time(self):
        torus = hexagonal_torus(20, 20)
        n = torus.vertex_count

        def copy(x):  # the second torus shares vertices 0 and 1
            return x if x < 2 else x + n - 2

        glued = Graph.from_edges(
            2 * n - 2, [*torus.edges, *((copy(u), copy(w)) for u, w in torus.edges)]
        )
        start = time.perf_counter()
        assert is_k_vertex_connected(glued, 2)
        assert not is_k_vertex_connected(glued, 3)
        assert time.perf_counter() - start < 1.0

    def test_complete_graph(self):
        k5 = Graph.from_edges(5, itertools.combinations(range(5), 2))
        assert is_k_vertex_connected(k5, 4)
        assert not is_k_vertex_connected(k5, 5)  # n <= k

    def test_cycle_is_two_connected(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert is_k_vertex_connected(c6, 2)
        assert not is_k_vertex_connected(c6, 3)

    def test_cut_vertex(self):
        # Two triangles sharing vertex 2.
        bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert is_k_vertex_connected(bowtie, 1)
        assert not is_k_vertex_connected(bowtie, 2)

    def test_disconnected_graph(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_k_vertex_connected(g, 1)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidInputError):
            is_k_vertex_connected(FIG_GRAPH, 0)


class TestZhaZhang:
    def test_neighborhoods_of_complete_graph(self):
        # Every closed neighborhood in K5 is the full vertex set, so the
        # pairwise overlap is 5: the walk condition holds exactly for d <= 4.
        k5 = Graph.from_edges(5, itertools.combinations(range(5), 2))
        nbh = neighborhood_hypergraph(k5)
        assert zha_zhang_condition(nbh, 2)
        assert zha_zhang_condition(nbh, 4)
        assert not zha_zhang_condition(nbh, 5)

    def test_overlap_must_exceed_d(self):
        theta = Hypergraph.from_hyperedges(5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        assert zha_zhang_condition(theta, 1)
        assert not zha_zhang_condition(theta, 2)

    def test_single_hyperedge_is_connected(self):
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 2, 3]])
        assert zha_zhang_condition(theta, 3)

    def test_no_hyperedges(self):
        theta = Hypergraph(3, ())
        assert not zha_zhang_condition(theta, 1)

    def test_chain_of_overlaps(self):
        # Components {0,1} and {2} under pairwise-overlap >= 3.
        theta = Hypergraph.from_hyperedges(
            8, [[0, 1, 2, 3], [1, 2, 3, 4], [5, 6, 7]]
        )
        assert not zha_zhang_condition(theta, 2)
        assert zha_zhang_condition(
            Hypergraph.from_hyperedges(5, [[0, 1, 2, 3], [1, 2, 3, 4]]), 2
        )

    @pytest.mark.parametrize("d, holds", [(1, True), (2, False)])
    def test_twenty_thousand_hyperedges(self, d, holds):
        # N(H(100,100)): 20 000 hyperedges; an all-pairs search compares
        # 2e8 pairs here.
        nbh = neighborhood_hypergraph(hexagonal_torus(100, 100))
        started = time.perf_counter()
        assert zha_zhang_condition(nbh, d) == holds
        assert time.perf_counter() - started < 2.0
