"""Combinatorial structures: graphs, hypergraphs, and graph-theoretic predicates.

Vertices are dense integer indices ``0..vertex_count-1``; any external labels
belong to the file layer. All types are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import InvalidInputError

logger = logging.getLogger(__name__)

Edge = tuple[int, int]


def _as_vertex(u, vertex_count: int) -> int:
    try:
        v = operator.index(u)
    except TypeError:
        raise InvalidInputError(f"vertex {u!r} is not an integer") from None
    if not 0 <= v < vertex_count:
        raise InvalidInputError(f"vertex {v} out of range [0, {vertex_count})")
    return v


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..vertex_count-1``.

    Edges are stored as a frozenset of sorted pairs; no self-loops.
    """

    vertex_count: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InvalidInputError("vertex_count must be positive")
        for e in self.edges:
            u, w = e
            _as_vertex(u, self.vertex_count)
            _as_vertex(w, self.vertex_count)
            if u == w:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if u > w:
                raise InvalidInputError(f"edge {e} not in canonical (u < w) order")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Iterable[int]]) -> Graph:
        """Build a graph, normalizing edge order and dropping duplicates."""
        canonical = set()
        for e in edges:
            u, w = (_as_vertex(x, vertex_count) for x in e)
            if u == w:
                raise InvalidInputError(f"self-loop at vertex {u}")
            canonical.add((min(u, w), max(u, w)))
        return cls(vertex_count, frozenset(canonical))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, w in self.edges:
            nbrs[u].append(w)
            nbrs[w].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, w: int) -> bool:
        return (min(u, w), max(u, w)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph on vertices ``0..vertex_count-1`` with an ordered hyperedge list."""

    vertex_count: int
    hyperedges: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InvalidInputError("vertex_count must be positive")
        for h in self.hyperedges:
            if len(h) == 0:
                raise InvalidInputError("empty hyperedge")
            for u in h:
                _as_vertex(u, self.vertex_count)

    @classmethod
    def from_hyperedges(
        cls, vertex_count: int, hyperedges: Iterable[Iterable[int]]
    ) -> Hypergraph:
        """Build a hypergraph, deduplicating members and repeated hyperedges.

        Deduplication is logged rather than treated as an error; it does not
        change any rigidity semantics.
        """
        seen: set[frozenset[int]] = set()
        kept: list[frozenset[int]] = []
        dropped = 0
        for raw in hyperedges:
            members = [_as_vertex(u, vertex_count) for u in raw]
            h = frozenset(members)
            if len(h) < len(members):
                logger.debug("dropping repeated vertices inside hyperedge %s", members)
            if h in seen:
                dropped += 1
                continue
            seen.add(h)
            kept.append(h)
        if dropped:
            logger.info("normalization removed %d duplicate hyperedges", dropped)
        return cls(vertex_count, tuple(kept))

    def sorted_hyperedges(self) -> list[list[int]]:
        return [sorted(h) for h in self.hyperedges]


def as_hypergraph(structure: Graph | Hypergraph) -> Hypergraph:
    """View a graph as its 2-hypergraph; hypergraphs pass through unchanged."""
    if isinstance(structure, Hypergraph):
        return structure
    return Hypergraph(
        structure.vertex_count,
        tuple(frozenset(e) for e in structure.sorted_edges()),
    )


def body_graph(theta: Hypergraph) -> Graph:
    """Graph with an edge for every pair of vertices sharing a hyperedge."""
    edges = set()
    for h in theta.hyperedges:
        for u, w in itertools.combinations(sorted(h), 2):
            edges.add((u, w))
    return Graph(theta.vertex_count, frozenset(edges))


def neighborhood_hypergraph(gamma: Graph) -> Hypergraph:
    """One hyperedge per vertex: the vertex together with its neighbors."""
    hyperedges = tuple(
        frozenset((v,) + gamma.neighbors(v)) for v in range(gamma.vertex_count)
    )
    return Hypergraph(gamma.vertex_count, hyperedges)


def squared_graph(gamma: Graph) -> Graph:
    """The input graph plus an edge between any two vertices sharing a neighbor."""
    edges = set(gamma.edges)
    for v in range(gamma.vertex_count):
        for u, w in itertools.combinations(gamma.neighbors(v), 2):
            edges.add((u, w))
    return Graph(gamma.vertex_count, frozenset(edges))


def truncate_hyperedges(theta: Hypergraph, k: int) -> Hypergraph:
    """All distinct k-subsets contained in at least one hyperedge.

    Hyperedges with fewer than k vertices contribute nothing.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    seen: set[frozenset[int]] = set()
    kept: list[frozenset[int]] = []
    for h in theta.hyperedges:
        for sub in itertools.combinations(sorted(h), k):
            s = frozenset(sub)
            if s not in seen:
                seen.add(s)
                kept.append(s)
    return Hypergraph(theta.vertex_count, tuple(kept))


def _split_network(gamma: Graph) -> tuple[list[list[int]], list[int]]:
    """Unit-capacity vertex-split network of ``gamma``.

    Vertex x becomes x_in = 2x and x_out = 2x+1 joined by an arc; each edge
    {u, w} gives arcs u_out -> w_in and w_out -> u_in. Returns the arcs
    leaving each node and the target of each arc. Arc ``a`` is forward for
    even ``a`` and its reverse (capacity 0 in the template) is ``a ^ 1``.
    """
    arcs = [(2 * x, 2 * x + 1) for x in range(gamma.vertex_count)]
    for u, w in gamma.edges:
        arcs += [(2 * u + 1, 2 * w), (2 * w + 1, 2 * u)]
    head: list[list[int]] = [[] for _ in range(2 * gamma.vertex_count)]
    target: list[int] = []
    for u, w in arcs:
        head[u].append(len(target))
        target.append(w)
        head[w].append(len(target))
        target.append(u)
    return head, target


def _has_disjoint_paths(
    head: list[list[int]], target: list[int], s: int, t: int, k: int
) -> bool:
    """Whether k internally vertex-disjoint s-t paths exist (s, t non-adjacent)."""
    cap = [1, 0] * (len(target) // 2)
    source, sink = 2 * s + 1, 2 * t
    for _ in range(k):
        parent = [-1] * len(head)  # arc that reached each node; -1: unreached
        parent[source] = len(target)  # reached, by no arc
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for a in head[u]:
                w = target[a]
                if cap[a] and parent[w] < 0:
                    parent[w] = a
                    if w == sink:
                        break
                    queue.append(w)
        if parent[sink] < 0:
            return False
        w = sink
        while w != source:
            a = parent[w]
            cap[a] -= 1
            cap[a ^ 1] += 1
            w = target[a ^ 1]
    return True


def is_k_vertex_connected(gamma: Graph, k: int) -> bool:
    """Exact k-vertex-connectivity by Menger's theorem on the split network.

    True iff the graph has more than k vertices and no vertex cut of size
    below k; complete graphs count as k-connected for all k < n. Graphs with
    at most k vertices are reported not k-connected (the standard convention).

    The vertex-split network is built once per call. Each checked pair of
    non-adjacent vertices resets its unit capacities and runs at most k
    breadth-first augmenting-path searches (Even, SIAM J. Comput. 1975), so
    the cost is O(k * |E|) per pair and there is no recursion.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    n = gamma.vertex_count
    if n <= k:
        return False
    degrees = [gamma.degree(v) for v in range(n)]
    if min(degrees) < k:
        # A vertex with degree < k and a non-neighbor is cut off by its
        # neighborhood; with n > k no vertex can be adjacent to all others
        # while having degree < k.
        return False
    head, target = _split_network(gamma)
    # Any minimum cut either avoids the pivot (then it separates the pivot
    # from some non-neighbor) or contains it (then it separates two
    # non-adjacent neighbors of the pivot).
    pivot = min(range(n), key=lambda v: (degrees[v], v))
    pivot_nbrs = gamma.neighbors(pivot)
    for w in range(n):
        if w == pivot or gamma.has_edge(pivot, w):
            continue
        if not _has_disjoint_paths(head, target, pivot, w, k):
            return False
    for x, y in itertools.combinations(pivot_nbrs, 2):
        if gamma.has_edge(x, y):
            continue
        if not _has_disjoint_paths(head, target, x, y, k):
            return False
    return True


def zha_zhang_condition(theta: Hypergraph, d: int) -> bool:
    """Connectivity of hyperedges under the relation "share at least d+1 vertices".

    The overlap-chain condition of Zha and Zhang (SIAM Review 2009), decided
    by union-find without comparing all pairs of hyperedges. Each hyperedge
    h finds its partners by the cheaper of two exact routes, chosen from its
    own sizes: it registers each of its C(|h|, d+1) sorted (d+1)-subsets in
    a dict, joining whichever hyperedge registered the subset first; or it
    counts, through a vertex -> hyperedge incidence list, how many vertices
    it shares with every hyperedge it meets, at a cost of the sum of
    |inc(u)| over its vertices u, and joins those that reach d+1. Two
    subset-registering hyperedges sharing d+1 vertices share a key; in every
    other partnership the counting side finds the other one. The total cost
    is the sum over hyperedges of the cheaper route, near-linear when either
    the hyperedges or the vertex degrees are small.
    """
    if d < 1:
        raise InvalidInputError("d must be positive")
    hyperedges = theta.hyperedges
    if not hyperedges:
        return False
    need = d + 1
    incidence: list[list[int]] = [[] for _ in range(theta.vertex_count)]
    for i, h in enumerate(hyperedges):
        for u in h:
            incidence[u].append(i)
    parent = list(range(len(hyperedges)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    owner: dict[tuple[int, ...], int] = {}
    for i, h in enumerate(hyperedges):
        if len(h) < need:
            continue  # shares fewer than d+1 vertices with anything
        reach = sum(len(incidence[u]) for u in h)
        if math.comb(len(h), need) <= reach:
            for key in itertools.combinations(sorted(h), need):
                j = owner.setdefault(key, i)
                if j != i:
                    join(i, j)
        else:
            shared = Counter(itertools.chain.from_iterable(incidence[u] for u in h))
            for j, count in shared.items():
                if count >= need and j != i:
                    join(i, j)
    root = find(0)
    return all(find(i) == root for i in range(len(hyperedges)))
