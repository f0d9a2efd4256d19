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


def _k_connected_by_flows(gamma: Graph, k: int) -> bool:
    """Menger's theorem on the vertex-split network, for ``gamma`` with more
    than k vertices.

    Vertex x becomes x_in = 2x and x_out = 2x+1 joined by a unit arc; each
    edge {u, w} gives unit arcs u_out -> w_in and w_out -> u_in. The network
    is built once; each checked pair of non-adjacent vertices resets its
    capacities and runs at most k breadth-first augmenting-path searches
    (Even, SIAM J. Comput. 1975), O(k * |E|) per pair, without recursion.
    Any minimum cut either avoids the pivot (then it separates the pivot
    from some non-neighbor) or contains it (then it separates two
    non-adjacent neighbors of the pivot).
    """
    n = gamma.vertex_count
    arcs = [(2 * x, 2 * x + 1) for x in range(n)]
    for u, w in gamma.edges:
        arcs += [(2 * u + 1, 2 * w), (2 * w + 1, 2 * u)]
    # Arc a is forward for even a; its reverse a ^ 1 starts with capacity 0.
    head: list[list[int]] = [[] for _ in range(2 * n)]
    target: list[int] = []
    for u, w in arcs:
        head[u].append(len(target))
        target.append(w)
        head[w].append(len(target))
        target.append(u)

    def has_disjoint_paths(s: int, t: int) -> bool:
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

    pivot = min(range(n), key=lambda v: (gamma.degree(v), v))
    pairs = itertools.chain(
        ((pivot, w) for w in range(n) if w != pivot),
        itertools.combinations(gamma.neighbors(pivot), 2),
    )
    return all(
        gamma.has_edge(s, t) or has_disjoint_paths(s, t) for s, t in pairs
    )


def _connectivity_up_to_three(gamma: Graph) -> int:
    """min(κ, 3) for the vertex connectivity κ of ``gamma``; κ(K_n) = n-1.

    One depth-first search from vertex 0 turns every edge into a tree arc
    to a child or a frond to a proper ancestor. It computes the subtree
    sizes and, in preorder indices, lowpt1(u) and lowpt2(u): the lowest and
    second-lowest of u and the vertices that u's subtree reaches by one
    frond (Hopcroft and Tarjan, CACM 1973). A disconnected graph answers 0.
    A non-root p is a cut vertex iff a child u of p has lowpt1(u) >= p, the
    root iff it has two children; then the answer is 1. A graph with no cut
    vertex but a vertex of degree below three answers that degree.

    Otherwise the graph is tested for separation pairs as in Hopcroft and
    Tarjan's triconnected components (SIAM J. Comput. 1973) with the
    corrections of Gutwenger and Mutzel (GD 2000): the arcs leaving each
    vertex are bucket-sorted by phi, a second search along them numbers the
    vertices so that each subtree is an interval and records, for each
    vertex, the first frond that enters it, and the path search replays that
    traversal with a stack of candidate type-2 pairs. It stops at the first
    type-1 or type-2 pair, before any split: in a simple graph with minimum
    degree three, such a pair is a 2-vertex cut, and a graph without one is
    3-connected. Each step costs O(|V| + |E|) and none recurses.
    """
    n = gamma.vertex_count
    adjacency = gamma.adjacency
    order = [-1] * n  # preorder index; -1: unvisited
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    size = [1] * n  # vertices in the subtree
    fronds: list[Edge] = []
    order[0] = 0
    visited = 1
    root_children = 0
    cut = False
    stack = [(0, iter(adjacency[0]))]
    while stack:
        u, neighbors = stack[-1]
        for w in neighbors:
            if order[w] < 0:
                order[w] = low1[w] = low2[w] = visited
                visited += 1
                parent[w] = u
                stack.append((w, iter(adjacency[w])))
                break
            if order[w] < order[u] and w != parent[u]:
                fronds.append((u, w))
                if order[w] < low1[u]:
                    low1[u], low2[u] = order[w], low1[u]
                elif order[w] > low1[u]:
                    low2[u] = min(low2[u], order[w])
        else:
            stack.pop()
            p = parent[u]
            if p < 0:
                continue
            size[p] += size[u]
            if low1[u] < low1[p]:
                low1[p], low2[p] = low1[u], min(low1[p], low2[u])
            elif low1[u] == low1[p]:
                low2[p] = min(low2[p], low2[u])
            else:
                low2[p] = min(low2[p], low1[u])
            if p == 0:
                root_children += 1
            elif low1[u] >= order[p]:
                cut = True
    if visited < n:
        return 0
    if cut or root_children > 1:
        return 1
    min_degree = min(map(len, adjacency))
    if min_degree < 3:
        return min_degree

    # Arcs leaving each vertex in the order of phi: a tree arc u -> w comes
    # at 3 lowpt1(w), or at 3 lowpt1(w) + 2 if lowpt2(w) >= u, a frond
    # u -> w at 3 w + 1.
    buckets: list[list[Edge]] = [[] for _ in range(3 * n)]
    for u, w in fronds:
        buckets[3 * order[w] + 1].append((u, w))
    for w in range(1, n):
        u = parent[w]
        buckets[3 * low1[w] + 2 * (low2[w] >= order[u])].append((u, w))
    arcs: list[list[int]] = [[] for _ in range(n)]
    for bucket in buckets:
        for u, w in bucket:
            arcs[u].append(w)

    # The second search numbers each vertex u as m - size(u), where m starts
    # at n and drops by one on every return from a child: the children are
    # numbered in reverse arc order, the subtree of w is the interval
    # [w, w + size(w) - 1], and the last child of u is u + 1. A path starts
    # at the first arc and at every arc after a frond. ``events`` records
    # the traversal in the new numbers as (u, w, starts, returned).
    number = [0] * n
    high_at = [-1] * n  # source of the first frond into each vertex
    events = []
    m = n
    starts = True
    stack = [(0, iter(arcs[0]), False)]
    while stack:
        u, out, started = stack[-1]
        for w in out:
            if parent[w] == u:
                number[w] = m - size[w]
                events.append((number[u], number[w], starts, False))
                stack.append((w, iter(arcs[w]), starts))
                starts = False
                break
            if high_at[w] < 0:
                high_at[w] = number[u]
            events.append((number[u], number[w], starts, False))
            starts = True
        else:
            stack.pop()
            if stack:
                m -= 1
                events.append((number[parent[u]], number[u], started, True))
    vertex_at = [0] * n  # preorder index -> vertex
    for u in range(n):
        vertex_at[order[u]] = u
    lowpt1 = [0] * n
    lowpt2 = [0] * n
    last = [0] * n  # highest number in the subtree
    high = [0] * n
    for u in range(n):
        x = number[u]
        lowpt1[x] = number[vertex_at[low1[u]]]
        lowpt2[x] = number[vertex_at[low2[u]]]
        last[x] = x + size[u] - 1
        high[x] = high_at[u]

    # The path search. Each entry (h, a, b) of the stack is a candidate
    # type-2 pair {a, b} whose split component would reach up to vertex h.
    # An end-of-segment entry, pushed when a tree arc starts a path, stops
    # every scan of the stack: its a is below and its h above every vertex.
    # The root is 0 and its only child 1.
    end = (n, -1, -1)
    tstack = [end]
    for u, w, starts, returned in events:
        if returned:
            # Type 2: a candidate {u, b} on top, u not the root. Gutwenger
            # and Mutzel skip it when b is a child of u and treat a w of
            # degree two apart. Neither happens before the first split: only
            # a path from a tree arc b -> x with lowpt1(x) = u pushes such a
            # b, and {u, b} then met the type-1 test on the return to b.
            if u and tstack[-1][1] == u:
                return 2
            # Type 1: {lowpt1(w), u} cuts off the subtree of w, unless u is
            # the root's only child and w its last child: then nothing else
            # is left.
            if lowpt2[w] >= u > lowpt1[w] and (u, w) != (1, 2):
                return 2
            if starts:
                while tstack.pop()[1] >= 0:
                    pass
            while tstack[-1][2] != u and high[u] > tstack[-1][0]:
                tstack.pop()
        elif starts:
            tree = w > u
            a = lowpt1[w] if tree else w
            if tstack[-1][1] > a:
                y = last[w] if tree else -1
                while tstack[-1][1] > a:
                    h, _, b = tstack.pop()
                    y = max(y, h)
                tstack.append((y, a, b))
            else:
                tstack.append((last[w] if tree else u, a, u))
            if tree:
                tstack.append(end)
    return 3


def is_k_vertex_connected(gamma: Graph, k: int) -> bool:
    """Exact k-vertex-connectivity.

    True iff the graph has more than k vertices and no vertex cut of size
    below k; complete graphs count as k-connected for all k < n. Graphs with
    at most k vertices are reported not k-connected (the standard convention).

    For k <= 3, ``_connectivity_up_to_three`` decides in O(|V| + |E|): a
    low-point search for cut vertices, then Hopcroft and Tarjan's path
    search for separation pairs. For k >= 4, ``_k_connected_by_flows``
    checks Menger's theorem with O(|V|) unit-capacity max-flows of
    O(k * |E|) each. Neither route recurses.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    n = gamma.vertex_count
    if n <= k:
        return False
    if min(map(len, gamma.adjacency)) < k:
        # A vertex with degree < k and a non-neighbor is cut off by its
        # neighborhood; with n > k no vertex can be adjacent to all others
        # while having degree < k.
        return False
    if k <= 3:
        return _connectivity_up_to_three(gamma) >= k
    return _k_connected_by_flows(gamma, k)


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
