"""Property tests: fast routes against the slow routes kept as their oracles."""

import itertools
import sys
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from affrig import formats, numkernel, registration, rigidity  # noqa: E402
from affrig.errors import InvalidInputError, NumericalRankError  # noqa: E402
from affrig.families import (  # noqa: E402
    complete_graph,
    complete_k_hypergraph,
    cycle_graph,
    generic_framework,
    hexagonal_torus,
    trilateration_graph,
    wheel_graph,
)
from affrig.hypergraph import (  # noqa: E402
    Graph,
    Hypergraph,
    _k_connected_by_flows,
    as_hypergraph,
    is_k_vertex_connected,
    neighborhood_hypergraph,
    zha_zhang_condition,
)
from test_numkernel import fraction_rank  # noqa: E402
from test_rigidity import in_hull_lp, looped_stress  # noqa: E402

PROPERTY_SETTINGS = settings(
    database=None, derandomize=True, deadline=None, max_examples=40
)


@st.composite
def hull_row(draw, d):
    """A point and k <= 6 neighbors on a small integer grid.

    The neighbors may be collinear. The point is a combination of them with
    integer weights in [0, 3] (zeros put it on the boundary), optionally
    moved by an integer offset that can take it outside the hull or off the
    neighbors' affine span.
    """
    k = draw(st.integers(0, 6))
    grid = st.integers(-3, 3)
    if draw(st.booleans()):
        base = np.array(draw(st.lists(grid, min_size=d, max_size=d)), float)
        step = np.array(draw(st.lists(grid, min_size=d, max_size=d)), float)
        hull = base + np.array(draw(st.lists(grid, min_size=k, max_size=k)),
                               float)[:, None] * step
    else:
        cells = draw(st.lists(grid, min_size=k * d, max_size=k * d))
        hull = np.array(cells, float).reshape(k, d)
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
                       float)
    point = weights @ hull / weights.sum() if weights.sum() > 0 else np.zeros(d)
    if draw(st.booleans()):
        point = point + np.array(
            draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), float)
    return point, hull.reshape(k, d)


@st.composite
def hull_rows(draw):
    """Several rows in one coordinate array, as the rubber band batches them."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(hull_row(d), min_size=1, max_size=4))
    coords, vertices, neighbor_lists = [], [], []
    for point, hull in rows:
        vertices.append(len(coords))
        coords.append(point)
        neighbor_lists.append(list(range(len(coords), len(coords) + len(hull))))
        coords.extend(hull)
    return np.array(coords).reshape(-1, d), vertices, neighbor_lists


class TestBarycentricRowsAgainstLP:
    @PROPERTY_SETTINGS
    @given(hull_rows(), st.sampled_from([0.0, 1e-9]))
    def test_certified_rows_and_decisions(self, rows, floor):
        coords, vertices, neighbor_lists = rows
        # With the LP stubbed out, only the rows the correction certified
        # come back with weights.
        with mock.patch.object(
            rigidity, "_barycentric_margin", return_value=(np.nan, None)
        ):
            fast_margins, fast_weights = rigidity._barycentric_rows(
                coords, vertices, neighbor_lists, floor
            )
        margins, _ = rigidity._barycentric_rows(coords, vertices, neighbor_lists, floor)
        for i, (u, nbrs) in enumerate(zip(vertices, neighbor_lists)):
            point, hull = coords[u], coords[nbrs]
            lp_margin, _ = rigidity._barycentric_margin(point, hull)
            assert (margins[i] > floor) == (lp_margin > floor)
            weights = fast_weights[i]
            if weights is None:
                continue
            scale = np.abs(weights).sum() * max(1.0, np.abs(hull).max())
            assert np.abs(weights @ hull - point).max() <= 1e-10 * scale
            assert abs(weights.sum() - 1.0) <= 1e-10 * scale
            assert fast_margins[i] == weights.min() > floor
            assert in_hull_lp(point, hull, margin=weights.min() / 2)


@st.composite
def integer_matrices(draw):
    """Small integer matrices with zero rows, repeated rows or low rank.

    A low-rank one is a product of two random factors; zero rows and copies
    of existing rows are then added in random positions.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        left = np.array(draw(st.lists(entry, min_size=rows * inner,
                                      max_size=rows * inner))).reshape(rows, inner)
        right = np.array(draw(st.lists(entry, min_size=inner * cols,
                                       max_size=inner * cols))).reshape(inner, cols)
        m = (left @ right).tolist()
    else:
        m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        extra = [0] * cols if draw(st.booleans()) else list(draw(st.sampled_from(m)))
        m.insert(draw(st.integers(0, len(m))), extra)
    return m


@st.composite
def integer_frameworks(draw):
    """A small hypergraph, integer points (often degenerate), a relabelling."""
    d = draw(st.integers(1, 2))
    v = draw(st.integers(d + 2, 9))
    hyperedges = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=2, max_size=v, unique=True),
        min_size=1, max_size=6,
    ))
    coords = [draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
              for _ in range(v)]
    perm = draw(st.permutations(range(v)))
    return Hypergraph.from_hyperedges(v, hyperedges), d, coords, perm


class TestSparseFieldRank:
    @PROPERTY_SETTINGS
    @given(integer_matrices(), st.sampled_from([numkernel.DEFAULT_PRIME,
                                                numkernel.PRIME_POOL_60BIT[0]]))
    def test_forward_rank_matches_dense_and_rational(self, rows, q):
        m = numkernel.PrimeFieldMatrix.from_integers(rows, q)
        _, pivots = numkernel._reduced_echelon(m)
        assert numkernel.prime_field_rank(m) == len(pivots) == fraction_rank(rows)

    @PROPERTY_SETTINGS
    @given(integer_matrices(), st.randoms(use_true_random=False))
    def test_forward_rank_ignores_row_and_column_order(self, rows, rnd):
        q = numkernel.DEFAULT_PRIME
        cols = list(range(len(rows[0])))
        rnd.shuffle(cols)
        rnd.shuffle(rows)
        sparse = [{cols[c]: x % q for c, x in enumerate(row) if x % q} for row in rows]
        assert numkernel._sparse_rank(sparse, q) == fraction_rank(rows)

    @PROPERTY_SETTINGS
    @given(integer_frameworks())
    def test_field_corank_is_invariant_under_relabelling(self, case):
        theta, d, coords, perm = case
        q = numkernel.DEFAULT_PRIME
        corank = rigidity.field_affinity_corank(theta, d, coords, q)
        relabelled = Hypergraph.from_hyperedges(
            theta.vertex_count, [[perm[u] for u in h] for h in theta.hyperedges]
        )
        moved = [None] * theta.vertex_count
        for u, point in enumerate(coords):
            moved[perm[u]] = point
        assert rigidity.field_affinity_corank(relabelled, d, moved, q) == corank
        # The dense Gauss-Jordan on the same rows is the oracle.
        dense = []
        for h in map(sorted, theta.hyperedges):
            lift = [[1] * len(h)] + [[coords[u][a] for u in h] for a in range(d)]
            for vec in numkernel.prime_field_nullspace(
                numkernel.PrimeFieldMatrix.from_integers(lift, q)
            ):
                row = [0] * theta.vertex_count
                for x, u in zip(vec, h):
                    row[u] = x
                dense.append(row)
        if dense:
            _, pivots = numkernel._reduced_echelon(
                numkernel.PrimeFieldMatrix.from_integers(dense, q))
            assert corank == theta.vertex_count - len(pivots)
        else:
            assert corank == theta.vertex_count


def echelon_nullspace(entries, q):
    """The kernel basis over F_q read off ``_reduced_echelon``, one lift at a time."""
    m = numkernel.PrimeFieldMatrix(tuple(map(tuple, entries)), q)
    work, pivots = numkernel._reduced_echelon(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [0] * m.cols
        vec[free] = 1
        for row, pivot in zip(work, pivots):
            vec[pivot] = -row[free] % q
        basis.append(tuple(vec))
    return basis


@st.composite
def lift_stacks(draw):
    """Same-shape lifts [1; points] of k points in dimension d = 1..3.

    Points come from a grid of five values, which often repeats a
    coordinate (a zero leading pivot of a lift of full rank), or are large
    random residues; a lift may repeat one point or make all points equal.
    k runs from 1, so k <= d+1 occurs.
    """
    q = draw(st.sampled_from([numkernel.DEFAULT_PRIME, numkernel.PRIME_POOL_60BIT[3]]))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, d + 4))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        values = draw(st.sampled_from([st.integers(-2, 2), st.integers(0, q - 1)]))
        points = [draw(st.lists(values, min_size=d, max_size=d)) for _ in range(k)]
        shape = draw(st.sampled_from(["free", "free", "repeat", "equal"]))
        if shape == "repeat" and k > 1:
            points[draw(st.integers(1, k - 1))] = points[0]
        elif shape == "equal":
            points = [points[0]] * k
        stack.append([[1] * k] + [[p[a] % q for p in points] for a in range(d)])
    return stack, q


def per_hyperedge_corank(theta, d, coords, q, require_general_position=False):
    """``field_affinity_corank`` one hyperedge at a time, by dense Gauss-Jordan."""
    rows = []
    for h in map(sorted, theta.hyperedges):
        lift = [[1] * len(h)] + [[coords[u][a] % q for u in h] for a in range(d)]
        basis = echelon_nullspace(lift, q)
        if require_general_position and len(basis) > max(0, len(h) - d - 1):
            raise rigidity.DegenerateInstanceError(
                f"hyperedge {h} is not in general position: "
                f"{len(basis)} affine relations among {len(h)} points"
            )
        for vec in basis:
            row = [0] * theta.vertex_count
            for x, u in zip(vec, h):
                row[u] = x
            rows.append(row)
    if not rows:
        return theta.vertex_count
    _, pivots = numkernel._reduced_echelon(numkernel.PrimeFieldMatrix(
        tuple(map(tuple, rows)), q))
    return theta.vertex_count - len(pivots)


class TestStackedFieldNullspace:
    @PROPERTY_SETTINGS
    @given(lift_stacks())
    def test_stack_matches_each_lift(self, case):
        stack, q = case
        bases = numkernel.prime_field_nullspace((np.array(stack, dtype=object), q))
        assert bases == [echelon_nullspace(lift, q) for lift in stack]

    def test_zero_leading_pivot_of_full_rank(self):
        # In the first lift points 0 and 1 share x, so row 1 is zero in
        # column 1 after the first step. The stacked pass swaps no rows and
        # recomputes that lift, which still has full rank 3; the second lift
        # stays on the stacked path.
        q = numkernel.DEFAULT_PRIME
        stack = [[[1, 1, 1, 1], [5, 5, 7, 2], [1, 4, 2, 9]],
                 [[1, 1, 1, 1], [0, 3, 1, 8], [2, 2, 5, 1]]]
        bases = numkernel.prime_field_nullspace((np.array(stack, dtype=object), q))
        assert bases == [echelon_nullspace(lift, q) for lift in stack]
        assert [len(basis) for basis in bases] == [1, 1]

    @PROPERTY_SETTINGS
    @given(integer_frameworks(), st.sampled_from([1, 3]), st.booleans())
    def test_field_corank_matches_per_hyperedge(self, case, squeeze, require):
        # Squeezing the points onto {-1, 0, 1} makes degenerate hyperedges common.
        theta, d, coords, _ = case
        coords = [[x // squeeze for x in point] for point in coords]
        q = numkernel.DEFAULT_PRIME

        def outcome(fn):
            try:
                return fn(theta, d, coords, q, require_general_position=require)
            except rigidity.DegenerateInstanceError as error:
                return str(error)

        assert outcome(rigidity.field_affinity_corank) == outcome(per_hyperedge_corank)


@st.composite
def stress_frameworks(draw):
    """Graphs with isolated vertices and collinear or coincident neighbors.

    Integer points on a small grid in dimension 1..3, on one line, or all
    at one point (edge vectors of rank 0); edges drawn at random, with the
    last vertices often left isolated.
    """
    d = draw(st.integers(1, 3))
    v = draw(st.integers(2, 14))
    grid = st.integers(-2, 2)
    layout = draw(st.sampled_from(["line", "point", "grid"]))
    if layout != "grid":
        base = np.array(draw(st.lists(grid, min_size=d, max_size=d)), float)
        step = np.array(draw(st.lists(grid, min_size=d, max_size=d)), float)
        step *= layout == "line"
        coords = base + np.array(draw(st.lists(grid, min_size=v, max_size=v)),
                                 float)[:, None] * step
    else:
        coords = np.array(draw(st.lists(grid, min_size=v * d, max_size=v * d)),
                          float).reshape(v, d)
    isolated = draw(st.integers(0, 2))
    pairs = list(itertools.combinations(range(v - isolated), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.from_edges(v, [e for e, keep in zip(pairs, chosen) if keep])
    return rigidity.Framework(graph, coords.reshape(v, d))


class TestStressAgainstPerVertex:
    @PROPERTY_SETTINGS
    @given(stress_frameworks(), st.integers(0, 2**32 - 1))
    def test_matches_per_vertex_draws(self, framework, seed):
        stress = rigidity.nonsymmetric_stress(framework, seed)
        omega, zero_rows = looped_stress(framework, seed)
        assert stress.zero_rows == zero_rows
        np.testing.assert_array_max_ulp(stress.matrix, omega, maxulp=1)

    @PROPERTY_SETTINGS
    @given(stress_frameworks(), st.integers(0, 2**32 - 1))
    def test_generator_advances_as_per_vertex_draws(self, framework, seed):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        rigidity.nonsymmetric_stress(framework, mine)
        looped_stress(framework, theirs)
        assert mine.random() == theirs.random()

    @pytest.mark.parametrize("graph", [hexagonal_torus(24, 24),
                                       trilateration_graph(300, 2, seed=3)],
                             ids=["H(24,24)", "trilateration-300"])
    def test_matches_per_vertex_draws_at_size(self, graph):
        framework = generic_framework(graph, 2, seed=4)
        stress = rigidity.nonsymmetric_stress(framework, 5)
        omega, zero_rows = looped_stress(framework, 5)
        assert stress.zero_rows == zero_rows
        matrix = stress.matrix
        if isinstance(matrix, numkernel.SparseMatrix):
            matrix = matrix.toarray()
        np.testing.assert_array_max_ulp(matrix, omega, maxulp=1)


def pairwise_overlap_chain(theta, d):
    """Oracle: search over hyperedges, comparing every pair."""
    hyperedges = theta.hyperedges
    if not hyperedges:
        return False
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j, h in enumerate(hyperedges):
            if j not in reached and len(hyperedges[i] & h) >= d + 1:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(hyperedges)


@st.composite
def overlap_hypergraphs(draw):
    """Hyperedges of d+1 or d+2 vertices, maybe one below d+1, maybe
    repeats, and maybe one hyperedge over nearly every vertex.

    The raw constructor keeps repeats. The big hyperedge has more
    (d+1)-subsets than incidences, so it takes the counting route.
    """
    d = draw(st.integers(1, 3))
    v = draw(st.integers(d + 1, 14))
    vertices = st.integers(0, v - 1)
    sized = st.sets(vertices, min_size=d + 1, max_size=min(v, d + 2))
    hyperedges = draw(st.lists(sized, max_size=9))
    if draw(st.booleans()):
        hyperedges.append(draw(st.sets(vertices, min_size=1, max_size=d)))
    if hyperedges:
        hyperedges += draw(st.lists(st.sampled_from(hyperedges), max_size=2))
    if draw(st.booleans()):
        big = draw(st.sets(vertices, min_size=max(1, v - 2)))
        hyperedges.insert(draw(st.integers(0, len(hyperedges))), big)
    return Hypergraph(v, tuple(map(frozenset, hyperedges))), d


class TestZhaZhangAgainstPairs:
    @PROPERTY_SETTINGS
    @given(overlap_hypergraphs())
    def test_union_find_equals_pairwise_search(self, case):
        theta, d = case
        assert zha_zhang_condition(theta, d) == pairwise_overlap_chain(theta, d)


# Small graphs, rigid and flexible, for the float rank tests.
GRAPHS = {
    "trilateration": lambda d, n, seed: trilateration_graph(d + 2 + n, d, seed=seed),
    "wheel": lambda d, n, seed: wheel_graph(4 + n % 5),
    "torus": lambda d, n, seed: hexagonal_torus(3, 3),
    "cycle": lambda d, n, seed: cycle_graph(d + 3 + n % 5),
    "complete": lambda d, n, seed: complete_graph(d + 2 + n % 3),
}


@st.composite
def graph_frameworks(draw):
    """A small graph with gaussian coordinates in d = 1, 2 or 3."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**16))
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))](d, n, seed)
    return generic_framework(graph, d, seed=seed)


def decide(mode, framework):
    """(verdict, corank) of the framework test on N(Γ) or the neighborhood test."""
    if mode == "framework":
        result = rigidity.affine_rigidity_test(rigidity.Framework(
            neighborhood_hypergraph(framework.structure), framework.coordinates))
    else:
        result = rigidity.neighborhood_affine_rigidity_test(framework, seed=1)
    return result.verdict, result.corank


def unit_vector(rng, d):
    direction = rng.standard_normal(d)
    return direction / np.linalg.norm(direction)


MODES = ["framework", "neighborhood"]


class TestFloatRankInvariance:
    """Corank and verdict depend on neither labels nor placement.

    Each holds in exact arithmetic; the float tests must keep them for
    translations up to 1e8, scales from 1e-9 to 1e8 and affine maps of
    condition number up to 1e3.
    """

    @pytest.mark.parametrize("mode", MODES)
    @PROPERTY_SETTINGS
    @given(framework=graph_frameworks(), data=st.data())
    def test_relabelling(self, mode, framework, data):
        gamma = framework.structure
        perm = data.draw(st.permutations(range(gamma.vertex_count)))
        relabelled = Graph.from_edges(
            gamma.vertex_count, [(perm[u], perm[w]) for u, w in gamma.sorted_edges()]
        )
        moved = np.empty_like(framework.coordinates)
        moved[perm] = framework.coordinates
        assert decide(mode, rigidity.Framework(relabelled, moved)) == decide(
            mode, framework)

    @pytest.mark.parametrize("mode", MODES)
    @PROPERTY_SETTINGS
    @given(framework=graph_frameworks(), exponent=st.floats(0, 8),
           seed=st.integers(0, 2**16))
    def test_translation(self, mode, framework, exponent, seed):
        offset = 10.0**exponent * unit_vector(
            np.random.default_rng(seed), framework.dim)
        moved = rigidity.Framework(framework.structure, framework.coordinates + offset)
        assert decide(mode, moved) == decide(mode, framework)

    @pytest.mark.parametrize("mode", MODES)
    @PROPERTY_SETTINGS
    @given(framework=graph_frameworks(), exponent=st.floats(-9, 8))
    def test_scaling(self, mode, framework, exponent):
        scaled = rigidity.Framework(
            framework.structure, framework.coordinates * 10.0**exponent)
        assert decide(mode, scaled) == decide(mode, framework)

    @pytest.mark.parametrize("mode", MODES)
    @PROPERTY_SETTINGS
    @given(framework=graph_frameworks(), log_condition=st.floats(0, 3),
           seed=st.integers(0, 2**16))
    def test_affine_map(self, mode, framework, log_condition, seed):
        rng = np.random.default_rng(seed)
        d = framework.dim
        left, _ = np.linalg.qr(rng.standard_normal((d, d)))
        right, _ = np.linalg.qr(rng.standard_normal((d, d)))
        # Singular values from 1 to 10^log_condition, both ends included.
        stretch = 10.0 ** (log_condition * np.linspace(0.0, 1.0, d))
        linear = left @ np.diag(rng.permutation(stretch)) @ right
        assert np.linalg.cond(linear) <= 1e3 * (1 + 1e-9)
        mapped = rigidity.Framework(
            framework.structure,
            framework.coordinates @ linear.T + 10.0 * rng.standard_normal(d),
        )
        assert decide(mode, mapped) == decide(mode, framework)


def integer_conic_oracle(pairs, coords, d):
    """Exact conic test: the integer monomial system has rank below d(d+1)/2.

    One row per vertex pair: the squares of the pair's integer direction,
    then its doubled cross terms.
    """
    rows = []
    for u, w in pairs:
        x = [a - b for a, b in zip(coords[u], coords[w])]
        rows.append([x[i] * x[i] for i in range(d)]
                    + [2 * x[i] * x[j] for i in range(d) for j in range(i + 1, d)])
    return fraction_rank(rows) < d * (d + 1) // 2


@st.composite
def integer_structures(draw, kind, d):
    """A small graph or hypergraph with small integer points, often repeated."""
    v = draw(st.integers(d + 1, 7))
    if kind is Graph:
        pairs = [(u, w) for u in range(v) for w in range(u + 1, v)]
        kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        structure = Graph.from_edges(v, [e for e, keep in zip(pairs, kept) if keep])
    else:
        # Up to d points never span R^d, so with that cap the spanning
        # hyperedge shortcut cannot fire and the body graph decides.
        cap = min(v, draw(st.sampled_from([max(2, d), d + 1])))
        hyperedges = draw(st.lists(
            st.lists(st.integers(0, v - 1), min_size=2, max_size=cap, unique=True),
            min_size=1, max_size=6))
        structure = Hypergraph.from_hyperedges(v, hyperedges)
    coords = [draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
              for _ in range(v)]
    perm = draw(st.permutations(range(v)))
    return structure, coords, perm


def body_pairs(structure):
    """Every pair of vertices that share an edge or a hyperedge."""
    pairs = set()
    for h in as_hypergraph(structure).hyperedges:
        members = sorted(h)
        pairs.update((u, w) for i, u in enumerate(members) for w in members[i + 1:])
    return sorted(pairs)


class TestConicAgainstExactRank:
    """The float conic test against exact rational rank on integer points."""

    @pytest.mark.parametrize("kind", [Graph, Hypergraph])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_verdict_matches_oracle_and_labels(self, kind, d, data):
        structure, coords, perm = data.draw(integer_structures(kind, d))
        framework = rigidity.Framework(structure, np.array(coords, float))
        on_conic = rigidity.conic_at_infinity_test(framework)
        assert on_conic == integer_conic_oracle(body_pairs(structure), coords, d)
        hyper = rigidity.Framework(as_hypergraph(structure), framework.coordinates)
        assert rigidity.conic_at_infinity_test(hyper) == on_conic
        if isinstance(structure, Graph):
            relabelled = Graph.from_edges(
                structure.vertex_count,
                [(perm[u], perm[w]) for u, w in structure.sorted_edges()])
        else:
            relabelled = Hypergraph.from_hyperedges(
                structure.vertex_count,
                [[perm[u] for u in h] for h in structure.hyperedges])
        moved = np.empty_like(framework.coordinates)
        moved[perm] = framework.coordinates
        assert rigidity.conic_at_infinity_test(
            rigidity.Framework(relabelled, moved)) == on_conic


SCAN_SOURCES = {
    "K(7,4)": lambda seed: generic_framework(complete_k_hypergraph(7, 4), 2, seed=seed),
    "N(H(3,3))": lambda seed: generic_framework(
        neighborhood_hypergraph(hexagonal_torus(3, 3)), 2, seed=seed),
}


def chart_map(rng, d, trust):
    """A random orthogonal map, or under affine trust an affine one of
    condition number at most 4, plus a shift."""
    left, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if trust == registration.AFFINE:
        right, _ = np.linalg.qr(rng.standard_normal((d, d)))
        left = left @ np.diag(rng.uniform(0.5, 2.0, d)) @ right
    return left, 10.0 * rng.standard_normal(d)


class TestRegistrationChartInvariance:
    """Registration does not depend on the charts' gauges or on labels.

    Each chart is re-mapped on its own by a map of the trust class and the
    vertices are relabelled; the registered configuration must be the
    original one up to the global gauge of that class.
    """

    @PROPERTY_SETTINGS
    @given(source=st.sampled_from(sorted(SCAN_SOURCES)),
           trust=st.sampled_from([registration.AFFINE, registration.EUCLIDEAN]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_remapped_relabelled_charts(self, source, trust, seed, data):
        framework = SCAN_SOURCES[source](seed)
        scans = registration.synthetic_scan_set(framework, trust=trust, seed=seed)
        register = (registration.affine_register if trust == registration.AFFINE
                    else registration.euclidean_register)
        v, d = scans.vertex_count, scans.dim
        perm = data.draw(st.permutations(range(v)))
        rng = np.random.default_rng(seed + 1)
        moved = []
        for scan in scans.scans:
            linear, shift = chart_map(rng, d, trust)
            moved.append(registration.Scan(
                tuple(perm[u] for u in scan.members),
                scan.coordinates @ linear.T + shift))
        original = register(scans)
        result = register(registration.ScanSet(v, tuple(moved), trust))
        assert max(result.diagnostics["scan_residuals"]) <= 1e-8
        fit = (registration.best_fit_affine if trust == registration.AFFINE
               else registration.best_fit_euclidean)
        _, _, error = fit(result.config[perm], original.config)
        assert error <= 1e-8 * registration._diameter(original.config)


def on_route(route, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every builder storing dense or sparse.

    The dense route is the oracle; ``_SPARSE_MIN_COLUMNS = 0`` sends even
    these small matrices to the sparse eigensolver.
    """
    threshold = rigidity._SPARSE_MIN_COLUMNS if route == "dense" else 0
    with mock.patch.object(rigidity, "_SPARSE_MIN_COLUMNS", threshold):
        return fn(*args, **kwargs)


def outcome(mode, framework, rel_tol=numkernel.DEFAULT_REL_TOL):
    """(verdict, corank) of ``decide``, or the NumericalRankError it raised."""
    try:
        if mode == "framework":
            result = rigidity.affine_rigidity_test(rigidity.Framework(
                neighborhood_hypergraph(framework.structure),
                framework.coordinates), rel_tol)
        else:
            result = rigidity.neighborhood_affine_rigidity_test(
                framework, rel_tol, seed=1)
    except NumericalRankError:
        return "NumericalRankError"
    return result.verdict, result.corank


ROUTES = ["dense", "sparse"]


class TestSparseRouteAgainstDense:
    """The sparse eigensolver decides as the dense SVD does.

    Each case runs twice, once per storage; the dense SVD is the oracle.
    """

    @pytest.mark.parametrize("mode", MODES)
    @PROPERTY_SETTINGS
    @given(framework=graph_frameworks())
    def test_verdicts_and_coranks(self, mode, framework):
        dense = on_route("dense", outcome, mode, framework)
        assert on_route("sparse", outcome, mode, framework) == dense

    @pytest.mark.parametrize("seed", range(4))
    def test_rounding_noise_raises_on_both_routes(self, seed):
        framework = generic_framework(wheel_graph(5), 2, seed=seed)
        for route in ROUTES:
            assert on_route(route, outcome, "neighborhood", framework,
                            1e-16) == "NumericalRankError"

    @PROPERTY_SETTINGS
    @given(source=st.sampled_from(sorted(SCAN_SOURCES)),
           trust=st.sampled_from([registration.AFFINE, registration.EUCLIDEAN]),
           seed=st.integers(0, 2**16))
    def test_registrations(self, source, trust, seed):
        scans = registration.synthetic_scan_set(
            SCAN_SOURCES[source](seed), trust=trust, seed=seed)
        register = (registration.affine_register if trust == registration.AFFINE
                    else registration.euclidean_register)
        dense = on_route("dense", register, scans)
        sparse = on_route("sparse", register, scans)
        assert sparse.diagnostics["corank"] == dense.diagnostics["corank"]
        fit = (registration.best_fit_affine if trust == registration.AFFINE
               else registration.best_fit_euclidean)
        _, _, error = fit(sparse.config, dense.config)
        assert error <= 1e-9 * registration._diameter(dense.config)

    def test_corank_above_the_first_block(self):
        # N(H(12,12)) plus 20 isolated vertices: corank 3 + 20 = 23, beyond
        # the first block of 8 vectors, so the block must double twice.
        nbh = neighborhood_hypergraph(hexagonal_torus(12, 12))
        theta = Hypergraph.from_hyperedges(
            nbh.vertex_count + 20, nbh.sorted_hyperedges())
        framework = generic_framework(theta, 2, seed=5)
        band_solver = numkernel._band_solver
        widths = []

        def spy(gram, shift):
            solve = band_solver(gram, shift)

            def recorded(b):
                widths.append(b.shape[1])
                return solve(b)

            return recorded

        with mock.patch.object(numkernel, "_band_solver", spy):
            sparse = on_route("sparse", rigidity.affine_rigidity_test, framework)
        dense = on_route("dense", rigidity.affine_rigidity_test, framework)
        assert sorted(set(widths)) == [8, 16, 32]
        assert (sparse.verdict, sparse.corank) == (dense.verdict, dense.corank) == (
            rigidity.FLEXIBLE, 23)

    def test_no_convergence_is_a_numerical_rank_error(self):
        # One step can never settle: settling compares two steps.
        framework = generic_framework(
            neighborhood_hypergraph(hexagonal_torus(3, 3)), 2, seed=2)
        with mock.patch.object(numkernel, "_SPARSE_MAX_STEPS", 1):
            with pytest.raises(NumericalRankError, match="did not converge"):
                on_route("sparse", rigidity.affine_rigidity_test, framework)


class TestFloatAgainstFieldCorank:
    """On integer points, the float corank equals the exact F_q corank.

    Both routes of the float decision are checked; the points are small
    integers, often coincident or collinear, so that lifts lose rank.
    """

    @pytest.mark.parametrize("route", ROUTES)
    @PROPERTY_SETTINGS
    @given(case=integer_frameworks())
    def test_float_corank_equals_field_corank(self, route, case):
        theta, d, coords, _ = case
        exact = rigidity.field_affinity_corank(theta, d, coords)
        framework = rigidity.Framework(theta, np.array(coords, float))
        assert on_route(route, lambda: rigidity.affinity_corank(
            rigidity.strong_affinity_matrix(framework))) == exact


def per_scan_scan_set(doc):
    """Oracle: the per-scan parser that the size-class parser replaced.

    Its checks and their order are the old ``scan_set_from_document``'s;
    the faults that ``Scan`` rejects (no members, a repeated member) are
    reported at the scan's hyperedge, and each coordinate must be a finite
    double, checked right after its point's shape.
    """
    dim, trust = doc["dim"], doc["trust"]
    scans = []
    top = -1
    for index, entry in enumerate(doc["scans"]):
        members = entry["hyperedge"]
        path = f"$.scans[{index}]"
        if not isinstance(members, list) or not all(
            isinstance(u, int) and not isinstance(u, bool) and u >= 0 for u in members
        ):
            raise formats.FormatError(
                "hyperedge must be a list of vertex labels", path=f"{path}.hyperedge"
            )
        coords = entry["coordinates"]
        if not isinstance(coords, list):
            raise formats.FormatError(
                "coordinates must be a list", path=f"{path}.coordinates"
            )
        points = per_point_list(coords, f"{path}.coordinates", dim)
        if points.shape[0] != len(members):
            raise formats.FormatError(
                f"{len(members)} members but {points.shape[0]} points", path=path
            )
        try:
            scans.append(registration.Scan(tuple(members), points))
        except InvalidInputError as error:
            raise formats.FormatError(str(error), path=f"{path}.hyperedge") from None
        top = max(top, max(members, default=-1))
    return registration.ScanSet(top + 1, tuple(scans), trust)


def per_point_list(rows, path, dim):
    """Oracle: the point-by-point coordinate parser."""
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim or not all(
            isinstance(x, (int, float)) for x in row
        ):
            raise formats.FormatError(
                f"expected a point with {dim} coordinates", path=f"{path}[{index}]"
            )
        for axis, x in enumerate(row):
            if not abs(x) <= sys.float_info.max:
                raise formats.FormatError(
                    "coordinate is not a finite double", path=f"{path}[{index}][{axis}]"
                )
    return np.array(rows, dtype=float).reshape(len(rows), dim)


@st.composite
def scan_documents(draw):
    """A valid scanset document: scans of mixed sizes, int and float numbers."""
    dim = draw(st.integers(1, 3))
    number = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False), st.integers(-1000, 1000)
    )
    scans = []
    for _ in range(draw(st.integers(1, 8))):
        members = draw(st.lists(st.integers(0, 15), min_size=1, max_size=5,
                                unique=True))
        points = draw(st.lists(st.lists(number, min_size=dim, max_size=dim),
                               min_size=len(members), max_size=len(members)))
        scans.append({"hyperedge": members, "coordinates": points})
    trust = draw(st.sampled_from(["affine", "euclidean"]))
    return {"version": 1, "type": "scanset", "dim": dim, "trust": trust,
            "scans": scans}


SCAN_FAULTS = [
    "bool member", "negative label", "repeated member", "ragged chart",
    "string member", "string coordinate", "null member", "null coordinate",
    "infinite coordinate", "huge-int coordinate", "missing point",
    "extra point", "mixed d", "no members", "hyperedge not a list",
    "chart not a list",
]


def corrupt(scan, fault, dim, rng):
    """Give one scan of a valid document the named fault."""
    members, points = scan["hyperedge"], scan["coordinates"]
    j = rng.randrange(len(members))
    axis = rng.randrange(dim)
    if fault == "bool member":
        members[j] = rng.choice([True, False])
    elif fault == "negative label":
        members[j] = -rng.randint(1, 5)
    elif fault == "repeated member":
        members.append(members[j])
        points.append(list(points[j]))
    elif fault == "ragged chart":
        longer = dim == 1 or rng.random() < 0.5
        points[j] = points[j] + [0.5] if longer else points[j][1:]
    elif fault == "string member":
        members[j] = "v1"
    elif fault == "string coordinate":
        points[j][axis] = "1.0"
    elif fault == "null member":
        members[j] = None
    elif fault == "null coordinate":
        points[j][axis] = None
    elif fault == "infinite coordinate":  # what JSON's 1e400 parses to
        points[j][axis] = rng.choice([float("inf"), -float("inf"), float("nan")])
    elif fault == "huge-int coordinate":
        # 10**400 overflows a conversion; the other rounds to the largest double.
        points[j][axis] = rng.choice([1, -1]) * rng.choice(
            [10**400, int(sys.float_info.max) + 1]
        )
    elif fault == "missing point":
        points.pop(j)
    elif fault == "extra point":
        points.append([0.0] * dim)
    elif fault == "mixed d":
        scan["coordinates"] = [point + [1.0] for point in points]
    elif fault == "no members":
        scan["hyperedge"], scan["coordinates"] = [], []
    elif fault == "hyperedge not a list":
        scan["hyperedge"] = rng.choice([None, 3, "0 1", {"0": 1}])
    elif fault == "chart not a list":
        scan["coordinates"] = rng.choice([None, 3, "0 1", {"0": 1}])


def corruptible(scan, dim):
    """Whether ``corrupt`` can give the scan one more fault."""
    members, points = scan["hyperedge"], scan["coordinates"]
    return (isinstance(members, list) and len(members) > 0
            and isinstance(points, list) and len(points) >= len(members)
            and all(isinstance(p, list) and len(p) >= dim for p in points))


def error_path(parse, doc):
    """The JSON path of the FormatError that ``parse`` raises on ``doc``."""
    with pytest.raises(formats.FormatError) as info:
        parse(doc)
    return info.value.path


class TestScanParserAgainstPerScan:
    @PROPERTY_SETTINGS
    @given(scan_documents())
    def test_valid_documents(self, doc):
        expected = per_scan_scan_set(doc)
        parsed = formats.scan_set_from_document(doc)
        assert parsed.vertex_count == expected.vertex_count
        assert (parsed.dim, parsed.trust) == (expected.dim, expected.trust)
        assert len(parsed.scans) == len(expected.scans)
        for mine, theirs in zip(parsed.scans, expected.scans):
            assert mine.members == theirs.members
            assert np.array_equal(mine.coordinates, theirs.coordinates)
        for positions, members, charts in parsed.classes:
            assert not (members.flags.writeable or charts.flags.writeable)
            assert members.dtype == np.int64 and charts.dtype == np.float64
            for position, row, chart in zip(positions, members, charts):
                assert tuple(row.tolist()) == expected.scans[position].members
                assert np.array_equal(chart, expected.scans[position].coordinates)
        assert formats.document_from_scan_set(parsed) == formats.document_from_scan_set(
            expected
        )

    @pytest.mark.parametrize("fault", SCAN_FAULTS)
    @settings(PROPERTY_SETTINGS, max_examples=12)
    @given(scan_documents(), st.randoms(use_true_random=False))
    def test_faulty_documents(self, fault, doc, rng):
        # The fault goes into one scan, and up to two random faults more,
        # often into the same scan; the error names the first faulty scan
        # and its first fault.
        scans, dim = doc["scans"], doc["dim"]
        faulty = rng.choice(scans)
        corrupt(faulty, fault, dim, rng)
        for _ in range(rng.randrange(3)):
            open_to_more = [scan for scan in scans if corruptible(scan, dim)]
            if not open_to_more:
                break
            same = corruptible(faulty, dim) and rng.random() < 0.5
            scan = faulty if same else rng.choice(open_to_more)
            # A missing point can undo an extra one, and the other way round.
            more = [f for f in SCAN_FAULTS
                    if scan is not faulty or not f.endswith(" point")]
            corrupt(scan, rng.choice(more), dim, rng)
        expected = error_path(per_scan_scan_set, doc)
        assert error_path(formats.scan_set_from_document, doc) == expected


@st.composite
def glued_graphs(draw):
    """Two random graphs sharing 0, 1 or 2 vertices, plus random extra edges,
    often randomly relabelled.

    Each side holds a cycle through all its vertices (a path below three),
    so sharing one vertex or two makes cut vertices and 2-cuts common; the
    extra edges across the two sides often remove them again.
    """
    rng = draw(st.randoms(use_true_random=False))
    first = draw(st.integers(1, 15))
    second = draw(st.integers(0, 15))
    shared = draw(st.integers(0, min(2, first, second)))
    n = first + second - shared
    sides = [list(range(first)), list(range(shared)) + list(range(first, n))]
    edges = []
    for side in sides:
        edges += list(zip(side, side[1:]))
        if len(side) > 2:
            edges.append((side[-1], side[0]))
        density = draw(st.floats(0.0, 0.5))
        edges += [e for e in itertools.combinations(side, 2) if rng.random() < density]
    for _ in range(draw(st.integers(0, 2)) if second > shared else 0):
        edges.append((rng.choice(sides[0]), rng.choice(sides[1][shared:])))
    # Unpermuted, the shared vertices include vertex 0, the search's root.
    label = rng.sample(range(n), n) if draw(st.booleans()) else range(n)
    return Graph.from_edges(n, [(label[u], label[w]) for u, w in edges])


def _three_connected_piece(draw, rng):
    """A K4, a wheel or a prism, with random extra edges: (size, edges)."""
    kind = draw(st.sampled_from(["complete", "wheel", "prism"]))
    if kind == "complete":
        size, edges = 4, list(itertools.combinations(range(4), 2))
    elif kind == "wheel":
        wheel = wheel_graph(draw(st.integers(3, 7)))
        size, edges = wheel.vertex_count, list(wheel.edges)
    else:
        rim = draw(st.integers(3, 6))
        ring = [(i, (i + 1) % rim) for i in range(rim)]
        size = 2 * rim
        edges = ring + [(u + rim, w + rim) for u, w in ring] + [
            (i, i + rim) for i in range(rim)]
    # Extra edges keep a piece 3-connected; dense ones make random pieces.
    density = draw(st.sampled_from([0.0, 0.0, 0.3, 0.7]))
    edges += [e for e in itertools.combinations(range(size), 2)
              if rng.random() < density]
    return size, edges


@st.composite
def two_cut_graphs(draw):
    """Two to four 3-connected pieces, each glued on two vertices of the
    piece before it (a chain) or of the whole graph so far (a tree).

    Every glued pair is a 2-cut. The edge between its two vertices is kept,
    added or removed, and a few random edges may heal cuts. With a random
    relabelling, a glued pair may be made to hold vertex 0, the root of the
    search; unrelabelled, vertex 0 lies in the first piece.
    """
    rng = draw(st.randoms(use_true_random=False))
    n, edges = _three_connected_piece(draw, rng)
    previous = range(n)
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        size, piece = _three_connected_piece(draw, rng)
        a, b = rng.sample(previous, 2)
        pairs.append((a, b))
        x, y = rng.sample(range(size), 2)
        rest = iter(range(n, n + size - 2))
        label = [a if i == x else b if i == y else next(rest) for i in range(size)]
        edges += [(label[u], label[w]) for u, w in piece]
        previous = label if draw(st.booleans()) else range(n + size - 2)
        n += size - 2
        between = draw(st.sampled_from(["keep", "add", "remove"]))
        if between == "add":
            edges.append((a, b))
        elif between == "remove":
            edges = [e for e in edges if set(e) != {a, b}]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(draw(st.integers(0, 2)))]
    label = list(range(n))
    if draw(st.booleans()):
        rng.shuffle(label)
        if draw(st.booleans()):
            u = rng.choice(rng.choice(pairs))
            root = label.index(0)
            label[root], label[u] = label[u], 0
    return Graph.from_edges(n, [(label[u], label[w]) for u, w in edges])


@st.composite
def three_connected_graphs(draw):
    """Prisms, wheels, K_{3,m}, small hexagonal tori and trilateration
    graphs, often randomly relabelled."""
    kind = draw(st.sampled_from(["piece", "k3m", "torus", "trilateration"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "piece":
        n, edges = _three_connected_piece(draw, rng)
        graph = Graph.from_edges(n, edges)
    elif kind == "k3m":
        m = draw(st.integers(3, 6))
        graph = Graph.from_edges(
            3 + m, [(i, 3 + j) for i in range(3) for j in range(m)])
    elif kind == "torus":
        graph = hexagonal_torus(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    else:
        graph = trilateration_graph(draw(st.integers(4, 40)), 2,
                                    seed=draw(st.integers(0, 2**16)))
    n = graph.vertex_count
    label = rng.sample(range(n), n) if draw(st.booleans()) else range(n)
    return Graph.from_edges(n, [(label[u], label[w]) for u, w in graph.edges])


class TestConnectivityAgainstNetworkx:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(glued_graphs())
    # Two squares sharing vertex 0, the search's root, or vertex 3.
    @example(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                                  (0, 4), (4, 5), (5, 6), (6, 0)]))
    @example(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                                  (3, 4), (4, 5), (5, 6), (6, 3)]))
    def test_matches_networkx(self, graph):
        nx = pytest.importorskip("networkx")
        oracle = nx.Graph()
        oracle.add_nodes_from(range(graph.vertex_count))
        oracle.add_edges_from(graph.edges)
        kappa = nx.node_connectivity(oracle) if graph.vertex_count > 1 else 0
        for k in range(1, 5):
            assert is_k_vertex_connected(graph, k) == (
                graph.vertex_count > k and kappa >= k
            ), k

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(st.one_of(two_cut_graphs(), three_connected_graphs()))
    def test_three_connectivity_matches_flows_and_networkx(self, graph):
        nx = pytest.importorskip("networkx")
        oracle = nx.Graph()
        oracle.add_nodes_from(range(graph.vertex_count))
        oracle.add_edges_from(graph.edges)
        kappa = nx.node_connectivity(oracle)
        n = graph.vertex_count
        for k in range(1, 5):
            expected = n > k and kappa >= k
            assert expected == (n > k and _k_connected_by_flows(graph, k)), k
            assert is_k_vertex_connected(graph, k) == expected, k
