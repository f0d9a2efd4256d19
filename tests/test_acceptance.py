"""Acceptance gate: eleven end-to-end criteria at pinned tolerances.

Each test is one criterion; run with ``pytest tests/test_acceptance.py -v``
for a pass/fail line per criterion. Every criterion finishes in well under
ten seconds on desk hardware, and each test enforces its own runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from affrig.errors import NonUniqueTransformError
from affrig.families import (
    complete_graph,
    complete_k_hypergraph,
    fig1_hypergraph,
    fig2_graph,
    generic_framework,
    hexagonal_torus,
    pentagon_hypergraph,
    star_graph,
    trilateration_graph,
    wheel_graph,
)
from affrig.hypergraph import (
    Graph,
    Hypergraph,
    body_graph,
    is_k_vertex_connected,
    neighborhood_hypergraph,
    squared_graph,
    zha_zhang_condition,
)
from affrig.numkernel import numerical_kernel
from affrig.registration import (
    Registration,
    affine_register,
    best_fit_affine,
    best_fit_euclidean,
    euclidean_register,
    remove_affine,
    synthetic_scan_set,
)
from affrig.rigidity import (
    Framework,
    affine_rigidity_test,
    affine_span_dimension,
    affinity_corank,
    affinity_residuals,
    conic_at_infinity_test,
    field_affinity_corank,
    generic_affine_rigidity_test,
    neighborhood_affine_rigidity_test,
    nonsymmetric_stress,
    strong_affinity_matrix,
    stress_corank,
    stress_residuals,
    universal_rigidity_certificate,
)


@pytest.fixture
def budget():
    started = time.perf_counter()
    yield
    assert time.perf_counter() - started < 10.0


def random_hypergraph(rng, v, max_hyperedges=6):
    count = int(rng.integers(1, max_hyperedges + 1))
    hyperedges = []
    for _ in range(count):
        size = int(rng.integers(2, v + 1))
        hyperedges.append([int(u) for u in rng.choice(v, size, replace=False)])
    return Hypergraph.from_hyperedges(v, hyperedges)


def random_integer_coordinates(rng, v, d):
    while True:
        coords = rng.integers(-9, 10, size=(v, d)).astype(float)
        if affine_span_dimension(coords) == d:
            return coords


def random_graph(rng, v, edge_count):
    pairs = list(itertools.combinations(range(v), 2))
    chosen = rng.choice(len(pairs), size=min(edge_count, len(pairs)), replace=False)
    return Graph.from_edges(v, [pairs[int(i)] for i in chosen])


def float_corank(framework):
    return affinity_corank(strong_affinity_matrix(framework))


def test_criterion_01_corank_matches_perturbation_oracle(budget):
    """Corank-based rigidity agrees with a kernel-perturbation oracle."""
    rng = np.random.default_rng(1001)
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 4))
        v = int(rng.integers(d + 2, 13))
        coords = random_integer_coordinates(rng, v, d)
        framework = Framework(random_hypergraph(rng, v), coords)
        by_corank = affine_rigidity_test(framework).verdict == "rigid"

        kernel = numerical_kernel(strong_affinity_matrix(framework).matrix)
        design = np.hstack([np.ones((v, 1)), coords])
        weights = rng.standard_normal((kernel.dimension, 200 * d))
        perturbed = kernel.basis @ weights
        fitted, *_ = np.linalg.lstsq(design, perturbed, rcond=None)
        misfit = np.linalg.norm(perturbed - design @ fitted, axis=0)
        scale = np.maximum(np.linalg.norm(perturbed, axis=0), 1e-300)
        congruent = (misfit / scale <= 1e-7).reshape(200, d).all(axis=1)
        by_oracle = bool(congruent.all())

        assert by_corank == by_oracle
        checked += 1


def test_criterion_02_body_of_neighborhood_is_square(budget):
    """body(neighborhood(G)) equals the squared graph, everywhere."""
    rng = np.random.default_rng(1002)
    instances = [fig2_graph()]
    for _ in range(100):
        v = int(rng.integers(2, 13))
        most = v * (v - 1) // 2
        instances.append(random_graph(rng, v, int(rng.integers(0, most + 1))))
    for gamma in instances:
        assert body_graph(neighborhood_hypergraph(gamma)).edges == (
            squared_graph(gamma).edges
        )


def test_criterion_03_simplex_hyperedges(budget):
    """Complete (d+2) hypergraphs are rigid; expansion preserves corank."""
    for d in (1, 2, 3):
        for n in range(d + 2, 11):
            result = generic_affine_rigidity_test(
                complete_k_hypergraph(n, d + 2), d, trials=1, seed=n
            )
            assert result.verdict == "rigid"

    rng = np.random.default_rng(1003)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        v = int(rng.integers(d + 4, 11))
        big = sorted(int(u) for u in rng.choice(v, int(rng.integers(d + 3, v + 1)),
                                                replace=False))
        rest = [
            [int(u) for u in rng.choice(v, int(rng.integers(2, v + 1)),
                                        replace=False)]
            for _ in range(3)
        ]
        original = Hypergraph.from_hyperedges(v, [big] + rest)
        expanded = Hypergraph.from_hyperedges(
            v, list(itertools.combinations(big, d + 2)) + rest
        )
        coords = rng.standard_normal((v, d))
        assert float_corank(Framework(original, coords)) == float_corank(
            Framework(expanded, coords)
        )


def test_criterion_04_neighborhood_test_on_3_connected_graphs(budget):
    """Every 3-connected sample is rigid; stage 1 certifies most of them."""
    rng = np.random.default_rng(1004)
    pool = [
        hexagonal_torus(2, 3),
        hexagonal_torus(3, 3),
        hexagonal_torus(2, 4),
        hexagonal_torus(2, 5),
        hexagonal_torus(3, 4),
        wheel_graph(5),
        wheel_graph(6),
        wheel_graph(7),
        wheel_graph(8),
        wheel_graph(9),
    ]
    for n in range(8, 13):
        pool.append(trilateration_graph(n, 2, seed=n))
    for n in range(8, 13):
        base = trilateration_graph(n, 2, seed=100 + n)
        extra = set(base.edges)
        while len(extra) < len(base.edges) + 2:
            u, w = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            extra.add((u, w))
        pool.append(Graph.from_edges(n, extra))
    assert len(pool) == 20

    stage_one_hits = 0
    for index, gamma in enumerate(pool):
        assert is_k_vertex_connected(gamma, 3)
        framework = generic_framework(gamma, 2, seed=index)
        result = neighborhood_affine_rigidity_test(framework, seed=index)
        assert result.verdict == "rigid"
        if "stage 1" in result.certificate:
            stage_one_hits += 1
    assert stage_one_hits >= 18


def test_criterion_05_figure_counterexamples(budget):
    """Pentagon, K_{1,5}, and the hexagonal torus behave as documented."""
    pentagon = generic_framework(pentagon_hypergraph(), 2, seed=5)
    certificate = universal_rigidity_certificate(pentagon)
    assert not certificate.certified
    affine = affine_rigidity_test(pentagon)
    assert affine.verdict == "flexible"
    assert affine.corank == 5

    star = generic_framework(star_graph(5), 2, seed=6)
    stage_one = nonsymmetric_stress(star, seed=7)
    assert stress_corank(stage_one) == 5
    staged = neighborhood_affine_rigidity_test(star, seed=8)
    assert staged.verdict == "rigid"
    assert "stage 2" in staged.certificate

    torus = hexagonal_torus(3, 3)
    assert is_k_vertex_connected(torus, 3)
    assert not zha_zhang_condition(neighborhood_hypergraph(torus), 2)


def test_criterion_06_field_and_float_coranks_agree(budget):
    """Exact finite-field corank equals floating corank on 100 instances."""
    rng = np.random.default_rng(1006)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        v = int(rng.integers(d + 2, 13))
        theta = random_hypergraph(rng, v)
        coords = random_integer_coordinates(rng, v, d)
        exact = field_affinity_corank(
            theta, d, [[int(x) for x in row] for row in coords]
        )
        assert exact == float_corank(Framework(theta, coords))


def test_criterion_07_registration_round_trip(budget):
    """50-vertex neighborhood scans re-register to the ground truth."""
    gamma = hexagonal_torus(5, 5)
    base = generic_framework(gamma, 2, seed=70)
    truth = base.coordinates
    diameter = np.linalg.norm(truth.max(axis=0) - truth.min(axis=0))
    scan_source = Framework(neighborhood_hypergraph(gamma), truth)

    euclidean = euclidean_register(
        synthetic_scan_set(scan_source, trust="euclidean", seed=71)
    )
    _, _, error = best_fit_euclidean(euclidean.config, truth)
    assert error <= 1e-6 * diameter

    affine = affine_register(synthetic_scan_set(scan_source, seed=72))
    _, _, error = best_fit_affine(truth, affine.config)
    scale = np.linalg.norm(
        affine.config.max(axis=0) - affine.config.min(axis=0)
    )
    assert error <= 1e-7 * scale


def test_criterion_08_gram_fit_in_isolation(budget):
    """Gauge removal inverts well-conditioned skews; flags conic data."""
    rng = np.random.default_rng(1008)
    truth = rng.standard_normal((6, 2))
    diameter = np.linalg.norm(truth.max(axis=0) - truth.min(axis=0))
    lengths = [
        (u, w, float(np.sum((truth[u] - truth[w]) ** 2)))
        for u, w in complete_graph(6).sorted_edges()
    ]
    for _ in range(20):
        while True:
            skew = rng.standard_normal((2, 2))
            if np.linalg.cond(skew) <= 1e3 and abs(np.linalg.det(skew)) > 1e-3:
                break
        start = Registration(truth @ skew.T, "affine", {})
        result = remove_affine(start, lengths)
        _, _, error = best_fit_euclidean(result.config, truth)
        assert error <= 1e-7 * diameter

    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    axis_only = [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0)]
    with pytest.raises(NonUniqueTransformError):
        remove_affine(Registration(square, "affine", {}), axis_only)


def test_criterion_09_conic_detection(budget):
    """Axis-aligned squares sit on a conic; generic frameworks never do."""
    square = Framework(
        Graph.from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    )
    assert conic_at_infinity_test(square)

    k4 = generic_framework(complete_graph(4), 2, seed=90)
    assert not conic_at_infinity_test(k4)

    rng = np.random.default_rng(1009)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        v = int(rng.integers(d + 2, 11))
        needed = d * (d + 1) // 2
        most = v * (v - 1) // 2
        gamma = random_graph(rng, v, int(rng.integers(needed, most + 1)))
        framework = Framework(gamma, rng.standard_normal((v, d)))
        assert not conic_at_infinity_test(framework)


def test_criterion_10_residual_invariants(budget):
    """All produced matrices satisfy their defining identities numerically."""
    hypergraph_pool = [
        generic_framework(complete_k_hypergraph(7, 4), 2, seed=1),
        generic_framework(fig1_hypergraph(), 2, seed=2),
        generic_framework(pentagon_hypergraph(), 2, seed=3),
        generic_framework(
            neighborhood_hypergraph(hexagonal_torus(3, 3)), 2, seed=4
        ),
        generic_framework(complete_k_hypergraph(8, 5), 3, seed=5),
    ]
    for framework in hypergraph_pool:
        affinity = strong_affinity_matrix(framework)
        residuals = affinity_residuals(affinity, framework)
        assert residuals["row_sum"] <= 1e-8
        assert residuals["off_support"] <= 1e-8
        assert residuals["kernel_residual"] <= 1e-8
        basis = numerical_kernel(affinity.matrix).basis
        gram = basis.T @ basis
        assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10

    graph_pool = [
        generic_framework(hexagonal_torus(3, 3), 2, seed=6),
        generic_framework(wheel_graph(7), 2, seed=7),
        generic_framework(trilateration_graph(12, 2, seed=8), 2, seed=9),
        generic_framework(star_graph(5), 2, seed=10),
        generic_framework(trilateration_graph(10, 3, seed=11), 3, seed=12),
    ]
    for framework in graph_pool:
        stress = nonsymmetric_stress(framework, seed=13)
        residuals = stress_residuals(stress, framework)
        assert residuals["sparsity"] <= 1e-8
        assert residuals["row_sum"] <= 1e-8
        assert residuals["kernel_residual"] <= 1e-8


def glued_neighborhood_tori(m):
    """Two copies of N(H(m,m)) sharing only vertices 0 and 1: corank d+2."""
    first = neighborhood_hypergraph(hexagonal_torus(m, m))
    v = first.vertex_count
    second = [
        [u if u < 2 else v + u - 2 for u in h] for h in first.sorted_hyperedges()
    ]
    return Hypergraph.from_hyperedges(2 * v - 2, first.sorted_hyperedges() + second)


def test_criterion_11_exact_generic_test_at_scale(budget):
    """The exact F_q test decides v = 1152 and a glued pair of tori."""
    torus = neighborhood_hypergraph(hexagonal_torus(24, 24))
    assert torus.vertex_count == 1152
    verdict = generic_affine_rigidity_test(torus, 2, seed=1)
    assert (verdict.verdict, verdict.corank) == ("rigid", 3)
    assert not verdict.one_sided

    glued = glued_neighborhood_tori(12)
    verdict = generic_affine_rigidity_test(glued, 2, seed=2)
    assert (verdict.verdict, verdict.corank) == ("flexible", 4)
    assert verdict.one_sided
