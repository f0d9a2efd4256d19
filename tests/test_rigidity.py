import logging
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from affrig import numkernel, rigidity
from affrig.errors import (
    DegenerateInstanceError,
    ImproperFrameworkError,
    InvalidInputError,
    NumericalRankError,
    UnsupportedInstanceError,
)
from affrig.families import (
    complete_graph,
    complete_k_hypergraph,
    cycle_graph,
    fig1_hypergraph,
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
    neighborhood_hypergraph,
    squared_graph,
)
from affrig.numkernel import (
    DEFAULT_REL_TOL,
    numerical_kernel,
    numerical_rank,
    singular_value_rank,
)
from affrig.rigidity import (
    FLEXIBLE,
    RIGID,
    AffinityMatrix,
    Framework,
    RigidityVerdict,
    StressMatrix,
    affine_rigidity_test,
    affine_span_dimension,
    affinity_corank,
    affinity_residuals,
    choose_exceptional,
    conic_at_infinity_test,
    field_affinity_corank,
    generic_affine_rigidity_test,
    neighborhood_affine_rigidity_test,
    nonsymmetric_stress,
    positive_stress,
    rubber_band_embedding,
    strong_affinity_matrix,
    stress_corank,
    stress_residuals,
    universal_rigidity_certificate,
)

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
BARBELL = Graph.from_edges(
    6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
)


def looped_stress(framework, seed, rel_tol=DEFAULT_REL_TOL):
    """Oracle: one ``numerical_kernel`` per vertex, drawn in vertex order."""
    gamma = framework.structure
    rng = np.random.default_rng(seed)
    v = framework.vertex_count
    omega = np.zeros((v, v))
    zero_rows = []
    for u in range(v):
        nbrs = list(gamma.neighbors(u))
        if not nbrs:
            zero_rows.append(u)
            continue
        edge_vectors = (framework.coordinates[nbrs] - framework.coordinates[u]).T
        kernel = numerical_kernel(edge_vectors, rel_tol)
        if kernel.dimension == 0:
            zero_rows.append(u)
            continue
        row = kernel.basis @ rng.standard_normal(kernel.dimension)
        row /= np.linalg.norm(row)
        omega[u, nbrs] = row
        omega[u, u] = -row.sum()
    return omega, tuple(zero_rows)


def svd_requests(monkeypatch):
    """Record (shape, compute_uv) of every SVD numpy is asked for.

    The implementing module is patched too: matrix norms look svd up there.
    """
    requests = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        requests.append((np.shape(a), compute_uv))
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    implementation = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for module in (np.linalg, implementation):
        monkeypatch.setattr(module, "svd", spy)
    return requests


# One framework per test family: hypergraphs, and graphs with their
# neighborhood hypergraphs, rigid and flexible, in d = 1, 2, 3.
RANK_FAMILIES = {
    "fig1": (fig1_hypergraph(), 2),
    "pentagon": (pentagon_hypergraph(), 2),
    "K84": (complete_k_hypergraph(8, 4), 2),
    "K85": (complete_k_hypergraph(8, 5), 3),
    "H33": (hexagonal_torus(3, 3), 2),
    "H66": (hexagonal_torus(6, 6), 2),
    "tri40": (trilateration_graph(40, 2, seed=5), 2),
    "tri30-3d": (trilateration_graph(30, 3, seed=6), 3),
    "wheel6": (wheel_graph(6), 2),
    "star5": (star_graph(5), 2),
    "K6-3d": (complete_graph(6), 3),
    "cycle9-1d": (cycle_graph(9), 1),
    "bowtie": (BOWTIE, 2),
    "barbell": (BARBELL, 2),
}
GRAPH_FAMILIES = {
    name: family for name, family in RANK_FAMILIES.items()
    if isinstance(family[0], Graph)
}


def rank_decision_matrices(structure, d, seed):
    """Every matrix a float rank decision is made on for one framework."""
    fw = generic_framework(structure, d, seed=seed)
    yield fw.coordinates - fw.coordinates.mean(axis=0)
    if isinstance(structure, Graph):
        yield nonsymmetric_stress(fw, seed=seed).matrix
        structure = neighborhood_hypergraph(structure)
    yield strong_affinity_matrix(Framework(structure, fw.coordinates)).matrix


def in_hull_lp(point, hull_points, margin=1e-9):
    """Independent strict-containment oracle: feasibility with floored weights."""
    from scipy.optimize import linprog

    k = hull_points.shape[0]
    a_eq = np.vstack([hull_points.T, np.ones(k)])
    b_eq = np.concatenate([point, [1.0]])
    res = linprog(
        np.zeros(k),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(margin, None)] * k,
        method="highs",
    )
    return res.success


class TestValuesOnlyRankDecisions:
    @pytest.mark.parametrize(
        "structure, d", RANK_FAMILIES.values(), ids=RANK_FAMILIES.keys()
    )
    def test_rank_and_values_match_the_vector_svd(self, structure, d):
        for seed in (1, 2):
            for matrix in rank_decision_matrices(structure, d, seed):
                rank, values = singular_value_rank(matrix)
                kernel = numerical_kernel(matrix)
                assert rank == matrix.shape[1] - kernel.dimension
                assert numerical_rank(matrix) == rank
                np.testing.assert_allclose(
                    values, kernel.singular_values, rtol=0,
                    atol=1e-12 * kernel.singular_values.max(initial=0.0),
                )

    @pytest.mark.parametrize(
        "graph, neighborhood_mode, stage",
        [(hexagonal_torus(3, 3), False, None), (hexagonal_torus(3, 3), True, 1),
         (BARBELL, True, 2)],
        ids=["framework", "neighborhood-stage-1", "neighborhood-stage-2"],
    )
    def test_no_singular_vectors_of_v_columns(
        self, monkeypatch, graph, neighborhood_mode, stage
    ):
        fw = generic_framework(graph, 2, seed=3)
        requests = svd_requests(monkeypatch)
        if neighborhood_mode:
            verdict = neighborhood_affine_rigidity_test(fw, seed=3)
            assert f"stage {stage}" in verdict.certificate
        else:
            affine_rigidity_test(
                Framework(neighborhood_hypergraph(graph), fw.coordinates)
            )
        v = graph.vertex_count
        decided = [uv for shape, uv in requests if shape[-1] == v]
        assert decided and not any(decided), requests


class TestFramework:
    def test_dim_and_vertex_count(self):
        fw = generic_framework(complete_graph(4), 3, seed=0)
        assert fw.dim == 3
        assert fw.vertex_count == 4

    def test_rejects_wrong_row_count(self):
        with pytest.raises(InvalidInputError):
            Framework(complete_graph(4), np.zeros((3, 2)))

    def test_rejects_nonfinite(self):
        coords = np.zeros((4, 2))
        coords[1, 1] = np.inf
        with pytest.raises(InvalidInputError):
            Framework(complete_graph(4), coords)

    def test_coordinates_frozen(self):
        fw = generic_framework(complete_graph(4), 2, seed=1)
        with pytest.raises(ValueError):
            fw.coordinates[0, 0] = 7.0

    def test_affine_span_dimension(self):
        line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert affine_span_dimension(line) == 1
        plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert affine_span_dimension(plane) == 2


class TestStrongAffinity:
    def test_single_quad_hyperedge(self):
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 2, 3]])
        fw = generic_framework(theta, 2, seed=2)
        am = strong_affinity_matrix(fw)
        assert am.matrix.shape == (1, 4)
        assert am.row_provenance == (0,)
        assert am.strong
        assert affinity_corank(am) == 3

    def test_pentagon_has_no_rows(self):
        fw = generic_framework(pentagon_hypergraph(), 2, seed=3)
        am = strong_affinity_matrix(fw)
        assert am.matrix.shape == (0, 5)
        assert affinity_corank(am) == 5

    def test_full_hyperedge_row_count(self):
        theta = Hypergraph.from_hyperedges(6, [list(range(6))])
        fw = generic_framework(theta, 2, seed=4)
        am = strong_affinity_matrix(fw)
        assert am.matrix.shape == (3, 6)
        assert affinity_corank(am) == 3

    def test_contract_residuals(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            gamma = trilateration_graph(9, 2, seed=seed)
            theta = neighborhood_hypergraph(gamma)
            fw = Framework(theta, rng.standard_normal((9, 2)))
            am = strong_affinity_matrix(fw)
            res = affinity_residuals(am, fw)
            assert res["row_sum"] <= 1e-9
            assert res["off_support"] == 0.0
            assert res["kernel_residual"] <= 1e-8

    # fig1 has affine relations only on a line: its triangles in d = 1.
    @pytest.mark.parametrize(
        "theta, d, entry",
        [(fig1_hypergraph(), 1, 0.375), (complete_k_hypergraph(7, 4), 2, -0.375)],
        ids=["fig1", "K74"],
    )
    def test_off_support_entry_is_reported(self, theta, d, entry):
        fw = generic_framework(theta, d, seed=6)
        am = strong_affinity_matrix(fw)
        row = am.matrix.shape[0] // 2
        members = theta.hyperedges[am.row_provenance[row]]
        outside = min(set(range(fw.vertex_count)) - set(members))
        tampered = am.matrix.copy()
        tampered[row, outside] = entry
        bad = AffinityMatrix(tampered, am.row_provenance, am.strong)
        assert affinity_residuals(bad, fw)["off_support"] == abs(entry)

    def test_collinear_triple_contributes_relation(self):
        # Three collinear points satisfy one affine relation even though a
        # generic triple would satisfy none.
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 2]])
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, -1.0]])
        am = strong_affinity_matrix(Framework(theta, coords))
        assert am.matrix.shape == (1, 4)
        np.testing.assert_allclose(
            am.matrix[0] / am.matrix[0][0], [1.0, -2.0, 1.0, 0.0], atol=1e-9
        )

    def test_too_few_vertices(self):
        theta = Hypergraph.from_hyperedges(2, [[0, 1]])
        with pytest.raises(UnsupportedInstanceError):
            strong_affinity_matrix(Framework(theta, np.eye(2)))


class TestAffineRigidityTest:
    def test_sparse_hypergraph_is_flexible(self):
        # No hyperedge has more than 3 vertices, so a generic planar
        # configuration admits no relation at all: corank = v.
        fw = generic_framework(fig1_hypergraph(), 2, seed=6)
        verdict = affine_rigidity_test(fw)
        assert verdict.verdict == FLEXIBLE
        assert verdict.corank == 6
        assert not verdict.one_sided

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_simplex_plus_one_is_rigid(self, d):
        theta = Hypergraph.from_hyperedges(d + 2, [list(range(d + 2))])
        fw = generic_framework(theta, d, seed=10 + d)
        verdict = affine_rigidity_test(fw)
        assert verdict.verdict == RIGID
        assert verdict.corank == d + 1

    def test_improper_configuration(self):
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 2, 3]])
        collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ImproperFrameworkError) as info:
            affine_rigidity_test(Framework(theta, collinear))
        assert info.value.span_dim == 1

    def test_corank_never_below_dim_plus_one(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            gamma = trilateration_graph(int(rng.integers(5, 10)), 2, seed=seed)
            fw = generic_framework(neighborhood_hypergraph(gamma), 2, seed=seed)
            verdict = affine_rigidity_test(fw)
            assert verdict.corank >= 3

    def test_affine_invariance_of_corank(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gamma = trilateration_graph(int(rng.integers(5, 9)), 2, seed=int(rng.integers(1000)))
            theta = neighborhood_hypergraph(gamma)
            coords = rng.standard_normal((theta.vertex_count, 2))
            base = affine_rigidity_test(Framework(theta, coords))
            while True:
                a = rng.standard_normal((2, 2))
                if abs(np.linalg.det(a)) > 0.1:
                    break
            b = rng.standard_normal(2)
            mapped = affine_rigidity_test(Framework(theta, coords @ a.T + b))
            assert mapped.corank == base.corank
            assert mapped.verdict == base.verdict

    def test_zero_padding_preserves_corank(self):
        # Appending a zero coordinate axis leaves every hyperedge lift with
        # the same kernel, so the affinity matrix and its corank are
        # unchanged even though the ambient dimension grew.
        theta = complete_k_hypergraph(6, 4)
        fw = generic_framework(theta, 2, seed=9)
        padded = Framework(
            theta, np.hstack([fw.coordinates, np.zeros((6, 1))])
        )
        am_base = strong_affinity_matrix(fw)
        am_padded = strong_affinity_matrix(padded)
        assert affinity_corank(am_base) == affinity_corank(am_padded)

    @pytest.mark.parametrize(
        "theta, d",
        [
            (fig1_hypergraph(), 2),
            (neighborhood_hypergraph(hexagonal_torus(3, 3)), 2),
            (complete_k_hypergraph(8, 5), 3),
        ],
        ids=["fig1", "NH33", "K85"],
    )
    def test_residuals_are_those_of_the_decided_matrix(self, theta, d):
        fw = generic_framework(theta, d, seed=15)
        residuals = affine_rigidity_test(fw).residuals
        assert residuals == affinity_residuals(strong_affinity_matrix(fw), fw)
        assert set(residuals) == {"row_sum", "off_support", "kernel_residual"}

    def test_residuals_take_no_part_in_equality(self):
        plain = RigidityVerdict(RIGID, 3, "certificate", one_sided=False)
        with_residuals = RigidityVerdict(
            RIGID, 3, "certificate", one_sided=False, residuals={"row_sum": 1e-16}
        )
        assert plain == with_residuals
        assert hash(plain) == hash(with_residuals)
        assert plain != RigidityVerdict(FLEXIBLE, 3, "certificate", one_sided=False)

    def test_certificate_mentions_cutoff(self):
        fw = generic_framework(pentagon_hypergraph(), 2, seed=11)
        verdict = affine_rigidity_test(fw, rel_tol=1e-8)
        assert "1e-08" in verdict.certificate

    @pytest.mark.parametrize(
        "m, shift, scale",
        [(6, 1e4, 1.0), (12, 1e4, 1.0), (3, 1e5, 1.0), (6, 1e8, 1.0),
         (6, 0.0, 1e8), (6, 0.0, 1e-9)],
    )
    def test_corank_does_not_depend_on_placement(self, m, shift, scale):
        # Each hyperedge's chart is centered and scaled before its relations
        # are read, so far-off or tiny configurations keep corank d+1.
        theta = neighborhood_hypergraph(hexagonal_torus(m, m))
        coords = generic_framework(theta, 2, seed=1).coordinates
        verdict = affine_rigidity_test(Framework(theta, coords * scale + shift))
        assert (verdict.verdict, verdict.corank) == (RIGID, 3)

    @pytest.mark.parametrize(
        "stretch, rel_tol", [((1e4, 1e-4), DEFAULT_REL_TOL), ((1.0, 1.0), 1e-16)]
    )
    def test_corank_below_d_plus_one_is_an_error(self, stretch, rel_tol):
        theta = neighborhood_hypergraph(hexagonal_torus(3, 3))
        coords = generic_framework(theta, 2, seed=3).coordinates @ np.diag(stretch)
        with pytest.raises(NumericalRankError) as info:
            affine_rigidity_test(Framework(theta, coords), rel_tol=rel_tol)
        assert info.value.corank < info.value.expected == 3
        assert info.value.rel_tol == rel_tol
        assert f"relative cutoff {rel_tol:g}" in str(info.value)


class TestGenericTest:
    def test_complete_quad_hypergraph_rigid(self):
        verdict = generic_affine_rigidity_test(complete_k_hypergraph(7, 4), 2, seed=12)
        assert verdict.verdict == RIGID
        assert verdict.corank == 3
        assert not verdict.one_sided

    def test_pentagon_flexible(self):
        verdict = generic_affine_rigidity_test(pentagon_hypergraph(), 2, seed=13)
        assert verdict.verdict == FLEXIBLE
        assert verdict.corank == 5
        assert verdict.one_sided

    def test_honeycomb_neighborhoods_rigid(self):
        theta = neighborhood_hypergraph(hexagonal_torus(3, 3))
        verdict = generic_affine_rigidity_test(theta, 2, trials=2, seed=14)
        assert verdict.verdict == RIGID

    def test_column_order_is_built_once_per_test(self, monkeypatch):
        # The pentagon is flexible, so every one of the trials runs.
        built, trials = [], []
        body_graph, corank = rigidity.body_graph, rigidity.field_affinity_corank

        def counted_body_graph(theta):
            built.append(theta)
            return body_graph(theta)

        def counted_corank(*args, **kwargs):
            trials.append(args)
            return corank(*args, **kwargs)

        monkeypatch.setattr(rigidity, "body_graph", counted_body_graph)
        monkeypatch.setattr(rigidity, "field_affinity_corank", counted_corank)
        verdict = generic_affine_rigidity_test(pentagon_hypergraph(), 2, trials=3, seed=13)
        assert verdict.verdict == FLEXIBLE
        assert len(trials) >= 3 and len(built) == 1

    def test_agrees_with_float_test_on_integer_coords(self):
        rng = np.random.default_rng(15)
        structures = [
            fig1_hypergraph(),
            pentagon_hypergraph(),
            complete_k_hypergraph(6, 4),
            neighborhood_hypergraph(trilateration_graph(8, 2, seed=0)),
            neighborhood_hypergraph(wheel_graph(6)),
        ]
        for theta in structures:
            fw = generic_framework(theta, 2, seed=int(rng.integers(1000)), integer=True)
            float_corank = affine_rigidity_test(fw).corank
            ints = [[int(x) for x in row] for row in fw.coordinates]
            assert field_affinity_corank(theta, 2, ints) == float_corank

    def test_sample_out_of_general_position_is_redrawn(self, monkeypatch):
        # Generically flexible (corank 4), but with hyperedge 0 collinear the
        # sample's corank is 3: a "rigid" read off it would be wrong.
        theta = Hypergraph.from_hyperedges(6, [[0, 1, 2, 3], [0, 1, 4, 5]])
        points = [[0, 0], [1, 0], [2, 0], [3, 0], [5, 7], [2, 9]]
        assert field_affinity_corank(theta, 2, points) == 3
        with pytest.raises(DegenerateInstanceError):
            field_affinity_corank(theta, 2, points, require_general_position=True)

        class Scripted(random.Random):
            """Draws ``points`` first, then uniform residues."""

            def __init__(self, seed=None):
                super().__init__(seed)
                self.script = [x for point in points for x in point]

            def randrange(self, *args):
                return self.script.pop(0) if self.script else super().randrange(*args)

        monkeypatch.setattr(rigidity, "random", SimpleNamespace(Random=Scripted))
        verdict = generic_affine_rigidity_test(theta, 2, trials=1, seed=0)
        assert verdict.verdict == FLEXIBLE
        assert verdict.corank == 4

    def test_deterministic_for_seed(self):
        a = generic_affine_rigidity_test(pentagon_hypergraph(), 2, seed=17)
        b = generic_affine_rigidity_test(pentagon_hypergraph(), 2, seed=17)
        assert a == b

    def test_too_few_vertices(self):
        with pytest.raises(UnsupportedInstanceError):
            generic_affine_rigidity_test(pentagon_hypergraph(), 5, seed=18)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            generic_affine_rigidity_test(pentagon_hypergraph(), 0)
        with pytest.raises(InvalidInputError):
            generic_affine_rigidity_test(pentagon_hypergraph(), 2, trials=0)


# Sets that are not d+1 = 3 distinct vertices of a 30-vertex graph.
BAD_EXCEPTIONAL_SETS = [
    (0, 1, 99),  # out of range
    (0, 1, -1),  # out of range
    (0, 0, 1),  # repeated
    (0, 0, 1, 2),  # repeated, with d+1 distinct vertices among them
    (0, 1),  # too few
    (0, 1, 2, 3),  # too many
]


class TestRubberBand:
    def test_k4_equal_weights_centroid(self):
        k4 = complete_graph(4)
        equal = {e: 1.0 for e in k4.sorted_edges()}
        fw = rubber_band_embedding(
            k4, 2, exceptional=(0, 1, 2), seed=19, weights=equal, jitter=0.0
        )
        np.testing.assert_allclose(
            fw.coordinates[3], fw.coordinates[:3].mean(axis=0), atol=1e-12
        )

    def test_star_center_inside_pins(self):
        star = star_graph(3)
        fw = rubber_band_embedding(star, 2, exceptional=(1, 2, 3), seed=20)
        assert in_hull_lp(fw.coordinates[0], fw.coordinates[1:])

    def test_honeycomb_hull_membership(self):
        gamma = hexagonal_torus(3, 3)
        fw = rubber_band_embedding(gamma, 2, seed=21)
        pinned = set(choose_exceptional(gamma, 2))
        for u in range(gamma.vertex_count):
            if u in pinned:
                continue
            nbrs = list(gamma.neighbors(u))
            assert in_hull_lp(fw.coordinates[u], fw.coordinates[nbrs])

    def test_jitter_moves_everything(self):
        gamma = hexagonal_torus(3, 3)
        smooth = rubber_band_embedding(gamma, 2, seed=22, jitter=0.0)
        rough = rubber_band_embedding(gamma, 2, seed=22)
        assert not np.allclose(smooth.coordinates, rough.coordinates)
        drift = np.abs(rough.coordinates - smooth.coordinates).max()
        assert drift < 1e-4

    def test_deterministic_for_seed(self):
        a = rubber_band_embedding(wheel_graph(6), 2, seed=23)
        b = rubber_band_embedding(wheel_graph(6), 2, seed=23)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)

    def test_auto_exceptional_prefers_degree(self):
        assert choose_exceptional(wheel_graph(6), 2) == (0, 1, 2)
        assert choose_exceptional(star_graph(4), 2) == (0, 1, 2)

    def test_disconnected_interior(self, caplog):
        gamma = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        with caplog.at_level(logging.WARNING):
            with pytest.raises(DegenerateInstanceError):
                rubber_band_embedding(gamma, 2, exceptional=(0, 1, 2), seed=24)

    def test_bad_exceptional_sets(self):
        with pytest.raises(InvalidInputError):
            rubber_band_embedding(complete_graph(4), 2, exceptional=(0, 1))
        with pytest.raises(InvalidInputError):
            rubber_band_embedding(complete_graph(4), 2, exceptional=(0, 1, 9))

    @pytest.mark.parametrize("exceptional", BAD_EXCEPTIONAL_SETS)
    def test_exceptional_set_must_be_d_plus_one_distinct_vertices(self, exceptional):
        with pytest.raises(InvalidInputError, match="exceptional"):
            rubber_band_embedding(trilateration_graph(30, 2, seed=0), 2,
                                  exceptional=exceptional, seed=1)

    def test_missing_weight(self):
        k4 = complete_graph(4)
        with pytest.raises(InvalidInputError):
            rubber_band_embedding(k4, 2, seed=25, weights={(0, 1): 1.0})

    def test_nonpositive_weight(self):
        k4 = complete_graph(4)
        bad = {e: 1.0 for e in k4.sorted_edges()}
        bad[(0, 1)] = 0.0
        with pytest.raises(InvalidInputError):
            rubber_band_embedding(k4, 2, seed=26, weights=bad)


class TestPositiveStress:
    @pytest.mark.parametrize("exceptional", BAD_EXCEPTIONAL_SETS)
    def test_bad_exceptional_sets_are_rejected(self, exceptional):
        gamma = trilateration_graph(30, 2, seed=0)
        fw = rubber_band_embedding(gamma, 2, seed=1)
        with pytest.raises(InvalidInputError, match="exceptional"):
            positive_stress(fw, exceptional)

    def test_pinned_set_with_an_extra_vertex_is_rejected(self):
        gamma = trilateration_graph(30, 2, seed=0)
        pinned = choose_exceptional(gamma, 2)
        fw = rubber_band_embedding(gamma, 2, exceptional=pinned, seed=1)
        assert positive_stress(fw, pinned).zero_rows == pinned
        with pytest.raises(InvalidInputError, match="exceptional"):
            positive_stress(fw, pinned + (99,))

    @pytest.mark.parametrize("gamma", [wheel_graph(6), hexagonal_torus(3, 3)])
    def test_interior_rows_positive(self, gamma):
        fw = rubber_band_embedding(gamma, 2, seed=27)
        pinned = choose_exceptional(gamma, 2)
        stress = positive_stress(fw, pinned)
        assert stress.zero_rows == pinned
        interior = [u for u in range(gamma.vertex_count) if u not in set(pinned)]
        for u in interior:
            for w in gamma.neighbors(u):
                assert stress.matrix[u, w] > 0
            assert stress.matrix[u, u] == -1.0
        res = stress_residuals(stress, fw)
        assert res["sparsity"] == 0.0
        assert res["row_sum"] <= 1e-8
        assert res["kernel_residual"] <= 1e-8

    def test_interior_block_nonsingular(self):
        gamma = hexagonal_torus(3, 3)
        fw = rubber_band_embedding(gamma, 2, seed=28)
        pinned = set(choose_exceptional(gamma, 2))
        interior = [u for u in range(gamma.vertex_count) if u not in pinned]
        stress = positive_stress(fw, tuple(sorted(pinned)))
        block = stress.matrix[np.ix_(interior, interior)]
        smallest = np.linalg.svd(block, compute_uv=False)[-1]
        assert smallest > 1e-6


class TestBarycentricCertificate:
    """Rubber-band interiority certified by correction, with the LP as fallback."""

    @staticmethod
    def _count_linprog(monkeypatch):
        calls = []
        real = scipy.optimize.linprog

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        return calls

    @staticmethod
    def _segment_graph():
        """wheel_graph(6) plus vertex 7 joined only to rim vertices 1 and 3."""
        wheel = wheel_graph(6)
        return Graph.from_edges(8, list(wheel.sorted_edges()) + [(1, 7), (3, 7)])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_few_lp_calls(self, monkeypatch, seed):
        calls = self._count_linprog(monkeypatch)
        gamma = trilateration_graph(300, 2, seed=seed)
        fw = rubber_band_embedding(gamma, 2, seed=seed)
        positive_stress(fw, choose_exceptional(gamma, 2))
        # One LP per free vertex in each of the two checks would be 594.
        assert len(calls) < 10

    def test_forced_fallback_matches_default_path(self, monkeypatch):
        gamma = trilateration_graph(40, 2, seed=3)
        pinned = choose_exceptional(gamma, 2)
        default = rubber_band_embedding(gamma, 2, seed=5)
        calls = self._count_linprog(monkeypatch)
        # No row can balance to a negative tolerance, so every row goes to the LP.
        monkeypatch.setattr(rigidity, "_BALANCE_TOL", -1.0)
        forced = rubber_band_embedding(gamma, 2, seed=5)
        np.testing.assert_array_equal(forced.coordinates, default.coordinates)
        stress = positive_stress(forced, pinned)
        assert len(calls) >= 2 * (gamma.vertex_count - len(pinned))
        res = stress_residuals(stress, forced)
        assert res["sparsity"] == 0.0
        assert res["row_sum"] <= 1e-8
        assert res["kernel_residual"] <= 1e-8

    def test_degree_two_vertex_is_decided_by_the_lp(self, monkeypatch):
        """A nudge moves vertex 7 off its segment, where no row balances.

        The correction's least-squares row must not certify it. HiGHS holds
        the balance equations only to about 1e-7, so the LP's weights are
        polished and must then balance too; whatever the LP decides, the
        default path must decide the same.
        """
        gamma = self._segment_graph()
        with pytest.raises(DegenerateInstanceError):
            rubber_band_embedding(gamma, 2, seed=0)

        def accepted(seed):
            try:
                return rubber_band_embedding(gamma, 2, seed=seed).coordinates
            except DegenerateInstanceError:
                return None

        # The LP rejects every nudge at seeds 1 and 5.
        seeds = (1, 5)
        default = [accepted(seed) for seed in seeds]
        monkeypatch.setattr(rigidity, "_BALANCE_TOL", -1.0)
        for seed, ours in zip(seeds, default):
            theirs = accepted(seed)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                np.testing.assert_array_equal(ours, theirs)

    def test_lp_rows_hold_the_equilibrium_bound(self):
        """No seed yields a framework whose positive stress is unbalanced.

        Every nudge moves vertex 7 off its segment. HiGHS meets the balance
        equations only to about 1e-7, so its raw weights would accept some
        of these seeds with a kernel residual above the 1e-8 bound.
        """
        gamma = self._segment_graph()
        pinned = choose_exceptional(gamma, 2)
        for seed in range(30):
            try:
                fw = rubber_band_embedding(gamma, 2, seed=seed)
            except DegenerateInstanceError:
                continue
            res = stress_residuals(positive_stress(fw, pinned), fw)
            assert res["kernel_residual"] <= 1e-8, seed

    def test_degree_two_vertex_gets_its_segment_weights(self):
        gamma = self._segment_graph()
        fw = rubber_band_embedding(gamma, 2, seed=40, jitter=0.0)
        stress = positive_stress(fw, choose_exceptional(gamma, 2))
        p = fw.coordinates
        along = np.linalg.norm(p[7] - p[3]) / np.linalg.norm(p[1] - p[3])
        np.testing.assert_allclose(
            stress.matrix[7, [1, 3]], [along, 1.0 - along], rtol=1e-9
        )
        assert stress.matrix[7, 7] == -1.0
        assert np.count_nonzero(stress.matrix[7]) == 3

    def test_solver_is_loaded_without_a_fallback(self):
        """A call that certifies every row still loads the LP's solver.

        Otherwise a process's memory footprint would hinge on whether some
        row ever fell back. A fresh interpreter is needed, since this one
        has imported scipy.optimize already.
        """
        script = (
            "import sys\n"
            "from affrig import rigidity\n"
            "from affrig.families import trilateration_graph\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "def no_lp(*args):\n"
            "    raise AssertionError('unexpected fallback')\n"
            "rigidity._barycentric_margin = no_lp\n"
            "rigidity.rubber_band_embedding(trilateration_graph(30, 2, seed=0), 2)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(rigidity.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True"


class TestNonsymmetricStress:
    def test_complete_graph_kernel(self):
        fw = generic_framework(complete_graph(4), 2, seed=29)
        stress = nonsymmetric_stress(fw, seed=30)
        assert stress_corank(stress) == 3
        kernel = numerical_kernel(stress.matrix)
        # The kernel must be exactly {ones, x, y}.
        expected = np.column_stack(
            [np.ones(4), fw.coordinates[:, 0], fw.coordinates[:, 1]]
        )
        stacked = np.hstack([kernel.basis, expected])
        assert numerical_rank(stacked) == 3

    def test_star_rows(self):
        fw = generic_framework(star_graph(5), 2, seed=31)
        stress = nonsymmetric_stress(fw, seed=32)
        assert stress.zero_rows == (1, 2, 3, 4, 5)
        assert np.any(stress.matrix[0] != 0)
        assert stress_corank(stress) == 5

    def test_contract_residuals(self):
        for seed in range(5):
            gamma = trilateration_graph(10, 2, seed=seed)
            fw = generic_framework(gamma, 2, seed=seed + 100)
            stress = nonsymmetric_stress(fw, seed=seed)
            res = stress_residuals(stress, fw)
            assert res["sparsity"] == 0.0
            assert res["row_sum"] <= 1e-8
            assert res["kernel_residual"] <= 1e-8

    def test_non_edge_entry_is_reported(self):
        gamma = trilateration_graph(10, 2, seed=3)
        fw = generic_framework(gamma, 2, seed=103)
        stress = nonsymmetric_stress(fw, seed=3)
        u, w = next(
            (u, w) for u in range(10) for w in range(u) if not gamma.has_edge(u, w)
        )
        tampered = stress.matrix.copy()
        tampered[u, w] = -0.25
        bad = StressMatrix(tampered, symmetric=False)
        assert stress_residuals(bad, fw)["sparsity"] == 0.25

    def test_deterministic_for_seed(self):
        fw = generic_framework(wheel_graph(5), 2, seed=33)
        a = nonsymmetric_stress(fw, seed=34)
        b = nonsymmetric_stress(fw, seed=34)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize(
        "structure, d", GRAPH_FAMILIES.values(), ids=GRAPH_FAMILIES.keys()
    )
    def test_stacked_equals_per_vertex_loop(self, structure, d):
        fw = generic_framework(structure, d, seed=36)
        # Half the vertices on one point: rank-0 edge vectors, and rows
        # whose kernel grows past the generic one.
        piled = fw.coordinates.copy()
        piled[: structure.vertex_count // 2] = piled[0]
        cases = [(fw, DEFAULT_REL_TOL), (fw, 1e-3),
                 (Framework(structure, piled), DEFAULT_REL_TOL)]
        for framework, rel_tol in cases:
            stress = nonsymmetric_stress(framework, seed=37, rel_tol=rel_tol)
            matrix, zero_rows = looped_stress(framework, 37, rel_tol)
            assert np.array_equal(stress.matrix, matrix)
            assert stress.zero_rows == zero_rows

    def test_isolated_vertex_gets_a_zero_row(self):
        gamma = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        fw = generic_framework(gamma, 2, seed=38)
        stress = nonsymmetric_stress(fw, seed=39)
        assert 4 in stress.zero_rows
        assert np.array_equal(stress.matrix, looped_stress(fw, 39)[0])

    def test_rejects_hypergraph(self):
        fw = generic_framework(pentagon_hypergraph(), 2, seed=35)
        with pytest.raises(InvalidInputError):
            nonsymmetric_stress(fw, seed=36)


class TestNeighborhoodTest:
    def test_honeycomb_rigid_at_stage_one(self):
        fw = generic_framework(hexagonal_torus(3, 3), 2, seed=37)
        verdict = neighborhood_affine_rigidity_test(fw, seed=38)
        assert verdict.verdict == RIGID
        assert verdict.corank == 3
        assert "stage 1" in verdict.certificate

    def test_star_needs_stage_two(self):
        fw = generic_framework(star_graph(5), 2, seed=39)
        verdict = neighborhood_affine_rigidity_test(fw, seed=40)
        assert verdict.verdict == RIGID
        assert verdict.corank == 3
        assert "stage 2" in verdict.certificate

    def test_shared_vertex_triangles_rigid(self):
        # The shared vertex's closed neighborhood covers all five vertices,
        # which forces every kernel element to be a single affine function.
        fw = generic_framework(BOWTIE, 2, seed=41)
        verdict = neighborhood_affine_rigidity_test(fw, seed=42)
        assert verdict.verdict == RIGID
        assert verdict.corank == 3

    def test_bridged_triangles_flexible(self):
        fw = generic_framework(BARBELL, 2, seed=43)
        verdict = neighborhood_affine_rigidity_test(fw, seed=44)
        assert verdict.verdict == FLEXIBLE
        assert verdict.corank == 4

    def test_bridged_triangles_kernel_witness(self):
        # Directly exhibit a fourth kernel direction of the neighborhood
        # affinity matrix: zero on one triangle, and an affine function
        # vanishing on the bridge {2, 3} evaluated on the other.
        fw = generic_framework(BARBELL, 2, seed=45)
        am = strong_affinity_matrix(
            Framework(neighborhood_hypergraph(BARBELL), fw.coordinates)
        )
        p = fw.coordinates
        direction = p[3] - p[2]
        witness = np.zeros(6)
        for u in (4, 5):
            offset = p[u] - p[2]
            witness[u] = direction[0] * offset[1] - direction[1] * offset[0]
        assert np.linalg.norm(am.matrix @ witness) <= 1e-9 * np.linalg.norm(am.matrix)
        trivial = np.column_stack([np.ones(6), p[:, 0], p[:, 1]])
        assert numerical_rank(np.column_stack([trivial, witness])) == 4

    def test_stage_one_agrees_with_affinity_corank(self):
        # Whenever the quick stress certificate fires, the definitive rank
        # test must agree.
        for seed in range(5):
            gamma = wheel_graph(6)
            fw = generic_framework(gamma, 2, seed=seed + 200)
            verdict = neighborhood_affine_rigidity_test(fw, seed=seed)
            nbh = Framework(neighborhood_hypergraph(gamma), fw.coordinates)
            definitive = affinity_corank(strong_affinity_matrix(nbh))
            if verdict.verdict == RIGID:
                assert definitive == 3

    def test_stacked_stresses_leave_affinity_corank_unchanged(self):
        # Every stress row is an affine relation of one closed neighborhood,
        # so d+2 stresses stacked on the neighborhood affinity matrix cannot
        # move its corank; stage 2 reads that corank alone.
        for gamma, seed in ((star_graph(5), 50), (BOWTIE, 51), (BARBELL, 52)):
            fw = generic_framework(gamma, 2, seed=seed)
            nbh = strong_affinity_matrix(
                Framework(neighborhood_hypergraph(gamma), fw.coordinates)
            )
            rng = np.random.default_rng(seed)
            stresses = [nonsymmetric_stress(fw, rng).matrix for _ in range(4)]
            stacked = np.vstack(stresses + [nbh.matrix])
            corank = affinity_corank(nbh)
            assert gamma.vertex_count - numerical_rank(stacked) == corank

    def test_improper_configuration(self):
        collinear = np.array([[float(i), float(i)] for i in range(5)])
        with pytest.raises(ImproperFrameworkError):
            neighborhood_affine_rigidity_test(Framework(BOWTIE, collinear))

    @pytest.mark.parametrize("seed, corank", [(0, 1), (1, 1), (2, 2), (3, 2)])
    def test_stage_one_corank_below_d_plus_one_raises_at_stage_one(
        self, seed, corank, monkeypatch
    ):
        # A stress corank below d+1 is rounding noise; it must stop the test
        # before the stage-2 matrix is built.
        fw = generic_framework(wheel_graph(5), 2, seed=seed)
        built = []
        monkeypatch.setattr(rigidity, "strong_affinity_matrix",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(NumericalRankError) as info:
            neighborhood_affine_rigidity_test(fw, rel_tol=1e-16, seed=seed)
        assert str(info.value).startswith("stage-1 non-symmetric stress")
        assert info.value.corank == corank
        assert built == []
        with pytest.raises(NumericalRankError) as info:
            universal_rigidity_certificate(
                fw, via="psd-stress", rel_tol=1e-16, seed=seed)
        assert "non-symmetric stress" in str(info.value)
        assert info.value.corank == corank

    def test_corank_below_d_plus_one_is_an_error(self):
        # At a cutoff below rounding noise, stage 1 finds fewer than d+1
        # kernel directions.
        fw = generic_framework(wheel_graph(5), 2, seed=47)
        with pytest.raises(NumericalRankError) as info:
            neighborhood_affine_rigidity_test(fw, rel_tol=1e-16, seed=47)
        assert "stage-1 non-symmetric stress" in str(info.value)
        assert info.value.corank < 3

    def test_rejects_hypergraph(self):
        fw = generic_framework(pentagon_hypergraph(), 2, seed=46)
        with pytest.raises(InvalidInputError):
            neighborhood_affine_rigidity_test(fw)


class TestConicAtInfinity:
    def test_axis_aligned_square(self):
        square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert conic_at_infinity_test(Framework(square, coords))

    def test_generic_complete_graph(self):
        fw = generic_framework(complete_graph(4), 2, seed=47)
        assert not conic_at_infinity_test(fw)

    def test_two_edges_always_conic(self):
        gamma = Graph.from_edges(3, [(0, 1), (1, 2)])
        fw = generic_framework(gamma, 2, seed=48)
        assert conic_at_infinity_test(fw)

    def test_spanning_hyperedge_shortcut(self):
        theta = Hypergraph.from_hyperedges(5, [[0, 1, 2], [2, 3, 4]])
        fw = generic_framework(theta, 2, seed=49)
        # A generic triple affinely spans the plane, so the shortcut fires;
        # the body graph of two triangles sharing one vertex agrees.
        assert not conic_at_infinity_test(fw)

    def test_line_graph_dimension_one(self):
        gamma = Graph.from_edges(3, [(0, 1), (1, 2)])
        coords = np.array([[0.0], [1.0], [3.0]])
        assert not conic_at_infinity_test(Framework(gamma, coords))

    def test_edgeless(self):
        gamma = Graph.from_edges(3, [])
        fw = generic_framework(gamma, 2, seed=50)
        assert conic_at_infinity_test(fw)


class TestUniversalRigidity:
    def test_affine_route_certifies_full_hyperedge(self):
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 2, 3]])
        fw = generic_framework(theta, 2, seed=51)
        result = universal_rigidity_certificate(fw)
        assert result.certified
        assert result.target == "input framework"

    def test_pentagon_is_one_sided_inconclusive(self):
        # The pentagon hypergraph framework is universally rigid but not
        # affinely rigid, so the affine route must decline to certify and
        # must not claim a refutation.
        fw = generic_framework(pentagon_hypergraph(), 2, seed=52)
        result = universal_rigidity_certificate(fw)
        assert not result.certified
        assert "may still hold" in result.certificate

    def test_conic_blocks_certificate(self):
        # Two planar hyperedges whose planes are totally null for
        # Q = diag(1, 1, -1, -1) and meet only at vertex 0. All edge
        # directions are annihilated by Q, yet the corank is exactly d+1:
        # each hyperedge forces affine behaviour on its plane (3 degrees of
        # freedom) and the shared vertex glues them (3+3-1 = 5 = d+1). So
        # the test is rigid, the conic is real, and certification must stop.
        a1, a2 = np.array([1.0, 0, 1, 0]), np.array([0.0, 1, 0, 1])
        b1, b2 = np.array([1.0, 0, -1, 0]), np.array([0.0, 1, 0, -1])
        coords = np.array(
            [np.zeros(4), a1, a2, a1 + a2, a1 - a2, b1, b2, b1 + b2, b1 - b2]
        )
        theta = Hypergraph.from_hyperedges(9, [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]])
        fw = Framework(theta, coords)
        verdict = affine_rigidity_test(fw)
        assert verdict.verdict == RIGID
        assert verdict.corank == 5
        assert conic_at_infinity_test(fw)
        result = universal_rigidity_certificate(fw)
        assert not result.certified
        assert "conic" in result.certificate

    def test_improper_is_inconclusive(self):
        theta = Hypergraph.from_hyperedges(4, [[0, 1, 2, 3]])
        collinear = np.array([[float(i), float(i)] for i in range(4)])
        result = universal_rigidity_certificate(Framework(theta, collinear))
        assert not result.certified

    @pytest.mark.parametrize("via", ["affine-rigidity", "psd-stress"])
    def test_improper_graph_is_inconclusive_on_both_routes(self, via):
        # A collinear framework's stress corank may lie below d+1 without
        # any rounding, so it must not reach the NumericalRankError rule.
        collinear = np.array([[float(i), 2.0 * i] for i in range(7)])
        result = universal_rigidity_certificate(
            Framework(wheel_graph(6), collinear), via=via, seed=59)
        assert not result.certified
        assert "not applicable" in result.certificate

    def test_psd_route_on_honeycomb(self):
        gamma = hexagonal_torus(3, 3)
        fw = generic_framework(gamma, 2, seed=53)
        result = universal_rigidity_certificate(fw, via="psd-stress", seed=54)
        assert result.certified
        assert result.target == "squared-graph framework"
        psd = result.stress
        assert psd is not None and psd.symmetric
        v = gamma.vertex_count
        eigs = np.linalg.eigvalsh(psd.matrix)
        assert eigs[0] >= -1e-10 * eigs[-1]
        assert int(np.count_nonzero(eigs > 1e-9 * eigs[-1])) == v - 3
        squared = Framework(squared_graph(gamma), fw.coordinates)
        res = stress_residuals(psd, squared)
        assert res["sparsity"] <= 1e-12
        assert res["row_sum"] <= 1e-8
        assert res["kernel_residual"] <= 1e-8
        assert res["symmetry"] <= 1e-12

    def test_psd_route_declines_on_star(self):
        fw = generic_framework(star_graph(5), 2, seed=55)
        result = universal_rigidity_certificate(fw, via="psd-stress", seed=56)
        assert not result.certified
        assert "corank" in result.certificate

    def test_unknown_route(self):
        fw = generic_framework(complete_graph(4), 2, seed=57)
        with pytest.raises(InvalidInputError):
            universal_rigidity_certificate(fw, via="magic")

    def test_psd_route_needs_graph(self):
        fw = generic_framework(pentagon_hypergraph(), 2, seed=58)
        with pytest.raises(InvalidInputError):
            universal_rigidity_certificate(fw, via="psd-stress")


class TestDimensionGuard:
    """One guard rejects a non-positive dimension in all three entry points."""

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize("call", [
        lambda d: field_affinity_corank(complete_graph(4), d, [[]] * 4),
        lambda d: generic_affine_rigidity_test(complete_graph(4), d, seed=1),
        lambda d: rubber_band_embedding(complete_graph(4), d, seed=1),
    ], ids=["field_affinity_corank", "generic_affine_rigidity_test",
            "rubber_band_embedding"])
    def test_non_positive_dimension_raises(self, call, d):
        with pytest.raises(InvalidInputError, match="dimension must be positive"):
            call(d)


@pytest.fixture
def sparse_builders(monkeypatch):
    monkeypatch.setattr(rigidity, "_SPARSE_MIN_COLUMNS", 0)


class TestSparseStorage:
    """From ``_SPARSE_MIN_COLUMNS`` columns on, the builders store the same
    entries as a ``SparseMatrix``, and every reader accepts it."""

    def test_default_threshold_splits_benchmark_sizes(self):
        small = generic_framework(neighborhood_hypergraph(hexagonal_torus(15, 15)), 2,
                                  seed=1)
        large = generic_framework(neighborhood_hypergraph(hexagonal_torus(16, 16)), 2,
                                  seed=1)
        assert isinstance(strong_affinity_matrix(small).matrix, np.ndarray)
        assert isinstance(strong_affinity_matrix(large).matrix, numkernel.SparseMatrix)

    def test_same_entries_on_both_routes(self, monkeypatch):
        fw = generic_framework(hexagonal_torus(4, 4), 2, seed=2)
        nbh = Framework(neighborhood_hypergraph(fw.structure), fw.coordinates)
        dense = (strong_affinity_matrix(nbh).matrix,
                 nonsymmetric_stress(fw, seed=3).matrix)
        monkeypatch.setattr(rigidity, "_SPARSE_MIN_COLUMNS", 0)
        sparse = (strong_affinity_matrix(nbh).matrix,
                  nonsymmetric_stress(fw, seed=3).matrix)
        for d, s in zip(dense, sparse):
            assert isinstance(s, numkernel.SparseMatrix)
            np.testing.assert_array_equal(s.toarray(), d)

    def test_residuals_match_the_dense_ones(self, monkeypatch):
        gamma = trilateration_graph(12, 2, seed=4)
        fw = generic_framework(gamma, 2, seed=5)
        nbh = Framework(neighborhood_hypergraph(gamma), fw.coordinates)
        dense = (affinity_residuals(strong_affinity_matrix(nbh), nbh),
                 stress_residuals(nonsymmetric_stress(fw, seed=6), fw))
        monkeypatch.setattr(rigidity, "_SPARSE_MIN_COLUMNS", 0)
        sparse = (affinity_residuals(strong_affinity_matrix(nbh), nbh),
                  stress_residuals(nonsymmetric_stress(fw, seed=6), fw))
        for d, s in zip(dense, sparse):
            assert s.keys() == d.keys()
            for key in d:
                assert s[key] == pytest.approx(d[key], rel=1e-6, abs=1e-14), key

    def test_off_support_and_non_edge_entries_are_reported(self, sparse_builders):
        gamma = trilateration_graph(10, 2, seed=3)
        fw = generic_framework(gamma, 2, seed=103)
        stress = nonsymmetric_stress(fw, seed=3).matrix
        u, w = next(
            (u, w) for u in range(10) for w in range(u) if not gamma.has_edge(u, w)
        )
        tampered = numkernel.SparseMatrix(
            np.append(stress.rows, u), np.append(stress.cols, w),
            np.append(stress.values, -0.25), stress.shape)
        assert stress_residuals(StressMatrix(tampered, False), fw)["sparsity"] == 0.25
        nbh = Framework(neighborhood_hypergraph(gamma), fw.coordinates)
        affinity = strong_affinity_matrix(nbh)
        support = nbh.structure.hyperedges[affinity.row_provenance[0]]
        outside = next(c for c in range(10) if c not in support)
        matrix = affinity.matrix
        bad = AffinityMatrix(numkernel.SparseMatrix(
            np.append(matrix.rows, 0), np.append(matrix.cols, outside),
            np.append(matrix.values, 0.5), matrix.shape), affinity.row_provenance, True)
        assert affinity_residuals(bad, nbh)["off_support"] == 0.5

    def test_psd_route_certifies_with_a_sparse_stress(self, sparse_builders):
        gamma = hexagonal_torus(3, 3)
        fw = generic_framework(gamma, 2, seed=53)
        result = universal_rigidity_certificate(fw, via="psd-stress", seed=54)
        assert result.certified
        assert isinstance(result.stress.matrix, numkernel.SparseMatrix)
        eigs = np.linalg.eigvalsh(result.stress.matrix.toarray())
        assert int(np.count_nonzero(eigs > 1e-9 * eigs[-1])) == gamma.vertex_count - 3
        res = stress_residuals(result.stress, Framework(squared_graph(gamma),
                                                        fw.coordinates))
        assert res["sparsity"] <= 1e-12 and res["symmetry"] <= 1e-12
