"""Tests for scan registration: affine assembly, gauge removal, pipelines."""

import numpy as np
import pytest

from affrig.errors import (
    InconsistentLengthsError,
    InconsistentScansError,
    InvalidInputError,
    NonUniqueTransformError,
    NotAffinelyRigidError,
    UnsupportedInstanceError,
)
from affrig.families import (
    complete_k_hypergraph,
    fig1_hypergraph,
    generic_framework,
    hexagonal_torus,
    pentagon_hypergraph,
    trilateration_graph,
)
from affrig.hypergraph import Graph, Hypergraph, neighborhood_hypergraph
from affrig.numkernel import least_squares, numerical_kernel, psd_cholesky
from affrig.registration import (
    AFFINE,
    EUCLIDEAN,
    Registration,
    Scan,
    ScanSet,
    SizeClass,
    _configuration_from_kernel,
    _diameter,
    _scan_residuals,
    _symmetric_from_packed,
    affine_register,
    best_fit_affine,
    best_fit_euclidean,
    euclidean_register,
    remove_affine,
    synthetic_scan_set,
)
from affrig.numkernel import DEFAULT_REL_TOL
from affrig.rigidity import (
    Framework,
    _affinity_from_blocks,
    _direction_monomials,
    affinity_corank,
    conic_at_infinity_test,
    generic_affine_rigidity_test,
    strong_affinity_matrix,
)


def distance_matrix(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def diameter(points):
    return distance_matrix(points).max()


def chart_affinity(scans, rel_tol=DEFAULT_REL_TOL):
    """The affinity matrix built from the scans' own charts."""
    return _affinity_from_blocks(scans.vertex_count, scans.classes, rel_tol)


def rigid_scan_source(seed, vertex_count=7):
    """A generic affinely rigid test bed: all 4-subsets of a point cloud."""
    theta = complete_k_hypergraph(vertex_count, 4)
    return generic_framework(theta, 2, seed=seed)


class TestScanTypes:
    def test_scan_validation(self):
        with pytest.raises(InvalidInputError):
            Scan((), np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            Scan((0, 0), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            Scan((0, 1, 2), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            Scan((0, 1), np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_scan_set_validation(self):
        scan = Scan((0, 1), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            ScanSet(2, (scan,), "metric")
        with pytest.raises(InvalidInputError):
            ScanSet(2, (), "affine")
        with pytest.raises(InvalidInputError):
            ScanSet(1, (scan,), "affine")
        mixed = (scan, Scan((0, 1), np.zeros((2, 3))))
        with pytest.raises(InvalidInputError):
            ScanSet(2, mixed, "affine")

    def test_size_classes_reject_a_repeated_member(self):
        good = SizeClass(np.array([0]), np.array([[0, 1, 2]]), np.zeros((1, 3, 2)))
        repeated = SizeClass(np.array([1]), np.array([[0, 0, 1]]), np.zeros((1, 3, 2)))
        with pytest.raises(InvalidInputError, match="scan 1: .*distinct"):
            ScanSet.from_classes(3, [good, repeated], "affine")

    def test_size_classes_reject_a_non_finite_chart(self):
        for bad in (np.nan, np.inf, -np.inf):
            charts = np.zeros((2, 3, 2))
            charts[1, 2, 0] = bad
            size_class = SizeClass(np.array([0, 1]), np.array([[0, 1, 2], [1, 2, 3]]),
                                   charts)
            with pytest.raises(InvalidInputError, match="scan 1: .*non-finite"):
                ScanSet.from_classes(4, [size_class], "affine")

    def test_scan_set_accessors(self):
        framework = rigid_scan_source(seed=5)
        scans = synthetic_scan_set(framework, seed=0)
        assert scans.dim == 2
        assert scans.covered_vertices() == set(range(7))
        assert scans.hypergraph().vertex_count == 7
        with pytest.raises(AttributeError):
            scans.vertex_count = 3

    def test_hypergraph_in_scan_order_without_building_scans(self):
        # Sizes 3, 2, 4, 2, 3 interleave the size classes.
        scans = [Scan(members, np.arange(2.0 * len(members)).reshape(-1, 2))
                 for members in [(0, 1, 2), (2, 3), (3, 4, 5, 0), (4, 5), (1, 2, 3)]]
        scan_set = ScanSet(6, scans, "affine")
        theta = scan_set.hypergraph()
        assert "scans" not in scan_set.__dict__
        assert theta == Hypergraph.from_hyperedges(6, [s.members for s in scans])
        assert theta == Hypergraph.from_hyperedges(
            6, [s.members for s in scan_set.scans])

    def test_registration_config_is_frozen(self):
        reg = Registration(np.zeros((3, 2)), "affine", {})
        with pytest.raises(ValueError):
            reg.config[0, 0] = 1.0


class TestBestFit:
    def test_affine_recovers_known_map(self):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((9, 3))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        fitted_a, fitted_b, error = best_fit_affine(points, points @ a.T + b)
        assert np.allclose(fitted_a, a, atol=1e-10)
        assert np.allclose(fitted_b, b, atol=1e-10)
        assert error <= 1e-10

    def test_euclidean_recovers_known_motion(self):
        rng = np.random.default_rng(12)
        points = rng.standard_normal((8, 2))
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        t = rng.standard_normal(2)
        rotation, shift, error = best_fit_euclidean(points, points @ q.T + t)
        assert np.allclose(rotation, q, atol=1e-10)
        assert np.allclose(shift, t, atol=1e-10)
        assert error <= 1e-10

    def test_euclidean_allows_reflection(self):
        rng = np.random.default_rng(13)
        points = rng.standard_normal((6, 2))
        mirror = np.array([[1.0, 0.0], [0.0, -1.0]])
        rotation, _, error = best_fit_euclidean(points, points @ mirror)
        assert error <= 1e-10
        assert np.linalg.det(rotation) < 0

    def test_euclidean_stays_orthogonal_under_stretch(self):
        # Best rigid motion to a stretched copy cannot fit exactly, but the
        # returned map must still be orthogonal.
        rng = np.random.default_rng(14)
        points = rng.standard_normal((10, 2))
        rotation, _, error = best_fit_euclidean(points, points * 3.0)
        assert np.allclose(rotation @ rotation.T, np.eye(2), atol=1e-10)
        assert error > 0.1


class TestAffineRegister:
    def test_round_trip_up_to_affine(self):
        framework = rigid_scan_source(seed=21)
        scans = synthetic_scan_set(framework, seed=22)
        result = affine_register(scans)
        assert result.gauge == "affine"
        assert result.diagnostics["corank"] == 3
        _, _, error = best_fit_affine(framework.coordinates, result.config)
        assert error <= 1e-7 * diameter(result.config)

    def test_neighborhood_scans_of_torus(self):
        gamma = hexagonal_torus(3, 3)
        framework = generic_framework(gamma, 2, seed=31)
        nbh = Framework(neighborhood_hypergraph(gamma), framework.coordinates)
        scans = synthetic_scan_set(nbh, seed=32)
        result = affine_register(scans)
        _, _, error = best_fit_affine(framework.coordinates, result.config)
        assert error <= 1e-7 * diameter(result.config)

    @pytest.mark.parametrize("shift", [1e4, 1e6])
    def test_scans_far_from_the_origin(self, shift):
        # Charts sitting far from their origin still give corank d+1, since
        # each is centered and scaled before its relations are read.
        gamma = hexagonal_torus(6, 6)
        framework = generic_framework(gamma, 2, seed=3)
        moved = Framework(neighborhood_hypergraph(gamma), framework.coordinates + shift)
        result = affine_register(synthetic_scan_set(moved, seed=4))
        assert result.diagnostics["corank"] == 3
        _, _, error = best_fit_affine(framework.coordinates, result.config)
        assert error <= 1e-7 * diameter(result.config)

    def test_recharting_changes_output_only_affinely(self):
        framework = rigid_scan_source(seed=41)
        configs = []
        for chart_seed in (1, 2, 3):
            scans = synthetic_scan_set(framework, seed=chart_seed)
            configs.append(affine_register(scans).config)
        for other in configs[1:]:
            _, _, error = best_fit_affine(configs[0], other)
            assert error <= 1e-8 * diameter(other)

    def test_deterministic_for_fixed_input(self):
        framework = rigid_scan_source(seed=42)
        scans = synthetic_scan_set(framework, seed=43)
        first = affine_register(scans)
        second = affine_register(scans)
        assert np.array_equal(first.config, second.config)

    def test_gauge_normalization(self):
        framework = rigid_scan_source(seed=51)
        config = affine_register(synthetic_scan_set(framework, seed=52)).config
        assert np.allclose(config[0], 0.0, atol=1e-12)
        centered = config - config.mean(axis=0)
        gram = centered.T @ centered
        # Columns come out of an orthonormal kernel basis: orthogonal axes.
        assert abs(gram[0, 1]) <= 1e-10 * max(gram[0, 0], gram[1, 1])

    def test_flexible_hypergraph_is_rejected_with_corank(self):
        framework = generic_framework(pentagon_hypergraph(), 2, seed=61)
        scans = synthetic_scan_set(framework, seed=62)
        with pytest.raises(NotAffinelyRigidError) as info:
            affine_register(scans)
        assert info.value.corank == 5
        assert info.value.expected == 3

    def test_small_scans_only(self):
        framework = generic_framework(fig1_hypergraph(), 2, seed=63)
        scans = synthetic_scan_set(framework, seed=64)
        with pytest.raises(NotAffinelyRigidError) as info:
            affine_register(scans)
        assert info.value.corank == 6

    def test_rejection_agrees_with_generic_tester(self):
        structures = [
            complete_k_hypergraph(6, 4),
            pentagon_hypergraph(),
            fig1_hypergraph(),
            neighborhood_hypergraph(hexagonal_torus(3, 3)),
            neighborhood_hypergraph(trilateration_graph(8, 2, seed=3)),
        ]
        for index, theta in enumerate(structures):
            generic = generic_affine_rigidity_test(theta, 2, seed=index)
            framework = generic_framework(theta, 2, seed=100 + index)
            scans = synthetic_scan_set(framework, seed=200 + index)
            if generic.verdict == "rigid":
                affine_register(scans)
            else:
                with pytest.raises(NotAffinelyRigidError):
                    affine_register(scans)

    def test_noise_above_tolerance_is_inconsistent(self):
        framework = rigid_scan_source(seed=71)
        scans = synthetic_scan_set(framework, seed=72, noise=1e-3)
        with pytest.raises(InconsistentScansError):
            affine_register(scans)

    def test_noise_below_tolerance_completes(self):
        framework = rigid_scan_source(seed=73)
        scans = synthetic_scan_set(framework, seed=74, noise=1e-5)
        result = affine_register(scans, rel_tol=1e-3)
        assert result.diagnostics["corank"] == 3
        assert max(result.diagnostics["scan_residuals"]) <= 1e-3

    def test_single_full_scan(self):
        rng = np.random.default_rng(44)
        chart = rng.standard_normal((6, 2))
        scans = ScanSet(6, (Scan(tuple(range(6)), chart),), "affine")
        result = affine_register(scans)
        _, _, error = best_fit_affine(chart, result.config)
        assert error <= 1e-10 * diameter(result.config)

    def test_uncovered_vertex(self):
        scan = Scan((0, 1, 2, 3), np.random.default_rng(0).standard_normal((4, 2)))
        scans = ScanSet(5, (scan,), "affine")
        with pytest.raises(InvalidInputError, match=r"1 of 5 .* the first \[4\]"):
            affine_register(scans)

    def test_far_label_gives_a_short_message(self):
        # The check and its message scale with the scans, not the largest label.
        scan = Scan((0, 1, 2, 3_000_000), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        scans = ScanSet(3_000_001, (scan,), "affine")
        assert scans.covered_vertices() == {0, 1, 2, 3_000_000}
        with pytest.raises(InvalidInputError) as info:
            affine_register(scans)
        assert str(info.value) == (
            "2999997 of 3000001 vertices appear in no scan, the first [3, 4, 5, 6, 7]"
        )

    def test_fewer_than_d_plus_one_vertices(self):
        # The guard shared with the rigidity tests, same type and message.
        scans = ScanSet(2, (Scan((0, 1), [[0.0, 0.0], [1.0, 0.0]]),), "affine")
        with pytest.raises(UnsupportedInstanceError, match="need at least d"):
            affine_register(scans)

    def test_diagnostics_shape(self):
        framework = rigid_scan_source(seed=81)
        result = affine_register(synthetic_scan_set(framework, seed=82))
        diag = result.diagnostics
        assert diag["kernel_gap"] <= 1e-9
        assert diag["rank_margin"] > 1e-6
        assert len(diag["scan_residuals"]) == 35
        assert max(diag["scan_residuals"]) <= 1e-8

    def test_margins_match_singular_value_oracle(self):
        # Both margins are ratios to sigma_max, so the tolerance is 1e-10 of
        # sigma_max; kernel_gap of the clean scans sits at rounding level.
        for noise, tol in ((0.0, DEFAULT_REL_TOL), (1e-5, 1e-3)):
            framework = rigid_scan_source(seed=83)
            scans = synthetic_scan_set(framework, seed=84, noise=noise)
            diag = affine_register(scans, rel_tol=tol).diagnostics
            s = np.linalg.svd(chart_affinity(scans, tol).matrix, compute_uv=False)
            rank = scans.vertex_count - diag["corank"]
            assert diag["rank_margin"] == pytest.approx(
                s[rank - 1] / s[0], rel=1e-10, abs=1e-10
            )
            assert diag["kernel_gap"] == pytest.approx(
                s[rank] / s[0], rel=1e-10, abs=1e-10
            )


class TestSharedAffinityBuilder:
    def test_charts_and_framework_give_the_same_matrix(self):
        structures = [
            complete_k_hypergraph(7, 4),
            neighborhood_hypergraph(hexagonal_torus(3, 3)),
            pentagon_hypergraph(),
        ]
        for index, theta in enumerate(structures):
            framework = generic_framework(theta, 2, seed=300 + index)
            scans = synthetic_scan_set(framework, trust="affine", seed=400 + index)
            from_framework = strong_affinity_matrix(framework)
            from_charts = chart_affinity(scans)
            assert from_charts.row_provenance == from_framework.row_provenance
            assert affinity_corank(from_charts) == affinity_corank(from_framework)
            provenance = np.array(from_framework.row_provenance)
            for block in range(len(theta.hyperedges)):
                # Rows of one block are orthonormal, so R.T @ R projects onto
                # that block's relation space.
                a = from_framework.matrix[provenance == block]
                b = from_charts.matrix[provenance == block]
                np.testing.assert_allclose(a.T @ a, b.T @ b, atol=1e-9)


def looped_affinity(vertex_count, blocks, rel_tol=DEFAULT_REL_TOL):
    """Oracle: one ``numerical_kernel`` per block, stacked in block order.

    Each chart is centered and scaled to unit RMS radius first (a chart of
    coincident points is only centered), as `_affinity_from_blocks` does.
    """
    pieces, provenance = [np.zeros((0, vertex_count))], []
    for index, (members, chart) in enumerate(blocks):
        chart = np.asarray(chart, float)
        centered = chart - chart.mean(axis=0)
        radius = np.sqrt(np.sum(centered * centered) / len(members))
        if radius > 0:
            centered = centered / radius
        lift = np.vstack([np.ones(len(members)), centered.T])
        kernel = numerical_kernel(lift, rel_tol)
        block = np.zeros((kernel.dimension, vertex_count))
        block[:, list(members)] = kernel.basis.T
        pieces.append(block)
        provenance += [index] * kernel.dimension
    return np.vstack(pieces), tuple(provenance)


def looped_registration(scans):
    """Oracle: per-block kernels, then per-pair lengths and directions."""
    v, d = scans.vertex_count, scans.dim
    matrix, _ = looped_affinity(
        v, [(scan.members, scan.coordinates) for scan in scans.scans]
    )
    config = _configuration_from_kernel(numerical_kernel(matrix).basis, d)
    if scans.trust == AFFINE:
        return config
    lengths = []
    for scan in scans.scans:
        c = scan.coordinates
        for a in range(len(scan.members)):
            for b in range(a + 1, len(scan.members)):
                squared = float(np.sum((c[a] - c[b]) ** 2))
                lengths.append((scan.members[a], scan.members[b], squared))
    directions = np.array([config[u] - config[w] for u, w, _ in lengths])
    packed = least_squares(
        _direction_monomials(directions), [squared for _, _, squared in lengths]
    )
    return config @ psd_cholesky(_symmetric_from_packed(packed, d))


class TestStackedAgainstLoops:
    def test_affinity_equals_per_block_kernels(self):
        rng = np.random.default_rng(41)
        points = rng.standard_normal((9, 2))
        points[[5, 6, 7]] = [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]
        blocks = [
            ([0, 1, 2, 3], points[[0, 1, 2, 3]]),
            ([4, 5, 6, 7], points[[4, 5, 6, 7]]),  # 5, 6, 7 collinear
            ([1, 8], points[[1, 8]]),  # fewer than d+1 points
            ([2, 3, 4, 5, 6, 8], points[[2, 3, 4, 5, 6, 8]]),
            ([5, 6, 7], points[[5, 6, 7]]),  # collinear triangle
            ([0, 8, 3, 1], points[[0, 8, 3, 1]]),
            ([7], points[[7]]),
        ]
        classes = ScanSet(9, [Scan(*block) for block in blocks], AFFINE).classes
        built = _affinity_from_blocks(9, classes, DEFAULT_REL_TOL)
        matrix, provenance = looped_affinity(9, blocks)
        assert np.array_equal(built.matrix, matrix)
        assert built.row_provenance == provenance
        assert _affinity_from_blocks(9, [], DEFAULT_REL_TOL).matrix.shape == (0, 9)

    @pytest.mark.parametrize("fit", [best_fit_affine, best_fit_euclidean])
    def test_stacked_fits_match_single_fits(self, fit):
        rng = np.random.default_rng(42)
        source = rng.standard_normal((6, 5, 3))
        source[2] = np.outer(rng.standard_normal(5), [1.0, 2.0, -1.0])  # collinear
        source[3, :, 2] = 0.0  # flat
        target = source @ rng.standard_normal((3, 3)) + 0.01 * rng.standard_normal(
            (6, 5, 3)
        )
        maps, shifts, errors = fit(source, target)
        assert maps.shape == (6, 3, 3) and shifts.shape == (6, 3)
        for i in range(6):
            one_map, one_shift, one_error = fit(source[i], target[i])
            assert isinstance(one_error, float)
            np.testing.assert_allclose(maps[i], one_map, rtol=0, atol=1e-12)
            np.testing.assert_allclose(shifts[i], one_shift, rtol=0, atol=1e-12)
            assert abs(errors[i] - one_error) <= 1e-12
            if fit is best_fit_affine:
                design = np.hstack([source[i], np.ones((5, 1))])
                solution, *_ = np.linalg.lstsq(design, target[i], rcond=None)
                np.testing.assert_allclose(one_map, solution[:-1].T, atol=1e-12)
                np.testing.assert_allclose(one_shift, solution[-1], atol=1e-12)

    @pytest.mark.parametrize("trust", [AFFINE, EUCLIDEAN])
    @pytest.mark.parametrize(
        "theta",
        [neighborhood_hypergraph(hexagonal_torus(6, 6)), complete_k_hypergraph(8, 4)],
        ids=["N(H(6,6))", "K(8,4)"],
    )
    def test_registration_equals_loop_oracle(self, theta, trust):
        framework = generic_framework(theta, 2, seed=43)
        scans = synthetic_scan_set(framework, trust=trust, seed=44)
        register = affine_register if trust == AFFINE else euclidean_register
        result = register(scans)
        assert np.array_equal(result.config, looped_registration(scans))
        truth = framework.coordinates
        fit = best_fit_affine if trust == AFFINE else best_fit_euclidean
        # Off the solution, each scan's residual differs: a scan fitted
        # against another's rows would show.
        moved = result.config + 1e-3 * np.random.default_rng(45).standard_normal(
            result.config.shape
        )
        residuals = [
            fit(scan.coordinates, moved[list(scan.members)])[2] / _diameter(moved)
            for scan in scans.scans
        ]
        np.testing.assert_allclose(
            _scan_residuals(scans, moved, trust), residuals, rtol=1e-10, atol=0
        )
        assert fit(truth, result.config)[2] <= 1e-8 * diameter(truth)


class TestRemoveAffine:
    def pinned(self, config):
        return Registration(config, "affine", {"corank": config.shape[1] + 1})

    def all_pairs_lengths(self, config):
        v = config.shape[0]
        return [
            (u, w, float(np.sum((config[u] - config[w]) ** 2)))
            for u in range(v)
            for w in range(u + 1, v)
        ]

    def test_identity_when_lengths_already_match(self):
        rng = np.random.default_rng(91)
        config = rng.standard_normal((6, 2))
        result = remove_affine(self.pinned(config), self.all_pairs_lengths(config))
        assert result.gauge == "euclidean"
        assert result.diagnostics["length_error"] <= 1e-10
        assert np.allclose(result.config, config, atol=1e-8)

    def test_undoes_known_stretch(self):
        rng = np.random.default_rng(92)
        truth = rng.standard_normal((7, 2))
        stretched = truth @ np.array([[2.0, 0.7], [0.0, 0.5]])
        result = remove_affine(self.pinned(stretched), self.all_pairs_lengths(truth))
        assert np.allclose(
            distance_matrix(result.config), distance_matrix(truth), atol=1e-8
        )

    def test_undoes_random_gauge_on_quad(self):
        rng = np.random.default_rng(94)
        truth = rng.standard_normal((4, 2))
        gauge = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        skewed = truth @ gauge.T
        result = remove_affine(self.pinned(skewed), self.all_pairs_lengths(truth))
        _, _, error = best_fit_euclidean(result.config, truth)
        assert error <= 1e-7 * diameter(truth)
        assert result.diagnostics["conic_margin"] > 1e-6

    def test_two_direction_lengths_are_degenerate(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        axis_pairs = [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0)]
        with pytest.raises(NonUniqueTransformError):
            remove_affine(self.pinned(square), axis_pairs)

    def test_uniqueness_matches_conic_oracle(self):
        # The fit decides uniqueness on its own monomial system; the conic
        # test on the graph of measured pairs is the reference.
        rng = np.random.default_rng(95)
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        outcomes = []
        for case in range(40):
            if case % 4 == 0:  # axis-aligned square or rectangle
                config = square * rng.uniform(0.5, 3.0, 2) + rng.standard_normal(2)
            else:
                d = 2 + case % 2
                config = rng.standard_normal((int(rng.integers(d + 1, d + 5)), d))
            v, d = config.shape
            pairs = [(u, w) for u in range(v) for w in range(u + 1, v)]
            count = int(rng.integers(1, min(len(pairs), 3 * d) + 1))
            picked = rng.choice(len(pairs), count, replace=False)
            measured = [pairs[i] for i in picked]
            measured += [(w, u) for u, w in measured[: count // 2]]  # measured twice
            gauge = rng.standard_normal((d, d)) + 2 * np.eye(d)
            lengths = [
                (u, w, float(np.sum((gauge @ (config[u] - config[w])) ** 2)))
                for u, w in measured
            ]
            on_conic = conic_at_infinity_test(
                Framework(Graph.from_edges(v, measured), config)
            )
            outcomes.append(on_conic)
            if on_conic:
                with pytest.raises(NonUniqueTransformError):
                    remove_affine(self.pinned(config), lengths)
                continue
            result = remove_affine(self.pinned(config), lengths)
            directions = np.array([config[u] - config[w] for u, w in measured])
            design = np.column_stack(
                [
                    (1 if i == j else 2) * directions[:, i] * directions[:, j]
                    for i in range(d)
                    for j in range(i, d)
                ]
            )
            spectrum = np.linalg.svd(design, compute_uv=False)
            assert result.diagnostics["conic_margin"] == pytest.approx(
                spectrum[-1] / spectrum[0], abs=1e-12
            )
        assert 10 <= sum(outcomes) <= 30

    def test_impossible_lengths_are_inconsistent(self):
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lengths = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 100.0)]
        with pytest.raises(InconsistentLengthsError):
            remove_affine(self.pinned(triangle), lengths)

    def test_input_validation(self):
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        reg = self.pinned(triangle)
        with pytest.raises(InvalidInputError):
            remove_affine(reg, [])
        with pytest.raises(InvalidInputError):
            remove_affine(reg, [(0, 0, 1.0)])
        with pytest.raises(InvalidInputError):
            remove_affine(reg, [(0, 3, 1.0)])
        with pytest.raises(InvalidInputError):
            remove_affine(reg, [(0, 1, 0.0)])
        with pytest.raises(InvalidInputError):
            remove_affine(reg, [(0, 1, -2.0)])
        euclidean = Registration(triangle, "euclidean", {})
        with pytest.raises(InvalidInputError):
            remove_affine(euclidean, [(0, 1, 1.0)])

    def test_least_squares_averages_conflicting_lengths(self):
        rng = np.random.default_rng(93)
        config = rng.standard_normal((6, 2))
        lengths = self.all_pairs_lengths(config)
        jittered = [(u, w, sq * (1 + 1e-6)) for u, w, sq in lengths]
        result = remove_affine(self.pinned(config), lengths + jittered)
        assert result.diagnostics["length_error"] <= 1e-5


class TestEuclideanRegister:
    def test_round_trip_up_to_congruence(self):
        framework = rigid_scan_source(seed=101)
        scans = synthetic_scan_set(framework, trust="euclidean", seed=102)
        result = euclidean_register(scans)
        assert result.gauge == "euclidean"
        truth = framework.coordinates
        assert np.allclose(
            distance_matrix(result.config),
            distance_matrix(truth),
            atol=1e-6 * diameter(truth),
        )
        _, _, error = best_fit_euclidean(result.config, truth)
        assert error <= 1e-6 * diameter(truth)

    def test_torus_neighborhood_round_trip(self):
        gamma = hexagonal_torus(3, 3)
        base = generic_framework(gamma, 2, seed=111)
        nbh = Framework(neighborhood_hypergraph(gamma), base.coordinates)
        scans = synthetic_scan_set(nbh, trust="euclidean", seed=112)
        result = euclidean_register(scans)
        truth = base.coordinates
        assert np.allclose(
            distance_matrix(result.config),
            distance_matrix(truth),
            atol=1e-6 * diameter(truth),
        )

    def test_three_dimensional_round_trip(self):
        theta = complete_k_hypergraph(8, 5)
        framework = generic_framework(theta, 3, seed=121)
        scans = synthetic_scan_set(framework, trust="euclidean", seed=122)
        result = euclidean_register(scans)
        truth = framework.coordinates
        assert np.allclose(
            distance_matrix(result.config),
            distance_matrix(truth),
            atol=1e-6 * diameter(truth),
        )

    def test_single_full_scan_is_identity_pipeline(self):
        rng = np.random.default_rng(133)
        chart = rng.standard_normal((5, 2))
        scans = ScanSet(5, (Scan(tuple(range(5)), chart),), "euclidean")
        result = euclidean_register(scans)
        assert np.allclose(
            distance_matrix(result.config),
            distance_matrix(chart),
            atol=1e-8 * diameter(chart),
        )

    def test_requires_metric_trust(self):
        framework = rigid_scan_source(seed=131)
        scans = synthetic_scan_set(framework, trust="affine", seed=132)
        with pytest.raises(InvalidInputError):
            euclidean_register(scans)

    def test_noisy_pipeline_completes_with_small_residual(self):
        noise = 1e-4
        framework = rigid_scan_source(seed=141)
        scans = synthetic_scan_set(
            framework, trust="euclidean", seed=142, noise=noise
        )
        result = euclidean_register(scans, rel_tol=1e-3)
        assert max(result.diagnostics["scan_residuals"]) <= 10 * noise
        truth = framework.coordinates
        _, _, error = best_fit_euclidean(result.config, truth)
        assert error <= 1e-2 * diameter(truth)

    def test_residuals_use_rigid_fits(self):
        framework = rigid_scan_source(seed=151)
        scans = synthetic_scan_set(framework, trust="euclidean", seed=152)
        result = euclidean_register(scans)
        assert max(result.diagnostics["scan_residuals"]) <= 1e-8
        assert result.diagnostics["length_error"] <= 1e-8


class TestSyntheticScans:
    def test_deterministic(self):
        framework = rigid_scan_source(seed=161)
        first = synthetic_scan_set(framework, seed=7)
        second = synthetic_scan_set(framework, seed=7)
        for a, b in zip(first.scans, second.scans):
            assert a.members == b.members
            assert np.array_equal(a.coordinates, b.coordinates)

    def test_euclidean_charts_preserve_lengths(self):
        framework = rigid_scan_source(seed=171)
        scans = synthetic_scan_set(framework, trust="euclidean", seed=172)
        for scan in scans.scans:
            truth = framework.coordinates[list(scan.members)]
            assert np.allclose(
                distance_matrix(scan.coordinates), distance_matrix(truth), atol=1e-10
            )

    def test_affine_charts_change_lengths(self):
        framework = rigid_scan_source(seed=181)
        scans = synthetic_scan_set(framework, trust="affine", seed=182)
        distorted = 0
        for scan in scans.scans:
            truth = framework.coordinates[list(scan.members)]
            if not np.allclose(
                distance_matrix(scan.coordinates), distance_matrix(truth), rtol=1e-3
            ):
                distorted += 1
        assert distorted > 0

    def test_bad_trust(self):
        framework = rigid_scan_source(seed=191)
        with pytest.raises(InvalidInputError):
            synthetic_scan_set(framework, trust="rigid")
