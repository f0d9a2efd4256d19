from fractions import Fraction

import numpy as np
import pytest

from affrig.errors import InvalidInputError
from affrig.numkernel import (
    DEFAULT_PRIME,
    DEFAULT_REL_TOL,
    PRIME_POOL_60BIT,
    KernelBasis,
    PrimeFieldMatrix,
    SparseMatrix,
    is_prime,
    least_squares,
    numerical_kernel,
    numerical_rank,
    prime_field_corank,
    prime_field_nullspace,
    prime_field_rank,
    psd_cholesky,
    rank_margins,
    singular_value_rank,
)


def fraction_rank(rows):
    """Exact rational rank, the reference for everything mod-q."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * p for x, p in zip(work[r], work[rank])]
        rank += 1
    return rank


class TestNumericalKernel:
    def test_single_row(self):
        k = numerical_kernel([[1.0, -1.0, 0.0]])
        assert k.dimension == 2

    def test_zero_matrix(self):
        k = numerical_kernel(np.zeros((2, 4)))
        assert k.dimension == 4
        np.testing.assert_allclose(k.basis, np.eye(4))

    def test_empty_row_count(self):
        k = numerical_kernel(np.zeros((0, 3)))
        assert k.dimension == 3

    def test_single_hyperedge_affinity(self):
        # One hyperedge containing four generic planar points: its null-space
        # row must annihilate exactly span{1, x, y}, leaving a 3-dim kernel.
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(4, 2))
        lift = np.vstack([np.ones(4), coords.T])
        row_basis = numerical_kernel(lift)
        assert row_basis.dimension == 1
        affinity = row_basis.basis.T
        kernel = numerical_kernel(affinity)
        assert kernel.dimension == 3
        for vec in (np.ones(4), coords[:, 0], coords[:, 1]):
            assert np.linalg.norm(affinity @ vec) <= 1e-9 * np.linalg.norm(affinity)

    def test_basis_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows, cols, inner = rng.integers(1, 9, size=3)
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            k = numerical_kernel(a)
            if k.dimension:
                gram = k.basis.T @ k.basis
                assert np.linalg.norm(gram - np.eye(k.dimension)) <= 1e-10
                image = a @ k.basis
                norm = np.linalg.norm(a, 2)
                assert np.linalg.norm(image, 2) <= k.threshold_used * max(norm, 1e-300)

    def test_rank_plus_kernel_is_cols(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rows, cols, inner = rng.integers(1, 9, size=3)
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            k = numerical_kernel(a)
            assert numerical_rank(a) + k.dimension == cols
            assert numerical_rank(a) == min(rows, cols, inner)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 6)) @ rng.normal(size=(6, 5))
        for scale in (1e-12, 1.0, 1e12):
            assert numerical_kernel(scale * a).dimension == 1

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            numerical_kernel(np.eye(2), rel_tol=0.0)
        with pytest.raises(InvalidInputError):
            numerical_kernel(np.eye(2), rel_tol=1.5)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            numerical_kernel([[1.0, np.nan]])

    def test_result_type(self):
        k = numerical_kernel(np.eye(3))
        assert isinstance(k, KernelBasis)
        assert k.dimension == 0
        assert k.basis.shape == (3, 0)

    def test_tall_input_skips_full_u(self, monkeypatch):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(2000, 2)) @ rng.normal(size=(2, 3))
        _, oracle_s, oracle_vt = np.linalg.svd(a, full_matrices=True)
        svd = np.linalg.svd
        requested = []

        def spy(matrix, *args, **kwargs):
            requested.append(kwargs.get("full_matrices", args[0] if args else True))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        k = numerical_kernel(a)
        square = numerical_kernel(np.eye(3))
        assert requested == [False, False]
        assert square.dimension == 0
        assert k.dimension == 1
        np.testing.assert_allclose(
            k.singular_values, oracle_s, rtol=0, atol=1e-12 * oracle_s[0]
        )
        oracle_kernel = oracle_vt[2:].T
        np.testing.assert_allclose(
            k.basis @ k.basis.T, oracle_kernel @ oracle_kernel.T, atol=1e-10
        )


class TestSingularValueRank:
    def test_rank_and_values_match_the_kernel(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            rows, cols, inner = rng.integers(1, 12, size=3)
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            rank, values = singular_value_rank(a)
            kernel = numerical_kernel(a)
            assert rank == cols - kernel.dimension == min(rows, cols, inner)
            np.testing.assert_allclose(
                values, kernel.singular_values, rtol=0,
                atol=1e-12 * kernel.singular_values[0],
            )

    def test_asks_for_no_vectors(self, monkeypatch):
        svd = np.linalg.svd
        requested = []

        def spy(matrix, *args, **kwargs):
            requested.append(kwargs.get("compute_uv", True))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert singular_value_rank(np.eye(4))[0] == 4
        assert numerical_rank(np.ones((3, 5))) == 1
        assert requested == [False, False]

    def test_empty_and_zero_matrices(self):
        for shape in [(0, 4), (3, 0), (0, 0)]:
            rank, values = singular_value_rank(np.zeros(shape))
            assert rank == 0 and values.shape == (0,)
        rank, values = singular_value_rank(np.zeros((2, 3)))
        assert rank == 0
        np.testing.assert_array_equal(values, [0.0, 0.0])

    def test_same_cutoff_as_the_kernel(self):
        # sigma = 1, 1e-5, 1e-12: the cutoff falls between the last two by
        # default and above the middle one at rel_tol = 1e-4.
        a = np.diag([1.0, 1e-5, 1e-12])
        for rel_tol, rank in [(1e-9, 2), (1e-4, 1), (1e-13, 3)]:
            assert singular_value_rank(a, rel_tol)[0] == rank
            assert numerical_kernel(a, rel_tol).dimension == 3 - rank

    def test_rejects_bad_tol_and_nan(self):
        with pytest.raises(InvalidInputError):
            singular_value_rank(np.eye(2), rel_tol=0.0)
        with pytest.raises(InvalidInputError):
            singular_value_rank(np.zeros((0, 2)), rel_tol=1.0)
        with pytest.raises(InvalidInputError):
            singular_value_rank([[1.0, np.inf]])


class TestPrimality:
    def test_known_values(self):
        assert is_prime(2)
        assert is_prime(DEFAULT_PRIME)
        assert not is_prime(1)
        assert not is_prime(2**61 + 1)
        assert not is_prime(3 * 5 * 7)

    def test_pool_members(self):
        assert len(set(PRIME_POOL_60BIT)) == len(PRIME_POOL_60BIT)
        for q in PRIME_POOL_60BIT:
            assert is_prime(q)
            assert q.bit_length() == 60

    def test_against_sieve(self):
        sieve = [True, True] + [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 45):
            if sieve[i]:
                for j in range(i * i, 2002, i):
                    sieve[j] = False
        for n in range(2002):
            assert is_prime(n) == sieve[n], n


class TestPrimeField:
    def test_identity_rank(self):
        eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert prime_field_rank(PrimeFieldMatrix.from_integers(eye)) == 5

    def test_duplicate_row(self):
        m = PrimeFieldMatrix.from_integers([[1, 2, 3], [1, 2, 3], [0, 1, 1]])
        assert prime_field_rank(m) == 2

    def test_random_square_full_rank(self):
        # Uniform entries make singularity a <= 10/q event per trial; over
        # 1000 trials a single failure would be astronomically unlikely.
        rng = np.random.default_rng(17)
        q = DEFAULT_PRIME
        for _ in range(1000):
            rows = [
                [int(x) for x in rng.integers(0, q, size=10, dtype=np.uint64)]
                for _ in range(10)
            ]
            assert prime_field_rank(PrimeFieldMatrix.from_integers(rows, q)) == 10

    def test_matches_rational_rank(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            m = rng.integers(-1000, 1001, size=(rows, cols))
            if rng.random() < 0.5 and rows > 1:
                m[rows - 1] = m[0] * int(rng.integers(-3, 4))
            expected = fraction_rank(m.tolist())
            got = prime_field_rank(PrimeFieldMatrix.from_integers(m.tolist()))
            assert got == expected

    def test_corank(self):
        m = PrimeFieldMatrix.from_integers([[1, 1, 0], [0, 0, 0]])
        assert prime_field_corank(m) == 2

    def test_nullspace_annihilated(self):
        rng = np.random.default_rng(41)
        q = DEFAULT_PRIME
        for _ in range(25):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = PrimeFieldMatrix.from_integers(
                rng.integers(-50, 51, size=(rows, cols)).tolist(), q
            )
            basis = prime_field_nullspace(m)
            assert len(basis) == prime_field_corank(m)
            for vec in basis:
                assert any(vec)
                for row in m.entries:
                    assert sum(a * x for a, x in zip(row, vec)) % q == 0

    def test_nullspace_of_lift(self):
        # Four planar points with one affine dependence: the kernel of the
        # [ones; coords] lift is one-dimensional.
        lift = [[1, 1, 1, 1], [0, 2, 0, 2], [0, 0, 3, 3]]
        basis = prime_field_nullspace(PrimeFieldMatrix.from_integers(lift))
        assert len(basis) == 1

    @pytest.mark.parametrize("shape", [(3, 7), (3, 3), (4, 2), (1, 5)])
    def test_stacked_nullspace_equals_each_call(self, shape):
        # Small entries make zero leading pivots, low rank and zero rows
        # common; each needs the pivoting fallback.
        rng = np.random.default_rng(43)
        q = PRIME_POOL_60BIT[1]
        stack = rng.integers(-2, 3, size=(60,) + shape) % q
        stack[:20] = rng.integers(0, q, size=(20,) + shape)
        bases = prime_field_nullspace((stack, q))
        assert bases == [
            prime_field_nullspace(PrimeFieldMatrix(tuple(map(tuple, m.tolist())), q))
            for m in stack
        ]
        assert prime_field_nullspace((stack[:0], q)) == []

    def test_negative_entries_reduced(self):
        m = PrimeFieldMatrix.from_integers([[-1, 1]])
        assert m.entries[0][0] == DEFAULT_PRIME - 1
        assert prime_field_rank(m) == 1

    def test_rejects_small_modulus(self):
        with pytest.raises(InvalidInputError):
            PrimeFieldMatrix.from_integers([[1]], modulus=10007)

    def test_rejects_composite_modulus(self):
        with pytest.raises(InvalidInputError):
            PrimeFieldMatrix.from_integers([[1]], modulus=2**61 - 3)

    def test_rejects_unreduced_entries(self):
        with pytest.raises(InvalidInputError):
            PrimeFieldMatrix(((DEFAULT_PRIME,),), DEFAULT_PRIME)

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidInputError):
            PrimeFieldMatrix(((1, 2), (3,)), DEFAULT_PRIME)


class TestLeastSquares:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(least_squares(np.eye(3), b), b)

    def test_overdetermined_consistent(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 3))
        x_true = rng.normal(size=3)
        b = a @ x_true
        x = least_squares(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_minimal_norm_on_dependent_columns(self):
        rng = np.random.default_rng(29)
        base = rng.normal(size=(6, 2))
        a = np.hstack([base, base @ rng.normal(size=(2, 3))])
        b = a @ rng.normal(size=5)
        x = least_squares(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)
        np.testing.assert_allclose(x, np.linalg.pinv(a) @ b, atol=1e-9)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=(7, 4))
            b = rng.normal(size=7)
            x = least_squares(a, b)
            bound = 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)
            assert np.linalg.norm(a.T @ (a @ x - b)) <= bound

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            least_squares(np.eye(3), np.ones(2))


class TestPsdCholesky:
    def test_identity(self):
        np.testing.assert_allclose(psd_cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_cholesky([[4.0, 0.0], [0.0, 9.0]]), [[2.0, 0.0], [0.0, 3.0]]
        )

    def test_round_trip_random_factors(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            factor = np.tril(rng.normal(size=(d, d)))
            g = factor @ factor.T
            lower = psd_cholesky(g)
            assert lower is not None
            assert np.allclose(lower, np.tril(lower))
            norm = max(np.linalg.norm(g), 1e-300)
            assert np.linalg.norm(lower @ lower.T - g) <= 1e-8 * norm

    def test_singular_psd(self):
        u = np.array([[1.0, 2.0, -1.0]])
        g = u.T @ u
        lower = psd_cholesky(g)
        assert lower is not None
        assert np.linalg.norm(lower @ lower.T - g) <= 1e-8 * np.linalg.norm(g)

    def test_slightly_indefinite_is_clipped(self):
        g = np.diag([1.0, -1e-9])
        lower = psd_cholesky(g)
        assert lower is not None
        clipped = np.diag([1.0, 0.0])
        assert np.linalg.norm(lower @ lower.T - clipped) <= 1e-8

    def test_decisively_indefinite(self):
        assert psd_cholesky(np.diag([1.0, -0.5])) is None

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            psd_cholesky([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            psd_cholesky(np.ones((2, 3)))


def as_sparse(dense):
    rows, cols = np.nonzero(dense)
    return SparseMatrix(rows, cols, dense[rows, cols], dense.shape)


class TestSparseMatrix:
    def test_operations_match_dense(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.4)
        b = rng.normal(size=(5, 6)) * (rng.random((5, 6)) < 0.4)
        sa, sb = as_sparse(a), as_sparse(b)
        x = rng.normal(size=5)
        np.testing.assert_allclose(sa @ x, a @ x, atol=1e-14)
        np.testing.assert_allclose(sa @ np.column_stack([x, 2 * x]),
                                   a @ np.column_stack([x, 2 * x]), atol=1e-14)
        np.testing.assert_allclose((sa @ sb).toarray(), a @ b, atol=1e-14)
        np.testing.assert_allclose((sa.T @ sa).toarray(), a.T @ a, atol=1e-14)
        np.testing.assert_allclose((sa - sa).toarray(), np.zeros_like(a))
        assert sa.T.shape == (5, 7)

    def test_coalesced_sums_repeated_cells(self):
        m = SparseMatrix.coalesced([0, 1, 0], [2, 0, 2], [1.0, 3.0, 4.0], (2, 3))
        np.testing.assert_array_equal(m.toarray(), [[0, 0, 5.0], [3.0, 0, 0]])


class TestSparseRoute:
    """``SparseMatrix`` inputs are decided by inverse iteration; the dense
    SVD is the oracle for ranks, kernels, σ_max and margins."""

    @pytest.mark.parametrize("cols, corank", [(2, 1), (12, 11), (40, 3), (60, 25),
                                              (90, 0)])
    def test_rank_kernel_and_margins(self, cols, corank):
        rng = np.random.default_rng(cols)
        rank = cols - corank
        a = rng.normal(size=(cols + 3, rank)) @ rng.normal(size=(rank, cols))
        dense_rank, values = singular_value_rank(a)
        assert dense_rank == rank
        sparse_rank, sparse_values = singular_value_rank(as_sparse(a))
        assert sparse_rank == dense_rank
        assert sparse_values[0] == pytest.approx(values[0], rel=1e-10)
        for mine, oracle in zip(rank_margins(sparse_values, DEFAULT_REL_TOL),
                                rank_margins(values, DEFAULT_REL_TOL)):
            assert mine == pytest.approx(oracle, rel=1e-6, abs=1e-13)
        kernel = numerical_kernel(as_sparse(a))
        assert kernel.dimension == cols - dense_rank
        assert kernel.basis.shape == (cols, cols - dense_rank)
        np.testing.assert_allclose(kernel.basis.T @ kernel.basis,
                                   np.eye(kernel.dimension), atol=1e-12)
        assert np.abs(a @ kernel.basis).max(initial=0.0) <= 1e-12 * values[0]

    def test_zero_and_empty_matrices(self):
        assert singular_value_rank(as_sparse(np.zeros((3, 4))))[0] == 0
        assert numerical_kernel(as_sparse(np.zeros((3, 4)))).dimension == 4
        empty = SparseMatrix(np.zeros(0, int), np.zeros(0, int), np.zeros(0), (0, 5))
        assert singular_value_rank(empty) == (0, pytest.approx(np.zeros(0)))
        assert numerical_kernel(empty).dimension == 5

    def test_rejects_non_finite_entries(self):
        bad = SparseMatrix(np.array([0]), np.array([1]), np.array([np.nan]), (2, 2))
        with pytest.raises(InvalidInputError):
            singular_value_rank(bad)
        with pytest.raises(InvalidInputError):
            numerical_kernel(bad)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = as_sparse(rng.normal(size=(30, 20)) @ np.diag([1.0] * 17 + [0.0] * 3))
        first, second = numerical_kernel(a), numerical_kernel(a)
        np.testing.assert_array_equal(first.basis, second.basis)
        np.testing.assert_array_equal(first.singular_values, second.singular_values)

    def test_rank_margins_read_the_dense_values(self):
        values = np.array([2.0, 1.0, 1e-3, 1e-12, 0.0])
        assert rank_margins(values, 1e-9) == (5e-4, 5e-13)
        assert rank_margins(np.array([3.0, 1.0]), 1e-9) == (1 / 3, 0.0)
        assert rank_margins(np.zeros(0), 1e-9) == (1.0, 0.0)

    def test_shape_holds_plain_ints(self):
        m = SparseMatrix(np.array([0]), np.array([1]), np.array([2.0]),
                         (np.int64(2), np.int64(3)))
        assert m.shape == (2, 3) and all(type(n) is int for n in m.shape)
