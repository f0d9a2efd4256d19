"""Numerical and exact linear algebra underneath the rank tests.

Real matrices are ``numpy`` arrays or ``SparseMatrix`` entry lists, and all
tolerance decisions are made relative to the largest singular value, so the
routines behave identically under global rescaling of the input. Dense
matrices are decided by a LAPACK SVD, sparse ones by inverse iteration on
AᵀA (``_sparse_spectrum``), with numpy alone. Exact arithmetic over a large
prime field uses plain Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import EigensolverError, InvalidInputError

#: Relative singular-value cutoff separating "zero" from "nonzero".
DEFAULT_REL_TOL = 1e-9

#: Relative eigenvalue slack below which a symmetric matrix still counts as PSD.
DEFAULT_PSD_TOL = 1e-7

#: Default modulus for exact rank computations (a Mersenne prime).
DEFAULT_PRIME = 2**61 - 1

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n below 3.3e24.

    Cached, since every ``PrimeFieldMatrix`` checks its modulus and the
    rigidity tests build several with the same few moduli.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_real_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be two-dimensional, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Real matrix stored as its entries in coordinate form.

    ``rows[i]``, ``cols[i]`` and ``values[i]`` give one entry; no cell
    appears twice and every other cell is zero. The affinity and stress
    builders store their matrices this way from
    ``rigidity._SPARSE_MIN_COLUMNS`` columns on, so that no dense array of
    the full shape exists; ``numerical_kernel`` and ``singular_value_rank``
    decide such a matrix by ``_sparse_spectrum``. Products with dense
    vectors and matrices and with other sparse matrices, differences and
    transposes are what the rank tests and their residual checks use.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        # Plain ints, as an ndarray's shape has, whatever computed them.
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))

    @classmethod
    def coalesced(cls, rows, cols, values, shape) -> SparseMatrix:
        """The matrix whose cells hold the sums of the given entries."""
        keys = np.asarray(rows, dtype=np.int64) * shape[1] + np.asarray(cols)
        cells, slot = np.unique(keys, return_inverse=True)
        sums = np.bincount(slot, weights=values, minlength=len(cells))
        return cls(cells // shape[1], cells % shape[1], sums, shape)

    @property
    def T(self) -> SparseMatrix:
        return SparseMatrix(self.cols, self.rows, self.values, self.shape[::-1])

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return self._times_sparse(other)
        x = np.asarray(other, dtype=float)
        if x.ndim == 1:
            return np.bincount(self.rows, self.values * x[self.cols],
                               minlength=self.shape[0])
        product = np.empty((self.shape[0], x.shape[1]))
        for j, column in enumerate(x.T):
            product[:, j] = self @ column
        return product

    def _times_sparse(self, other: SparseMatrix) -> SparseMatrix:
        """Each entry (i, k) of self meets every entry (k, j) of other."""
        order = np.argsort(other.rows, kind="stable")
        keys = other.rows[order]
        first = np.searchsorted(keys, self.cols, side="left")
        count = np.searchsorted(keys, self.cols, side="right") - first
        mine = np.repeat(np.arange(len(self.values)), count)
        theirs = order[
            np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
            + np.repeat(first, count)
        ]
        return SparseMatrix.coalesced(
            self.rows[mine], other.cols[theirs],
            self.values[mine] * other.values[theirs],
            (self.shape[0], other.shape[1]),
        )

    def __sub__(self, other: SparseMatrix) -> SparseMatrix:
        return SparseMatrix.coalesced(
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.values, -other.values]),
            self.shape,
        )

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.values
        return dense


def _as_real_sparse(m: SparseMatrix) -> SparseMatrix:
    if not np.all(np.isfinite(m.values)):
        raise InvalidInputError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of the numerical kernel of a real matrix.

    Attributes
    ----------
    dimension : int
        Number of kernel directions found.
    basis : ndarray, shape (cols, dimension)
        Columns are orthonormal and each is mapped by the source matrix to a
        vector of norm at most ``threshold_used`` times the matrix norm.
    threshold_used : float
        The relative singular-value cutoff that was applied.
    singular_values : ndarray
        The singular values the decision read, σ_max first, from the same
        factorization that produced the basis (see ``singular_value_rank``),
        so callers can report the margins of the rank decision
        (``rank_margins``) without factoring the matrix again.
    """

    dimension: int
    basis: np.ndarray
    threshold_used: float
    singular_values: np.ndarray


def numerical_kernel(m, rel_tol: float = DEFAULT_REL_TOL) -> KernelBasis:
    """Kernel of a real matrix with a relative singular-value cutoff.

    Parameters
    ----------
    m : array_like or SparseMatrix, shape (rows, cols)
        Input matrix; a matrix with no rows has a full kernel.
    rel_tol : float
        Singular values at most ``rel_tol`` times the largest singular value
        are treated as zero. Must lie in (0, 1).

    Returns
    -------
    KernelBasis
        Orthonormal kernel directions as columns. A dense matrix takes them
        from the right singular vectors of one SVD. A ``SparseMatrix``
        takes them from the smallest singular vectors that
        ``_sparse_spectrum`` resolves, keeping each vector x with
        ‖A x‖ ≤ ``rel_tol``·σ_max.
    """
    if isinstance(m, SparseMatrix):
        a = _as_real_sparse(m)
        if a.shape[0] and a.shape[1]:
            rank, s, basis = _sparse_spectrum(a, rel_tol, vectors=True)
            return KernelBasis(a.shape[1] - rank, basis, rel_tol, s)
    else:
        a = _as_real_matrix(m)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        _check_rel_tol(rel_tol)
        return KernelBasis(cols, np.eye(cols), rel_tol, np.zeros(0))
    s, vt, rank = _stacked_kernels(a, rel_tol)
    rank = int(rank)
    # Rank 0 means a zero matrix: a positive largest singular value is above
    # any cutoff below 1 times itself.
    basis = np.eye(cols) if rank == 0 else np.ascontiguousarray(vt[rank:].T)
    return KernelBasis(cols - rank, basis, rel_tol, s)


def _check_rel_tol(rel_tol: float) -> None:
    if not 0 < rel_tol < 1:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")


def _stacked_kernels(
    stack: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernels of a stack of nonempty real matrices from one SVD call.

    ``stack`` has shape (..., rows, cols): one matrix, or any stack of them.
    Returns the singular values (..., min(rows, cols)), the right factors
    (..., cols, cols) and the ranks (...). A slice's rank counts its
    singular values above ``rel_tol`` times its largest, and the rows of
    its right factor from that rank on are an orthonormal basis of its
    kernel, except for a zero slice (rank 0), whose kernel is everything.
    Each slice is factored exactly as a 2-D call on it would be, so its
    results are bit-identical to that call's.
    """
    _check_rel_tol(rel_tol)
    rows, cols = stack.shape[-2:]
    # A wide matrix needs the full V for its kernel; for a tall or square one
    # the thin SVD already yields all of V, and the full U would be rows×rows.
    _, s, vt = np.linalg.svd(stack, full_matrices=rows < cols)
    return s, vt, _rank_above_cutoff(s, rel_tol)


def _rank_above_cutoff(s: np.ndarray, rel_tol: float) -> np.ndarray:
    """How many singular values of each slice exceed ``rel_tol`` times its largest.

    ``s`` is descending along its last axis. Every dense float rank decision
    applies this one cutoff.
    """
    return (s > rel_tol * s[..., :1]).sum(axis=-1)


def _bandwidth_order(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Reverse Cuthill-McKee order of a graph given by its neighbor lists.

    Breadth-first search from a vertex of least degree, visiting each
    vertex's unseen neighbors in order of increasing degree (ties by index),
    restarted the same way on every component; the visiting order, reversed.
    Consecutive positions then hold nearby vertices, which keeps the
    bandwidth of a matrix whose nonzeros follow the graph's edges small.
    """

    def key(u: int) -> tuple[int, int]:
        return len(adjacency[u]), u

    seen = [False] * len(adjacency)
    order: list[int] = []
    for root in sorted(range(len(adjacency)), key=key):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = sorted((w for w in adjacency[order[head]] if not seen[w]), key=key)
            for w in fresh:
                seen[w] = True
            order.extend(fresh)
            head += 1
    order.reverse()
    return order


#: The sparse route factors AᵀA + shift·σ_max²: the shift keeps it positive
#: definite above rounding and is small enough that inverse iteration
#: separates the kernel from singular values down to about 1e-6 σ_max.
_SPARSE_SHIFT = 1e-13

#: Smallest singular pairs the sparse route resolves first; it doubles the
#: count while every pair it resolves is a kernel vector.
_SPARSE_FIRST_PAIRS = 8

#: Inverse-iteration steps after which the sparse route gives up.
_SPARSE_MAX_STEPS = 60

#: Lanczos steps for σ_max on the sparse route.
_LANCZOS_STEPS = 30

#: Pivot blocks per band width in ``_band_solver``. Narrower pivots trade
#: flops for more, smaller numpy calls; of 1, 2, 3, 4, 6 and 8, six was
#: fastest or within noise of it on tori and trilateration graphs with
#: v = 1000-3200, and four to eight were level at v = 512.
_BAND_BLOCKS = 6


def _largest_singular_value(a: SparseMatrix, start: np.ndarray) -> float:
    """σ_max from Lanczos on AᵀA with full reorthogonalization.

    The largest Ritz value of a few dozen steps; it converges from below
    and the sparse route reads it only as the scale of its cutoff.
    """
    steps = min(_LANCZOS_STEPS, a.shape[1])
    basis = np.zeros((steps, a.shape[1]))
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    q = start / np.linalg.norm(start)
    taken = steps
    for j in range(steps):
        basis[j] = q
        w = a.T @ (a @ q)
        alpha[j] = q @ w
        for _ in range(2):
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        if j + 1 == steps or beta[j] <= 1e-12 * abs(alpha[: j + 1]).max():
            taken = j + 1
            break
        q = w / beta[j]
    tridiagonal = (np.diag(alpha[:taken]) + np.diag(beta[: taken - 1], 1)
                   + np.diag(beta[: taken - 1], -1))
    return float(np.sqrt(max(np.linalg.eigvalsh(tridiagonal)[-1], 0.0)))


def _band_solver(gram: SparseMatrix, shift: float):
    """A solver for (gram + shift·I) y = b, b of shape (n, k).

    The matrix is renumbered in reverse Cuthill-McKee order, which confines
    its nonzeros to a band of some width w. Cut into pivot blocks of width
    p = ⌈w/``_BAND_BLOCKS``⌉, it is block banded: block column i couples
    only to the K ≤ ``_BAND_BLOCKS`` blocks below it. Block LDLᵀ
    elimination keeps that band and needs only dense p×p products and
    symmetric eigendecompositions. Each pivot column costs one p×p
    ``eigh``, the K coupling blocks L_{i+k,i} = M_{i+k,i} D_i⁻¹ and the
    K(K+1)/2 Schur updates M_{i+k,i+l} −= L_{i+k,i} M_{i+l,i}ᵀ, l ≤ k, of
    the lower band: about 2nw² flops in all, where w×w pivots (K = 1, a
    block tridiagonal matrix) would take about 15nw², most of it in
    ``eigh``. Each L block is stored over its M block, so the factor is
    the (K+1)·n·p ≈ 7nw/6 numbers of the lower band. No pivoting is
    needed: the matrix is symmetric positive definite.
    """
    n = gram.shape[0]
    off = gram.rows != gram.cols
    order_of_rows = np.argsort(gram.rows[off], kind="stable")
    neighbors = gram.cols[off][order_of_rows].tolist()
    ends = np.cumsum(np.bincount(gram.rows[off], minlength=n)).tolist()
    adjacency = [neighbors[start:end] for start, end in zip([0, *ends], ends)]
    order = np.array(_bandwidth_order(adjacency), dtype=np.intp)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    rows, cols = position[gram.rows], position[gram.cols]
    width = max(int(np.abs(rows - cols).max(initial=0)), 1)
    pivot = -(-width // _BAND_BLOCKS)
    blocks = -(-n // pivot)
    reach = min(-(-width // pivot), blocks - 1)
    # band[i, 0] is the pivot block D_i, band[i, k] the block M_{i+k,i}.
    band = np.zeros((blocks, reach + 1, pivot, pivot))
    lower = rows // pivot >= cols // pivot
    band[cols[lower] // pivot, rows[lower] // pivot - cols[lower] // pivot,
         rows[lower] % pivot, cols[lower] % pivot] = gram.values[lower]
    head = np.arange(n)
    band[head // pivot, 0, head % pivot, head % pivot] += shift
    # Padding beyond n is an identity block, decoupled from the rest.
    tail = np.arange(n, blocks * pivot)
    band[tail // pivot, 0, tail % pivot, tail % pivot] = 1.0
    # Each pivot block is kept as its eigenvectors and eigenvalues, so that
    # applying D_i⁻¹ errs only along its eigenvectors of small eigenvalue,
    # the near-kernel ones, as a backward stable solve does; an explicit
    # inverse would spread that error in every direction.
    values = np.empty((blocks, pivot))
    for i in range(blocks):
        values[i], band[i, 0] = np.linalg.eigh(band[i, 0])
        k = min(reach, blocks - 1 - i)
        if k:
            coupling = band[i, 1:k + 1].reshape(k * pivot, pivot)
            factor = ((coupling @ band[i, 0]) / values[i]) @ band[i, 0].T
            for l in range(k):
                band[i + 1 + l, : k - l] -= (
                    factor[l * pivot:] @ coupling[l * pivot:(l + 1) * pivot].T
                ).reshape(k - l, pivot, pivot)
            coupling[:] = factor
    vectors = band[:, 0]

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.zeros((blocks * pivot, b.shape[1]))
        x[:n] = b[order]
        x = x.reshape(blocks, pivot, -1)
        for i in range(blocks - 1):
            k = min(reach, blocks - 1 - i)
            x[i + 1:i + 1 + k] -= (band[i, 1:k + 1].reshape(k * pivot, pivot)
                                   @ x[i]).reshape(k, pivot, -1)
        x = vectors @ ((np.swapaxes(vectors, 1, 2) @ x) / values[:, :, None])
        for i in range(blocks - 2, -1, -1):
            k = min(reach, blocks - 1 - i)
            x[i] -= (band[i, 1:k + 1].reshape(k * pivot, pivot).T
                     @ x[i + 1:i + 1 + k].reshape(k * pivot, -1))
        y = np.empty_like(b)
        y[order] = x.reshape(blocks * pivot, -1)[:n]
        return y

    return solve


def _sparse_spectrum(
    a: SparseMatrix, rel_tol: float, vectors: bool
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Rank, singular values and kernel basis of a nonempty sparse matrix.

    σ_max comes from Lanczos on AᵀA (``_largest_singular_value``). The
    smallest singular pairs come from block inverse iteration on
    AᵀA + 1e-13·σ_max² (``_band_solver``), started from seeded random
    vectors so the output is deterministic. Each step replaces the block X
    by X − (AᵀA + shift)⁻¹AᵀA X, which shrinks a direction of singular
    value σ by shift/(σ² + shift) and keeps rounding small, and rotates
    the orthonormalized block Q by the SVD of the small dense A Q into the
    right singular vectors of A on it. Such a vector x counts as kernel
    when ‖A x‖ ≤ ``rel_tol``·σ_max: a value of AᵀA never decides, since the
    default cutoff is 1e-18 on AᵀA, below double precision, while ‖A x‖
    resolves it. The steps stop once no value above rounding (64 eps
    σ_max) halved in the last step, so no kernel vector is still
    converging, and the smallest value above the cutoff, σ_rank, moved by
    less than 1e-6 of itself. While every resolved vector is kernel the
    block doubles, so it always reaches past the kernel.

    Returns the rank, the values [σ_max, ‖A x‖ of the block, descending]
    and, if ``vectors``, the kernel basis (cols, cols - rank). A block that
    has not settled after ``_SPARSE_MAX_STEPS`` steps raises
    ``EigensolverError``.
    """
    _check_rel_tol(rel_tol)
    cols = a.shape[1]
    if not np.any(a.values):
        return 0, np.zeros(1), np.eye(cols) if vectors else None
    rng = np.random.default_rng(0)
    sigma_max = _largest_singular_value(a, rng.standard_normal(cols))
    gram = a.T @ a
    solve = _band_solver(gram, _SPARSE_SHIFT * sigma_max**2)
    cutoff = rel_tol * sigma_max
    # ‖A x‖ of a kernel vector settles at rounding, about eps·σ_max.
    floor = 64 * np.finfo(float).eps * sigma_max
    block = rng.standard_normal((cols, min(_SPARSE_FIRST_PAIRS, cols)))
    while True:
        count = block.shape[1]
        settled = None
        for _ in range(_SPARSE_MAX_STEPS):
            span, _ = np.linalg.qr(block - solve(gram @ block))
            s, vt, _ = _stacked_kernels(a @ span, rel_tol)
            norms = np.concatenate([s, np.zeros(count - len(s))])
            block = span @ vt.T
            if settled is not None and np.all((norms >= settled / 2) | (norms <= floor)):
                above = norms > cutoff
                if not above.any() or norms[above][-1] >= settled[above][-1] * (1 - 1e-6):
                    break
            settled = norms
        else:
            raise EigensolverError(
                a.shape, f"inverse iteration did not settle in {_SPARSE_MAX_STEPS} steps"
            )
        kernel = norms <= cutoff
        if not kernel.all() or count == cols:
            break
        grown = min(2 * count, cols) - count
        block = np.hstack([block, rng.standard_normal((cols, grown))])
    rank = cols - int(kernel.sum())
    values = np.concatenate([[sigma_max], norms])
    basis = np.ascontiguousarray(block[:, kernel]) if vectors else None
    return rank, values, basis


def singular_value_rank(
    m, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[int, np.ndarray]:
    """Rank and singular values of a real matrix, without vectors.

    The rank counts the singular values above ``rel_tol`` times the largest,
    the cutoff ``numerical_kernel`` applies, so ``cols - rank`` is its kernel
    dimension. A matrix with no rows or no columns has rank 0 and no values.

    A dense matrix gets every singular value, descending, from LAPACK gesdd
    with JOBZ='N', so no workspace is spent on singular vectors that a rank
    decision never reads. A ``SparseMatrix`` gets σ_max and then ‖A x‖ of
    the smallest singular vectors x that ``_sparse_spectrum`` resolved,
    descending: every kernel vector and at least one more, unless the rank
    is 0 or the block spans every column. The values above the cutoff then
    do not count the rank, but ``values[0]`` is σ_max on both routes and
    ``rank_margins`` reads the same margins off either.
    """
    if isinstance(m, SparseMatrix):
        a = _as_real_sparse(m)
        _check_rel_tol(rel_tol)
        if a.shape[0] and a.shape[1]:
            rank, values, _ = _sparse_spectrum(a, rel_tol, vectors=False)
            return rank, values
        return 0, np.zeros(0)
    a = _as_real_matrix(m)
    _check_rel_tol(rel_tol)
    if a.size == 0:
        return 0, np.zeros(0)
    s = np.linalg.svd(a, compute_uv=False)
    return int(_rank_above_cutoff(s, rel_tol)), s


def rank_margins(values: np.ndarray, rel_tol: float) -> tuple[float, float]:
    """σ_rank/σ_max and σ_{rank+1}/σ_max of a rank decision.

    ``values`` are the singular values a decision read, σ_max first (those
    of ``singular_value_rank`` or ``KernelBasis``). The first margin is the
    smallest value above the cutoff, 1.0 when none is; the second is the
    largest value at or below it, 0.0 when none is, as for a wide matrix of
    full row rank on the dense route. Both are relative to σ_max.
    """
    if not values.size:
        return 1.0, 0.0
    scale = values[0]
    cutoff = rel_tol * scale
    above, below = values[values > cutoff], values[values <= cutoff]
    return (
        float(above.min() / scale) if above.size else 1.0,
        float(below.max() / scale) if below.size else 0.0,
    )


def numerical_rank(m, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Rank under the ``numerical_kernel`` cutoff, from singular values alone."""
    return singular_value_rank(m, rel_tol)[0]






@dataclass(frozen=True)
class PrimeFieldMatrix:
    """Matrix with entries reduced modulo a large prime.

    The modulus must be a prime of at least 59 bits so that, for the moderate
    integer matrices produced by the rigidity tests, the rank over the field
    coincides with the rational rank except with negligible probability.
    """

    entries: tuple[tuple[int, ...], ...]
    modulus: int

    def __post_init__(self):
        q = self.modulus
        if q < 2**59:
            raise InvalidInputError(f"modulus {q} is smaller than 2^59")
        if not is_prime(q):
            raise InvalidInputError(f"modulus {q} is not prime")
        width = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != width:
                raise InvalidInputError("ragged rows")
            for x in row:
                if not isinstance(x, int) or not 0 <= x < q:
                    raise InvalidInputError(f"entry {x!r} is not a reduced residue")

    @classmethod
    def from_integers(
        cls, rows: Iterable[Sequence[int]], modulus: int = DEFAULT_PRIME
    ) -> PrimeFieldMatrix:
        """Reduce arbitrary integer rows (negatives included) into the field."""
        reduced = tuple(tuple(int(x) % modulus for x in row) for row in rows)
        return cls(reduced, modulus)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _reduced_echelon(m: PrimeFieldMatrix) -> tuple[list[list[int]], list[int]]:
    """Row-reduce mod q; returns the workspace and the pivot columns.

    Dense Gauss-Jordan with row pivoting. ``prime_field_nullspace`` uses it
    on one matrix, and on each matrix of a stack whose pivot on the leading
    columns comes out zero.
    """
    q = m.modulus
    work = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        prow = work[rank]
        prow[col:] = [x * inv % q for x in prow[col:]]
        for r in range(rows):
            if r != rank and work[r][col]:
                f = work[r][col]
                row = work[r]
                row[col:] = [(x - f * p) % q for x, p in zip(row[col:], prow[col:])]
        pivots.append(col)
    return work, pivots


def _sparse_rank(rows: Iterable[dict[int, int]], q: int) -> int:
    """Rank over F_q of sparse rows ``{column: nonzero residue}``.

    Forward elimination only: each row is reduced against the stored pivot
    rows, lowest column first, until it is empty or its lowest column has no
    pivot yet, where it is stored, scaled to a leading 1, as a new pivot row.
    Neither back-substitution nor a dense workspace is needed for a rank.
    The rows are consumed (modified in place).

    Reduction mod q is delayed: a reduction step adds f·x into the row's
    entries as plain integers and reduces only the leading entry, which it
    needs nonzero or dropped. An entry ≡ 0 is dropped when it becomes the
    lowest column, and a row's tail is reduced when it is stored, so the
    pivot rows are the fully reduced ones.
    """
    # Pivot column -> minus the rest of its pivot row (the leading 1 is
    # implicit), so that reducing adds multiples of nonnegative residues.
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        get = row.get
        while row:
            col = min(row)
            f = row.pop(col) % q
            if not f:
                continue
            tail = pivots.get(col)
            if tail is None:
                minus_inv = q - pow(f, -1, q)
                pivots[col] = [(c, y) for c, x in row.items()
                               if (y := x * minus_inv % q)]
                break
            for c, x in tail:
                row[c] = get(c, 0) + f * x
    return len(pivots)


def prime_field_rank(m: PrimeFieldMatrix) -> int:
    """Exact rank over F_q by sparse forward elimination.

    The nonzero entries of each row go to ``_sparse_rank``, which reduces
    rows forward only against pivot rows keyed by their lowest column. The
    rank is a property of the matrix, so neither the row order nor the
    column numbering can change it; they change only the fill, i.e. how
    many entries the reduced rows carry and hence the cost.
    """
    return _sparse_rank(
        ({c: x for c, x in enumerate(row) if x} for row in m.entries), m.modulus
    )


def prime_field_nullspace(
    m: PrimeFieldMatrix | tuple[np.ndarray, int],
) -> list[tuple[int, ...]] | list[list[tuple[int, ...]]]:
    """Basis of the kernel over F_q, one vector per free column.

    ``m`` is one ``PrimeFieldMatrix``, or a stack of same-shape matrices
    given as a pair ``(residues, q)``: an integer array of shape
    (n, rows, cols) holding reduced residues modulo the prime q (not
    checked here). One matrix gets the list of its basis vectors, each
    with a 1 at its free column and zeros at the other free columns; a
    stack gets one such list per matrix, equal to the call on that matrix.

    A single matrix is reduced by the pivoting ``_reduced_echelon``. A
    stack is reduced in one pass over all its matrices at once
    (``_stacked_nullspace``), with Python integers in object arrays,
    taking the first min(rows, cols) columns as pivots: for each pivot
    column, one modular inverse serves the whole stack
    (``_batch_inverse``). A matrix whose pivot comes out zero there has
    lower rank or another pivot column, and it is reduced again by
    ``_reduced_echelon``. Every other matrix has full rank on those
    columns, so its reduced row echelon form, which is unique, is the one
    ``_reduced_echelon`` computes, and so is its basis.
    """
    if not isinstance(m, PrimeFieldMatrix):
        return _stacked_nullspace(*m)
    q = m.modulus
    work, pivots = _reduced_echelon(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [0] * m.cols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][free] % q
        basis.append(tuple(vec))
    return basis


def _stacked_nullspace(residues: np.ndarray, q: int) -> list[list[tuple[int, ...]]]:
    """``prime_field_nullspace`` of each matrix of a stack, in one pass."""
    work = np.array(residues, dtype=object)
    count, rows, cols = work.shape
    if not count:
        return []
    lead = min(rows, cols)
    degenerate = np.zeros(count, dtype=bool)
    for col in range(lead):
        pivot = work[:, col, col]
        zero = pivot == 0
        degenerate |= zero
        inverse = _batch_inverse(np.where(zero, 1, pivot).tolist(), q)
        work[:, col, col:] = work[:, col, col:] * inverse[:, None] % q
        others = [r for r in range(lead) if r != col]
        factors = work[:, others, col:col + 1]
        work[:, others, col:] = (
            work[:, others, col:] - factors * work[:, None, col, col:]
        ) % q
    # Free column f of a full-rank matrix: 1 at f, minus column f of the
    # reduced form at the pivots.
    bases = np.zeros((count, cols - lead, cols), dtype=object)
    bases[:, :, :lead] = np.swapaxes(-work[:, :lead, lead:] % q, 1, 2)
    free = np.arange(cols - lead)
    bases[:, free, lead + free] = 1
    result = [[tuple(vec) for vec in basis] for basis in bases.tolist()]
    for i in np.flatnonzero(degenerate).tolist():
        entries = tuple(map(tuple, np.asarray(residues[i]).tolist()))
        result[i] = prime_field_nullspace(PrimeFieldMatrix(entries, q))
    return result


def _batch_inverse(values: list[int], q: int) -> np.ndarray:
    """Inverses mod q of nonzero residues, from one modular inverse.

    Montgomery's trick: the inverse of the product of all values, taken
    back through the prefix products, gives each value's inverse at the
    cost of three multiplications per value.
    """
    prefix = [values[0]]
    for x in values[1:]:
        prefix.append(prefix[-1] * x % q)
    inverse = pow(prefix[-1], -1, q)
    result = np.empty(len(values), dtype=object)
    for i in range(len(values) - 1, 0, -1):
        result[i] = inverse * prefix[i - 1] % q
        inverse = inverse * values[i] % q
    result[0] = inverse
    return result


def prime_field_corank(m: PrimeFieldMatrix) -> int:
    """Kernel dimension over F_q."""
    return m.cols - prime_field_rank(m)


def least_squares(a, b) -> np.ndarray:
    """Minimal-norm least-squares solution of ``a @ x = b``.

    Parameters
    ----------
    a : array_like, shape (rows, cols)
    b : array_like, shape (rows,)

    Returns
    -------
    ndarray, shape (cols,)
        The minimizer of the residual norm; among all minimizers, the one of
        smallest Euclidean norm.
    """
    a = _as_real_matrix(a)
    bv = np.asarray(b, dtype=float)
    if bv.ndim != 1:
        raise InvalidInputError(
            f"right-hand side must be a vector, got shape {bv.shape}"
        )
    if bv.size and not np.all(np.isfinite(bv)):
        raise InvalidInputError("right-hand side contains non-finite entries")
    if a.shape[0] != bv.shape[0]:
        raise InvalidInputError(
            f"incompatible shapes: {a.shape[0]} rows vs {bv.shape[0]} entries"
        )
    x, *_ = np.linalg.lstsq(a, bv, rcond=None)
    return x


def psd_cholesky(g, tol: float = DEFAULT_PSD_TOL) -> np.ndarray | None:
    """Lower-triangular L with L @ L.T equal to G after eigen-clipping.

    Parameters
    ----------
    g : array_like, shape (d, d)
        Symmetric matrix (to 1e-10 relative).
    tol : float
        Eigenvalues down to ``-tol`` times the spectral norm are forgiven and
        clipped to zero; anything below that is decisive.

    Returns
    -------
    ndarray or None
        The factor, or ``None`` when the matrix is not positive semidefinite.
    """
    a = _as_real_matrix(g)
    d = a.shape[0]
    if a.shape[1] != d:
        raise InvalidInputError(f"matrix of shape {a.shape} is not square")
    if d == 0:
        return np.zeros((0, 0))
    scale = float(np.linalg.norm(a, 2))
    if np.linalg.norm(a - a.T, 2) > 1e-10 * max(scale, 1e-300):
        raise InvalidInputError("matrix is not symmetric")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    if w[0] < -tol * scale:
        return None
    x = v * np.sqrt(np.clip(w, 0.0, None))
    _, r = np.linalg.qr(x.T)
    lower = r.T
    signs = np.sign(np.diag(lower))
    signs[signs == 0] = 1.0
    return lower * signs
