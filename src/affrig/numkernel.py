"""Numerical and exact linear algebra underneath the rank tests.

Real matrices are ``numpy`` arrays and all tolerance decisions are made
relative to the largest singular value, so the routines behave identically
under global rescaling of the input. Exact arithmetic over a large prime
field uses plain Python integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError

#: Relative singular-value cutoff separating "zero" from "nonzero".
DEFAULT_REL_TOL = 1e-9

#: Relative eigenvalue slack below which a symmetric matrix still counts as PSD.
DEFAULT_PSD_TOL = 1e-7

#: Default modulus for exact rank computations (a Mersenne prime).
DEFAULT_PRIME = 2**61 - 1

#: Precomputed 60-bit primes for trials that want an independent modulus.
PRIME_POOL_60BIT = (
    576460752303423619,
    576460752303423649,
    576460752303423733,
    576460752303423737,
    576460752303423749,
    576460752303423761,
    576460752303423811,
    576460752303423913,
)

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n below 3.3e24.

    Cached, since every ``PrimeFieldMatrix`` checks its modulus and the
    rigidity tests build one per hyperedge with the same few moduli.
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
    singular_values : ndarray, shape (min(rows, cols),)
        The source matrix's singular values in descending order, from the
        same SVD that produced the basis, so callers can report the margins
        of the rank decision without factoring the matrix again.
    """

    dimension: int
    basis: np.ndarray
    threshold_used: float
    singular_values: np.ndarray


def numerical_kernel(m, rel_tol: float = DEFAULT_REL_TOL) -> KernelBasis:
    """Kernel of a real matrix with a relative singular-value cutoff.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
        Input matrix; a matrix with no rows has a full kernel.
    rel_tol : float
        Singular values at most ``rel_tol`` times the largest singular value
        are treated as zero. Must lie in (0, 1).

    Returns
    -------
    KernelBasis
        Orthonormal kernel directions as columns, taken from the right
        singular vectors.
    """
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

    ``s`` is descending along its last axis. Every float rank decision
    applies this one cutoff.
    """
    return (s > rel_tol * s[..., :1]).sum(axis=-1)


def singular_value_rank(
    m, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[int, np.ndarray]:
    """Rank and descending singular values of a real matrix, without vectors.

    The rank counts the singular values above ``rel_tol`` times the largest,
    the cutoff ``numerical_kernel`` applies, so ``cols - rank`` is its kernel
    dimension. Only the values are computed (LAPACK gesdd with JOBZ='N'), so
    no workspace is spent on singular vectors that a rank decision never
    reads. A matrix with no rows or no columns has rank 0 and no values.
    """
    a = _as_real_matrix(m)
    _check_rel_tol(rel_tol)
    if a.size == 0:
        return 0, np.zeros(0)
    s = np.linalg.svd(a, compute_uv=False)
    return int(_rank_above_cutoff(s, rel_tol)), s


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

    Dense Gauss-Jordan, used only by ``prime_field_nullspace`` on small
    matrices (the (d+1)×k lift of one hyperedge).
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
    """
    # Pivot column -> minus the rest of its pivot row (the leading 1 is
    # implicit), so that reducing adds multiples of nonnegative residues.
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        get = row.get
        while row:
            col = min(row)
            tail = pivots.get(col)
            if tail is None:
                minus_inv = q - pow(row.pop(col), -1, q)
                pivots[col] = [(c, x * minus_inv % q) for c, x in row.items()]
                break
            f = row.pop(col)
            for c, x in tail:
                y = (get(c, 0) + f * x) % q
                if y:
                    row[c] = y
                else:
                    # Absent entries cannot cancel: f * x is a nonzero product.
                    del row[c]
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


def prime_field_nullspace(m: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the kernel over F_q, one vector per free column."""
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


def prime_field_corank(m: PrimeFieldMatrix) -> int:
    """Kernel dimension over F_q."""
    return m.cols - prime_field_rank(m)


def draw_modulus(rng: random.Random) -> int:
    """Pick a modulus from the precomputed prime pool."""
    return rng.choice(PRIME_POOL_60BIT)


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
