"""Affinity-matrix rank tests, equilibrium stresses, and rigidity certificates.

The central object is the strong affinity matrix of a framework: one block of
rows per hyperedge, spanning every affine relation among that hyperedge's
points. A framework whose configuration affinely spans R^d is affinely rigid
exactly when this matrix has corank d+1 (the kernel then reduces to the span
of the all-ones vector and the d coordinate vectors). Everything else here
is built around that rank test: a randomized exact version over a large prime
field, stress-matrix constructions that certify the neighborhood variant
cheaply, and one-sided certificates of universal rigidity.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import numkernel
from .errors import (
    DegenerateInstanceError,
    ImproperFrameworkError,
    InvalidInputError,
    NumericalRankError,
    UnsupportedInstanceError,
)
from .hypergraph import (
    Graph,
    Hypergraph,
    as_hypergraph,
    body_graph,
    neighborhood_hypergraph,
    squared_graph,
)
from .numkernel import DEFAULT_PRIME, DEFAULT_REL_TOL

logger = logging.getLogger(__name__)

RIGID = "rigid"
FLEXIBLE = "flexible"
INCONCLUSIVE = "inconclusive"

AFFINE_ROUTE = "affine-rigidity"
PSD_ROUTE = "psd-stress"


@dataclass(frozen=True, eq=False)
class Framework:
    """A combinatorial structure together with a point per vertex.

    ``coordinates`` is a (vertex_count, dim) array; the ambient dimension is
    read off its column count.
    """

    structure: Graph | Hypergraph
    coordinates: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coordinates, dtype=float)
        if coords.ndim != 2:
            raise InvalidInputError(
                f"coordinates must be a 2-d array, got shape {coords.shape}"
            )
        if coords.shape[0] != self.structure.vertex_count:
            raise InvalidInputError(
                f"{self.structure.vertex_count} vertices but "
                f"{coords.shape[0]} coordinate rows"
            )
        if coords.shape[1] < 1:
            raise InvalidInputError("ambient dimension must be positive")
        if not np.all(np.isfinite(coords)):
            raise InvalidInputError("coordinates contain non-finite entries")
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)

    @property
    def dim(self) -> int:
        return self.coordinates.shape[1]

    @property
    def vertex_count(self) -> int:
        return self.structure.vertex_count


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Rows of affine relations, one block per hyperedge, over v columns.

    ``row_provenance[r]`` is the index of the hyperedge that produced row r.
    The ``strong`` flag records that each block spans *all* relations of its
    hyperedge. ``matrix`` is a dense array below ``_SPARSE_MIN_COLUMNS``
    columns and a ``numkernel.SparseMatrix`` from there on.
    """

    matrix: np.ndarray | numkernel.SparseMatrix
    row_provenance: tuple[int, ...]
    strong: bool


@dataclass(frozen=True, eq=False)
class StressMatrix:
    """v×v equilibrium stress: edge-sparse, zero row sums, annihilates coords.

    ``zero_rows`` lists vertices whose row came out identically zero (too few
    neighbors to admit a relation). ``matrix`` is stored as in
    ``AffinityMatrix``, except that a positive stress is always dense.
    """

    matrix: np.ndarray | numkernel.SparseMatrix
    symmetric: bool
    zero_rows: tuple[int, ...] = ()


@dataclass(frozen=True)
class RigidityVerdict:
    """A rank test's verdict, the corank it rests on and its certificate.

    ``residuals``, filled by ``affine_rigidity_test`` only, are those of the
    matrix the verdict was decided on; equality and hashing ignore them.
    """

    verdict: str
    corank: int
    certificate: str
    one_sided: bool
    residuals: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True, eq=False)
class UniversalRigidityResult:
    """One-sided outcome: ``certified`` true or nothing (never a refutation)."""

    certified: bool
    route: str
    certificate: str
    target: str | None = None
    stress: StressMatrix | None = None


def affine_span_dimension(coordinates, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Dimension of the affine span of a point set (rank of centered coords)."""
    coords = np.asarray(coordinates, dtype=float)
    if coords.shape[0] == 0:
        return -1
    centered = coords - coords.mean(axis=0)
    return numkernel.numerical_rank(centered, rel_tol)


def _positions_by_key(keys: Iterable) -> dict:
    """The positions of each distinct key, in order of first appearance."""
    groups: dict = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    return groups


def _normalized_charts(charts: np.ndarray) -> np.ndarray:
    """Charts (..., k, d) moved to mean zero and scaled to RMS radius one.

    A chart whose points all coincide is only moved.
    """
    centered = charts - charts.mean(axis=-2, keepdims=True)
    radius = np.sqrt((centered * centered).sum(axis=(-2, -1)) / charts.shape[-2])
    return centered / np.where(radius > 0, radius, 1.0)[..., None, None]


#: Column count from which the affinity and stress builders store a matrix
#: as a ``numkernel.SparseMatrix``. The matrices carry a few nonzeros per
#: row, and from here on the sparse route (``numkernel._sparse_spectrum``)
#: decides their rank faster than a dense SVD; below it, the dense SVD is
#: faster.
_SPARSE_MIN_COLUMNS = 512


def _assemble(
    entries: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    shape: tuple[int, int],
) -> np.ndarray | numkernel.SparseMatrix:
    """A matrix from (rows, columns, values) triplets without repeated cells.

    Dense below ``_SPARSE_MIN_COLUMNS`` columns, else a ``SparseMatrix`` of
    the triplets; no dense array of the full shape is made on that route.
    """
    empty = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)
    rows, cols, values = (np.concatenate(part) for part in zip(empty, *entries))
    if shape[1] >= _SPARSE_MIN_COLUMNS:
        return numkernel.SparseMatrix(rows, cols, values, shape)
    matrix = np.zeros(shape)
    matrix[rows, cols] = values
    return matrix


def _affinity_from_blocks(
    vertex_count: int,
    classes: Sequence[tuple[Sequence[int], np.ndarray, np.ndarray]],
    rel_tol: float,
) -> AffinityMatrix:
    """Affinity rows of blocks given per size k, scattered into v columns.

    Each class holds its blocks' positions (n,), members (n, k) and charts
    (n, k, d); ``charts[i, j]`` is the point of ``members[i, j]`` in any
    affine chart of block i, since affine relations do not depend on the
    chart. Row provenance is the block position. Each chart is therefore
    first centered and scaled to unit RMS radius, so that the cutoff
    separates the same relations wherever the block sits and at any scale:
    a lift of points far from the origin, or of a tiny or huge block, would
    otherwise lose or gain relations to rounding.

    The lifts [ones; chart transposed] of a class are factored by one
    stacked SVD, whose slices equal ``numerical_kernel`` on each lift bit
    for bit; rows are scattered in block order, into a dense or a sparse
    matrix by the column count (``_assemble``).
    """
    count = sum(len(indices) for indices, _, _ in classes)
    dims = np.zeros(count, dtype=int)
    factored = []
    for indices, members, charts in classes:
        ones = np.ones(members.shape + (1,))
        charts = _normalized_charts(charts)
        lifts = np.swapaxes(np.concatenate([ones, charts], axis=-1), -1, -2)
        _, vt, ranks = numkernel._stacked_kernels(lifts, rel_tol)
        dims[indices] = members.shape[1] - ranks
        factored.append((indices, members, vt, ranks))
    offsets = np.concatenate([[0], np.cumsum(dims)])
    entries = []
    for indices, members, vt, ranks in factored:
        k = members.shape[1]
        # Row j of a block's right factor is a relation from j = rank on.
        relation = np.arange(k) >= ranks[:, None]
        rows = (offsets[indices][:, None] + np.arange(k) - ranks[:, None])[relation]
        entries.append(
            (rows.repeat(k), members.repeat(dims[indices], axis=0).ravel(),
             vt[relation].ravel())
        )
    matrix = _assemble(entries, (offsets[-1], vertex_count))
    provenance = tuple(np.repeat(np.arange(count), dims).tolist())
    return AffinityMatrix(matrix, provenance, strong=True)


def strong_affinity_matrix(
    framework: Framework, rel_tol: float = DEFAULT_REL_TOL
) -> AffinityMatrix:
    """All affine relations of every hyperedge, scattered into v columns.

    For a hyperedge on points q_1..q_k, the relations are the vectors a with
    sum(a) = 0 and sum(a_i q_i) = 0, i.e. the kernel of the (d+1)×k lift
    [ones; coords]. Hyperedges with affinely independent points contribute
    nothing. Rows are unit norm (they come from an orthonormal kernel basis).
    """
    theta = as_hypergraph(framework.structure)
    v = framework.vertex_count
    _require_vertices(v, framework.dim)
    hyperedges = [sorted(h) for h in theta.hyperedges]
    classes = []
    for positions in _positions_by_key(map(len, hyperedges)).values():
        members = np.array([hyperedges[i] for i in positions])
        classes.append((positions, members, framework.coordinates[members]))
    return _affinity_from_blocks(v, classes, rel_tol)


def affinity_corank(
    affinity: AffinityMatrix, rel_tol: float = DEFAULT_REL_TOL
) -> int:
    """Kernel dimension of an affinity matrix over its v columns.

    Decided by ``numkernel.numerical_rank``: a dense SVD below
    ``_SPARSE_MIN_COLUMNS`` columns, the sparse eigensolver, deciding on
    ‖A x‖, from there on.
    """
    v = affinity.matrix.shape[1]
    return v - numkernel.numerical_rank(affinity.matrix, rel_tol)


def _require_dimension(d: int) -> None:
    if d < 1:
        raise InvalidInputError("dimension must be positive")


def _require_vertices(v: int, d: int) -> None:
    if v < d + 1:
        raise UnsupportedInstanceError(
            f"need at least d+1 = {d + 1} vertices, got {v}"
        )


def _require_proper(framework: Framework, rel_tol: float) -> None:
    d = framework.dim
    _require_vertices(framework.vertex_count, d)
    span = affine_span_dimension(framework.coordinates, rel_tol)
    if span < d:
        raise ImproperFrameworkError(span, d)


def _verdict(what: str, corank: int, d: int, rel_tol: float) -> str:
    """Rigid at corank d+1, flexible above; below, an error naming ``what``."""
    if corank < d + 1:
        raise NumericalRankError(what, corank, d + 1, rel_tol)
    return RIGID if corank == d + 1 else FLEXIBLE


def affine_rigidity_test(
    framework: Framework, rel_tol: float = DEFAULT_REL_TOL
) -> RigidityVerdict:
    """Decide affine rigidity of a proper framework by the corank test.

    Corank d+1 means the kernel is exactly the span of {ones, coordinate
    axes}, so every affinely-compatible configuration is an affine image of
    this one: rigid. Corank above d+1 exhibits an extra kernel direction:
    flexible. Corank below d+1 cannot happen for proper frameworks.

    The matrix is built once and its rank is decided once, without vectors
    (``numkernel.singular_value_rank``, dense or sparse by the matrix's
    storage); the verdict's ``residuals`` take σ_max from that call and
    equal ``affinity_residuals`` of the matrix. A corank below d+1 raises
    ``NumericalRankError``.
    """
    _require_proper(framework, rel_tol)
    v, d = framework.vertex_count, framework.dim
    affinity = strong_affinity_matrix(framework, rel_tol)
    rank, singular_values = numkernel.singular_value_rank(affinity.matrix, rel_tol)
    corank = v - rank
    verdict = _verdict("strong affinity matrix", corank, d, rel_tol)
    certificate = (
        f"strong affinity matrix {affinity.matrix.shape[0]}x{v}, "
        f"rank {rank}, relative cutoff {rel_tol:g}"
    )
    residuals = _affinity_residuals(affinity, framework, singular_values)
    return RigidityVerdict(verdict, corank, certificate, False, residuals)


def field_affinity_corank(
    structure: Graph | Hypergraph,
    d: int,
    coords: list[list[int]],
    q: int = DEFAULT_PRIME,
    *,
    require_general_position: bool = False,
) -> int:
    """Corank of the strong affinity matrix over F_q, built exactly.

    ``coords`` holds one length-d integer tuple per vertex; entries may be
    arbitrary integers and are reduced into the field.

    A hyperedge of k vertices whose lift has rank below min(k, d+1) over
    F_q, i.e. more than max(0, k-d-1) relations, has its points out of
    general position (say d+1 of them on a hyperplane). The corank is exact
    for the given points either way; with ``require_general_position`` such
    a hyperedge raises ``DegenerateInstanceError`` instead, since the corank
    of such a sample says nothing about the generic corank.

    Each hyperedge's relations are the F_q nullspace of its (d+1)×k lift.
    The lifts of all hyperedges of one size go to one stacked
    ``numkernel.prime_field_nullspace`` call, and each hyperedge's result
    equals that of its own call. The relations are written straight into
    sparse rows, in hyperedge order, and their rank is found by forward
    elimination (``numkernel._sparse_rank``); no dense v-column matrix is
    built. Column j holds the vertex at position j of a reverse
    Cuthill-McKee order of the body graph. Renumbering the columns permutes
    them, which cannot change the rank, but it keeps each row's nonzeros
    near its lowest column and so bounds the fill: on hexagonal tori the
    order makes the elimination three times faster than vertex-index order.
    """
    theta = as_hypergraph(structure)
    _require_dimension(d)
    v = theta.vertex_count
    if len(coords) != v or any(len(point) != d for point in coords):
        raise InvalidInputError(f"need {v} integer points of length {d}")
    column = [0] * v
    order = numkernel._bandwidth_order(body_graph(theta).adjacency)
    for position, u in enumerate(order):
        column[u] = position
    points = np.array([[int(x) % q for x in point] for point in coords], dtype=object)
    hyperedges = [sorted(h) for h in theta.hyperedges]
    relations: list = [None] * len(hyperedges)
    for size, positions in _positions_by_key(map(len, hyperedges)).items():
        members = np.array([hyperedges[i] for i in positions])
        lifts = np.empty((len(positions), d + 1, size), dtype=object)
        lifts[:, 0] = 1
        lifts[:, 1:] = np.swapaxes(points[members], 1, 2)
        for i, basis in zip(positions, numkernel.prime_field_nullspace((lifts, q))):
            relations[i] = basis
    rows: list[dict[int, int]] = []
    for members, basis in zip(hyperedges, relations):
        if require_general_position and len(basis) > max(0, len(members) - d - 1):
            raise DegenerateInstanceError(
                f"hyperedge {members} is not in general position: "
                f"{len(basis)} affine relations among {len(members)} points"
            )
        for vec in basis:
            rows.append({column[u]: x for x, u in zip(vec, members) if x})
    return v - numkernel._sparse_rank(rows, q)


def generic_affine_rigidity_test(
    structure: Graph | Hypergraph,
    d: int,
    trials: int = 3,
    seed: int | None = None,
    prime: int = DEFAULT_PRIME,
    randomize_prime: bool = False,
) -> RigidityVerdict:
    """Decide generic affine rigidity by exact rank tests over a prime field.

    Each trial samples a configuration uniformly over F_q and computes the
    affinity-matrix corank exactly, by sparse forward elimination over F_q
    (``field_affinity_corank``); the minimum over trials is reported.

    Soundness. A sample is redrawn unless the whole configuration is proper
    and every hyperedge's sampled points are in general position (its lift
    has full rank min(k, d+1); ``field_affinity_corank`` checks this from
    the nullspaces it computes anyway). Then each block's relations at the
    sample are spanned by fixed integer polynomials in the coordinates
    (Cramer's rule on a maximal minor of the lift that is nonzero there),
    which are relations of the generic configuration too, so a nonzero
    minor over F_q is a nonzero polynomial over Q: the corank at the sample
    is at least the generic corank, over any prime field. The generic
    corank is at least d+1, so a trial that reaches d+1 proves generic
    rigidity: "rigid" is exact, and the elimination's column order cannot
    change a rank. What weakens as q shrinks is the chance of a sample
    whose corank exceeds the generic one, bounded per trial by (a few minor
    degrees)/q by the Schwartz-Zippel lemma, below 1e-14 at the default
    61-bit prime. It bounds the one-sided "flexible" verdict, which is
    wrong only if every trial drew such a sample and is flagged one-sided;
    more ``trials`` restore it.
    """
    theta = as_hypergraph(structure)
    _require_dimension(d)
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    v = theta.vertex_count
    _require_vertices(v, d)
    rng = random.Random(seed)
    best: int | None = None
    moduli: list[int] = []
    for _ in range(trials):
        q = numkernel.draw_modulus(rng) if randomize_prime else prime
        moduli.append(q)
        while True:
            coords = [[rng.randrange(q) for _ in range(d)] for _ in range(v)]
            span_lift = [[1] * v] + [[coords[u][axis] for u in range(v)] for axis in range(d)]
            full = numkernel.prime_field_rank(
                numkernel.PrimeFieldMatrix.from_integers(span_lift, q)
            )
            if full != d + 1:
                logger.debug("resampling improper random configuration")
                continue
            try:
                corank = field_affinity_corank(
                    theta, d, coords, q, require_general_position=True
                )
            except DegenerateInstanceError as error:
                logger.debug("resampling degenerate random configuration: %s", error)
                continue
            break
        assert corank >= d + 1
        best = corank if best is None else min(best, corank)
        if best == d + 1:
            break
    assert best is not None
    q_text = (
        f"q in {sorted(set(moduli))}" if randomize_prime else f"q = {moduli[0]}"
    )
    if best == d + 1:
        certificate = f"affinity corank {best} over F_q ({q_text}); exact witness"
        return RigidityVerdict(RIGID, best, certificate, one_sided=False)
    certificate = (
        f"minimum affinity corank {best} over F_q ({q_text}) in "
        f"{len(moduli)} trials"
    )
    return RigidityVerdict(FLEXIBLE, best, certificate, one_sided=True)


def choose_exceptional(gamma: Graph, d: int) -> tuple[int, ...]:
    """The d+1 pinned vertices: highest degree first, ties by index."""
    _require_vertices(gamma.vertex_count, d)
    ranked = sorted(range(gamma.vertex_count), key=lambda u: (-gamma.degree(u), u))
    return tuple(sorted(ranked[: d + 1]))


def _pinned_set(exceptional: Iterable[int], v: int, d: int) -> tuple[int, ...]:
    """An exceptional set checked to be d+1 distinct vertices in range."""
    pinned = tuple(int(u) for u in exceptional)
    if len(pinned) != d + 1 or len(set(pinned)) != d + 1:
        raise InvalidInputError(
            f"exceptional set must contain d+1 = {d + 1} distinct vertices"
        )
    for u in pinned:
        if not 0 <= u < v:
            raise InvalidInputError(f"exceptional vertex {u} out of range")
    return pinned


def _perturbed_simplex(d: int, rng: np.random.Generator) -> np.ndarray:
    """d+1 points in R^d: a unit-edge regular simplex plus generic noise."""
    corners = np.eye(d + 1) - 1.0 / (d + 1)
    _, _, vt = np.linalg.svd(corners, full_matrices=False)
    simplex = corners @ vt[:d].T
    simplex /= np.linalg.norm(simplex[0] - simplex[1])
    return simplex + 0.05 * rng.standard_normal(simplex.shape)


def _balance(
    lift: np.ndarray, target: np.ndarray, weights: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weights plus the minimum-norm change that balances them, row by row.

    ``lift`` stacks (d+1)×k lifts N = [neighbor coordinates; ones],
    ``target`` the matching [p; 1] and ``weights`` the k×1 starting rows.
    Each row gets N⁺(target - N l), from one stacked pseudo-inverse, and
    counts as balanced when it then meets N l = target to ``tol`` of its
    scale. Returns the corrected rows and the balanced mask.
    """
    corrected = weights + np.linalg.pinv(lift) @ (target - lift @ weights)
    imbalance = np.abs(lift @ corrected - target).max(axis=(1, 2))
    scale = np.abs(corrected).sum(axis=(1, 2)) * np.abs(lift).max(axis=(1, 2))
    return corrected, imbalance <= tol * scale


# A barycentric row certifies interiority only if it meets the d+1 balance
# equations to this share of its scale. A row of the correction must also
# let its smallest weight clear the caller's floor by this much.
_BALANCE_TOL = 1e-12

# The same share for the LP's polished rows. It is a separate constant so
# that setting ``_BALANCE_TOL`` negative sends every row to the LP without
# making the LP reject them all.
_LP_BALANCE_TOL = 1e-12


def _barycentric_margin(
    point: np.ndarray, hull_points: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Best lower bound on barycentric coordinates of point in hull_points.

    Solves max t s.t. sum(l_j h_j) = point, sum(l_j) = 1, l_j >= t. A positive
    optimum exhibits the point in the relative interior of the hull; an
    infeasible program means the point is off the hull's affine span.

    HiGHS meets the equality constraints only to its feasibility tolerance,
    about 1e-7, which would pass a point that far off the hull's affine
    span. So the LP's weights are polished by the minimum-norm correction
    of ``_balance`` and kept only if the polished row balances to
    ``_LP_BALANCE_TOL`` of its scale; its smallest weight is the margin
    returned, which the caller compares with its floor.
    """
    from scipy.optimize import linprog

    k, d = hull_points.shape
    cost = np.zeros(k + 1)
    cost[k] = -1.0
    a_eq = np.zeros((d + 1, k + 1))
    a_eq[:d, :k] = hull_points.T
    a_eq[d, :k] = 1.0
    b_eq = np.concatenate([point, [1.0]])
    a_ub = np.zeros((k, k + 1))
    a_ub[:, :k] = -np.eye(k)
    a_ub[:, k] = 1.0
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(k),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * (k + 1),
        method="highs",
    )
    if not result.success:
        return -np.inf, None
    polished, balanced = _balance(
        a_eq[None, :, :k], b_eq[None, :, None], result.x[None, :k, None],
        _LP_BALANCE_TOL,
    )
    if not balanced[0]:
        return -np.inf, None
    weights = polished[0, :, 0]
    return float(weights.min()), weights


def _barycentric_rows(
    coords: np.ndarray,
    vertices: Sequence[int],
    neighbor_lists: Sequence[Sequence[int]],
    floor: float,
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Margin and barycentric weights of each vertex among its neighbors.

    Vertices of equal degree k are certified together. Their weights start
    uniform at 1/k and receive the minimum-norm correction N⁺r, where N is
    the (d+1)×k lift [neighbor coordinates; ones] and r the residual of the
    balance equations N l = [p; 1], from one stacked pseudo-inverse per
    degree (``_balance``). A corrected row that balances to
    ``_BALANCE_TOL`` of its scale and whose smallest weight clears
    ``floor`` by more than ``_BALANCE_TOL`` is a feasible point of the LP
    in ``_barycentric_margin``: its smallest weight is the margin returned,
    a lower bound on the LP's optimum, so the LP would pass the test
    ``margin > floor`` too. The clearance keeps rounding noise on a zero
    weight (a point on the hull's boundary) from passing for a positive
    one. Every other row (off the span, on the boundary, of degree 0) gets
    the LP's margin and weights, so a caller's decision ``margin > floor``
    always equals the LP's.

    The LP's solver is imported on every call, not on the first fallback:
    importing ``scipy.optimize`` costs about 40 MB and half a second, and a
    process's footprint and timings should not depend on whether some row
    of some call ever fell back.
    """
    import scipy.optimize  # noqa: F401

    d = coords.shape[1]
    margins = np.empty(len(vertices))
    weights: list[np.ndarray | None] = [None] * len(vertices)
    by_degree: dict[int, list[int]] = {}
    for i, nbrs in enumerate(neighbor_lists):
        by_degree.setdefault(len(nbrs), []).append(i)
    fallback = by_degree.pop(0, [])
    for k, rows in by_degree.items():
        nbrs = np.array([neighbor_lists[i] for i in rows], dtype=np.intp)
        lift = np.ones((len(rows), d + 1, k))
        lift[:, :d, :] = coords[nbrs].transpose(0, 2, 1)
        target = np.ones((len(rows), d + 1, 1))
        target[:, :d, 0] = coords[[vertices[i] for i in rows]]
        start = np.full((len(rows), k, 1), 1.0 / k)
        corrected, balanced = _balance(lift, target, start, _BALANCE_TOL)
        smallest = corrected.min(axis=(1, 2))
        certified = balanced & (smallest > floor + _BALANCE_TOL)
        for row, i in enumerate(rows):
            if certified[row]:
                margins[i], weights[i] = smallest[row], corrected[row, :, 0]
            else:
                fallback.append(i)
    if fallback:
        logger.debug("%d of %d barycentric rows fall back to the LP",
                     len(fallback), len(vertices))
    for i in fallback:
        margins[i], weights[i] = _barycentric_margin(
            coords[vertices[i]], coords[list(neighbor_lists[i])]
        )
    return margins, weights


def rubber_band_embedding(
    gamma: Graph,
    d: int,
    exceptional: tuple[int, ...] | str = "auto",
    seed: int | None = None,
    weights: dict[tuple[int, int], float] | None = None,
    jitter: float = 1e-6,
) -> Framework:
    """Pin d+1 vertices on a perturbed simplex; relax the rest on springs.

    Every non-exceptional vertex lands at the weighted average of its
    neighbors (positive random weights unless given), then the whole
    configuration is nudged by ``jitter`` times its diameter, rejecting
    nudges that push some non-exceptional vertex out of the relative interior
    of its neighbors' convex hull. ``jitter=0`` returns the exact relaxation.

    A nudge is accepted when every free vertex has barycentric weights above
    1e-9 among its neighbors. Interiority is certified by correction: the
    uniform weights 1/deg plus the minimum-norm correction that restores the
    d+1 balance equations, batched over vertices of equal degree. A row that
    balances and clears 1e-9 is a feasible point of the max-min LP
    (``_barycentric_margin``), whose optimum is then above 1e-9 as well; the
    LP decides only the rows the correction leaves unbalanced or too small.
    So every nudge is accepted or rejected exactly as the LP alone would,
    and the random stream and the returned coordinates do not depend on how
    many rows the correction certified.

    Connectivity is not checked beyond reachability: a vertex with no path
    to the pinned set raises ``DegenerateInstanceError``. The paper's
    hypothesis that Γ is (d+1)-connected, under which the relaxed points are
    in general position, is left to the caller, who can test it with
    ``hypergraph.is_k_vertex_connected(gamma, d + 1)``.
    """
    _require_dimension(d)
    if not isinstance(gamma, Graph):
        raise InvalidInputError("rubber-band relaxation is defined on graphs")
    v = gamma.vertex_count
    _require_vertices(v, d)
    if exceptional == "auto":
        pinned = choose_exceptional(gamma, d)
    else:
        pinned = _pinned_set(exceptional, v, d)
    rng = np.random.default_rng(seed)
    pins = _perturbed_simplex(d, rng)

    if weights is None:
        weight_of = {e: float(rng.uniform(0.5, 1.5)) for e in gamma.sorted_edges()}
    else:
        weight_of = {}
        for e in gamma.sorted_edges():
            u, w = e
            value = weights.get(e, weights.get((w, u)))
            if value is None:
                raise InvalidInputError(f"missing weight for edge {e}")
            if not value > 0:
                raise InvalidInputError(f"weight for edge {e} must be positive")
            weight_of[e] = float(value)

    interior = [u for u in range(v) if u not in set(pinned)]
    reached = set(pinned)
    frontier = list(pinned)
    while frontier:
        x = frontier.pop()
        for y in gamma.neighbors(x):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    stranded = [u for u in interior if u not in reached]
    if stranded:
        raise DegenerateInstanceError(
            f"vertices {stranded} are disconnected from the pinned set"
        )

    laplacian = np.zeros((v, v))
    for (u, w), omega in weight_of.items():
        laplacian[u, u] += omega
        laplacian[w, w] += omega
        laplacian[u, w] -= omega
        laplacian[w, u] -= omega
    coords = np.zeros((v, d))
    coords[list(pinned)] = pins
    if interior:
        sub = laplacian[np.ix_(interior, interior)]
        rhs = -laplacian[np.ix_(interior, list(pinned))] @ pins
        try:
            coords[interior] = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateInstanceError(f"singular rubber-band system: {exc}")

    if jitter == 0.0 or not interior:
        return Framework(gamma, coords)

    diameter = max(
        float(np.linalg.norm(coords[a + 1:] - coords[a], axis=1).max())
        for a in range(v - 1)
    )
    neighbor_lists = [gamma.neighbors(u) for u in interior]
    for attempt in range(10):
        nudged = coords + jitter * diameter * rng.standard_normal(coords.shape)
        margins, _ = _barycentric_rows(nudged, interior, neighbor_lists, 1e-9)
        if np.all(margins > 1e-9):
            return Framework(gamma, nudged)
        logger.debug("jitter attempt %d broke convex containment", attempt + 1)
    raise DegenerateInstanceError(
        "could not keep every free vertex inside its neighbors' hull; "
        "the graph is too sparse for a generic rubber-band configuration"
    )


def positive_stress(
    framework: Framework, exceptional: tuple[int, ...]
) -> StressMatrix:
    """Stress with positive off-diagonal rows at every non-pinned vertex.

    Each such vertex must lie in the relative interior of its neighbors'
    hull (as rubber-band outputs do); its row holds barycentric coordinates
    there, with -1 on the diagonal. Pinned rows are zero.

    The coordinates are the uniform weights 1/deg corrected by the
    minimum-norm change that balances the row, batched over vertices of
    equal degree, and accepted when every weight is positive. They are
    valid positive barycentric coordinates, not the max-min vertex of the
    LP. A row the correction leaves unbalanced or not positive is decided
    by the LP (``_barycentric_margin``) and takes its weights; since a
    balanced positive row is feasible for that LP, a vertex is rejected
    exactly when the LP finds no positive weights.
    """
    gamma = framework.structure
    if not isinstance(gamma, Graph):
        raise InvalidInputError("positive stresses are defined on graphs")
    v = framework.vertex_count
    pinned = _pinned_set(exceptional, v, framework.dim)
    interior = [u for u in range(v) if u not in pinned]
    neighbor_lists = [list(gamma.neighbors(u)) for u in interior]
    margins, rows = _barycentric_rows(
        framework.coordinates, interior, neighbor_lists, 0.0
    )
    omega = np.zeros((v, v))
    for u, nbrs, margin, weights in zip(interior, neighbor_lists, margins, rows):
        if weights is None or margin <= 0:
            raise DegenerateInstanceError(
                f"vertex {u} is not interior to its neighbors' hull"
            )
        omega[u, nbrs] = weights
        omega[u, u] = -1.0
    return StressMatrix(omega, symmetric=False, zero_rows=tuple(sorted(pinned)))


def nonsymmetric_stress(
    framework: Framework,
    seed=None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> StressMatrix:
    """Random equilibrium stress, one independent row per vertex.

    Row u is a uniformly random unit element of the kernel of the d×deg(u)
    matrix of edge vectors out of u, with the diagonal set to minus the row
    sum; vertices whose edge vectors are linearly independent, and isolated
    vertices, get a zero row.

    The edge-vector matrices of all vertices of one degree are factored by
    one stacked SVD, whose slices equal ``numerical_kernel`` on each matrix
    bit for bit. The random combinations are one ``standard_normal`` draw
    of the total kernel dimension, consumed in vertex order, so they equal
    per-vertex draws in that order. The rows of all vertices of one degree
    and kernel dimension are formed by one stacked product, normalized and
    stored, in vertex order, dense or sparse by the vertex count
    (``_assemble``).
    """
    gamma = framework.structure
    if not isinstance(gamma, Graph):
        raise InvalidInputError("stress construction is defined on graphs")
    rng = np.random.default_rng(seed)
    v = framework.vertex_count
    coords = framework.coordinates
    adjacency = gamma.adjacency
    degree = np.fromiter(map(len, adjacency), dtype=np.intp, count=v)
    start = np.cumsum(degree) - degree
    flat = np.fromiter((w for nbrs in adjacency for w in nbrs), dtype=np.intp,
                       count=int(degree.sum()))
    # Per group of vertices: their neighbors (g, k) and an orthonormal basis
    # of each one's edge-vector kernel as columns (g, k, dimension). The
    # bases are C-contiguous and the products below are matrix-vector, so
    # each slice runs the BLAS product that one vertex's ``basis @ z``
    # would, and the rows equal a per-vertex loop's bit for bit.
    groups = []
    dimension = np.zeros(v, dtype=np.intp)
    for k in np.unique(degree[degree > 0]).tolist():
        vertices = np.flatnonzero(degree == k)
        neighbors = flat[start[vertices, None] + np.arange(k)]
        edge_vectors = np.swapaxes(coords[neighbors] - coords[vertices, None], -1, -2)
        _, vt, ranks = numkernel._stacked_kernels(edge_vectors, rel_tol)
        for rank in np.unique(ranks[ranks < k]).tolist():
            chosen = ranks == rank
            # Rank 0: all edge vectors vanish, so every combination balances.
            basis = (np.eye(k)[None] if rank == 0 else
                     np.ascontiguousarray(np.swapaxes(vt[chosen, rank:], 1, 2)))
            dimension[vertices[chosen]] = k - rank
            groups.append((vertices[chosen], neighbors[chosen], basis))
    draws = rng.standard_normal(int(dimension.sum()))
    offset = np.cumsum(dimension) - dimension
    # Row u fills deg(u) + 1 consecutive entries, the rows in vertex order.
    width = np.where(dimension > 0, degree + 1, 0)
    first = np.cumsum(width) - width
    rows = np.empty(int(width.sum()), dtype=np.intp)
    cols = np.empty_like(rows)
    values = np.empty(len(rows))
    for vertices, neighbors, basis in groups:
        coefficients = draws[offset[vertices, None] + np.arange(basis.shape[2])]
        stress_rows = basis @ coefficients[:, :, None]
        stress_rows /= np.sqrt(np.swapaxes(stress_rows, 1, 2) @ stress_rows)
        stress_rows = stress_rows[:, :, 0]
        slots = first[vertices, None] + np.arange(neighbors.shape[1] + 1)
        rows[slots] = vertices[:, None]
        cols[slots] = np.hstack([neighbors, vertices[:, None]])
        values[slots] = np.hstack([stress_rows, -stress_rows.sum(axis=1, keepdims=True)])
    zero_rows = np.flatnonzero(dimension == 0).tolist()
    if zero_rows:
        logger.debug("zero stress rows at vertices %s", zero_rows)
    omega = _assemble([(rows, cols, values)], (v, v))
    return StressMatrix(omega, symmetric=False, zero_rows=tuple(zero_rows))


def stress_corank(stress: StressMatrix, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Kernel dimension of a stress matrix, dense or sparse.

    Decided as in ``affinity_corank``; a positive stress is dense at any
    size, a non-symmetric one sparse from ``_SPARSE_MIN_COLUMNS`` vertices.
    """
    v = stress.matrix.shape[1]
    return v - numkernel.numerical_rank(stress.matrix, rel_tol)


def neighborhood_affine_rigidity_test(
    framework: Framework,
    rel_tol: float = DEFAULT_REL_TOL,
    seed: int | None = None,
) -> RigidityVerdict:
    """Affine rigidity of (p, N(Γ)): stress shortcut first, rank test second.

    Stage 1 draws one random non-symmetric stress and decides its corank by
    the rule of ``affine_rigidity_test``: d+1 certifies rigidity at once,
    and below d+1 raises ``NumericalRankError`` before any stage-2 work.
    Above d+1, stage 2 decides the corank of the strong affinity matrix of
    the neighborhood hypergraph by the same rule. Every row of a
    non-symmetric stress is an affine relation among one closed
    neighborhood, so it already lies in that matrix's row space: stacking
    further stresses onto it leaves the corank unchanged, and none are drawn.
    """
    gamma = framework.structure
    if not isinstance(gamma, Graph):
        raise InvalidInputError("neighborhood rigidity is defined on graphs")
    _require_proper(framework, rel_tol)
    v, d = framework.vertex_count, framework.dim

    stage1 = nonsymmetric_stress(framework, seed, rel_tol)
    corank1 = stress_corank(stage1, rel_tol)
    if _verdict("stage-1 non-symmetric stress", corank1, d, rel_tol) == RIGID:
        certificate = (
            f"non-symmetric equilibrium stress of corank {corank1} (stage 1)"
        )
        return RigidityVerdict(RIGID, corank1, certificate, one_sided=False)

    neighborhood = Framework(neighborhood_hypergraph(gamma), framework.coordinates)
    affinity = strong_affinity_matrix(neighborhood, rel_tol)
    corank = affinity_corank(affinity, rel_tol)
    verdict = _verdict("neighborhood affinity matrix", corank, d, rel_tol)
    certificate = (
        f"stage-1 stress corank {corank1}; neighborhood affinity matrix "
        f"{affinity.matrix.shape[0]}x{v} with corank {corank} (stage 2)"
    )
    return RigidityVerdict(verdict, corank, certificate, one_sided=False)


def _direction_monomials(directions: np.ndarray) -> np.ndarray:
    """Rows of squares and doubled cross terms, one per direction."""
    i, j = np.triu_indices(directions.shape[1], 1)
    cross = 2.0 * directions[:, i] * directions[:, j]
    return np.concatenate([directions * directions, cross], axis=1)


def _conic_system(
    directions: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, float | None]:
    """Monomial system of directions and its σ_min/σ_max, or None on a conic."""
    system = _direction_monomials(directions)
    kernel = numkernel.numerical_kernel(system, rel_tol)
    if kernel.dimension:
        return system, None
    return system, float(kernel.singular_values[-1] / kernel.singular_values[0])


def conic_at_infinity_test(
    framework: Framework, rel_tol: float = DEFAULT_REL_TOL
) -> bool:
    """Whether some nonzero symmetric Q annihilates every edge direction.

    A graph's edges give the directions directly. Hypergraph frameworks are
    tested on their body graph; if any hyperedge's points affinely span R^d,
    its pairwise directions already rule every conic out, so the answer is
    false without building the monomial system (``_conic_system``, on which
    ``remove_affine`` decides too).
    """
    structure, coords, d = framework.structure, framework.coordinates, framework.dim
    if isinstance(structure, Hypergraph):
        if any(len(h) > d and affine_span_dimension(coords[sorted(h)], rel_tol) == d
               for h in structure.hyperedges):
            return False
        structure = body_graph(structure)
    edges = np.array(structure.sorted_edges(), dtype=np.intp).reshape(-1, 2)
    _, margin = _conic_system(coords[edges[:, 0]] - coords[edges[:, 1]], rel_tol)
    return margin is None


def universal_rigidity_certificate(
    framework: Framework,
    via: str = AFFINE_ROUTE,
    rel_tol: float = DEFAULT_REL_TOL,
    seed: int | None = None,
) -> UniversalRigidityResult:
    """One-sided certification of universal rigidity.

    The affine route certifies the input framework itself: affinely rigid
    plus body-graph edge directions not on a conic at infinity. The PSD route
    (graph frameworks) turns a corank-(d+1) non-symmetric stress Ω into the
    symmetric PSD stress ΩᵀΩ of rank v-d-1, certifying the framework of the
    squared graph. Failure of either route, improper frameworks included, is
    reported as inconclusive, never as a refutation; a corank below d+1
    raises ``NumericalRankError``, as in ``affine_rigidity_test``.
    """
    if via not in (AFFINE_ROUTE, PSD_ROUTE):
        raise InvalidInputError(f"unknown route {via!r}")
    if via == PSD_ROUTE and not isinstance(framework.structure, Graph):
        raise InvalidInputError("the PSD route is defined on graph frameworks")
    try:
        _require_proper(framework, rel_tol)
    except (ImproperFrameworkError, UnsupportedInstanceError) as exc:
        return UniversalRigidityResult(False, via, f"rank test not applicable: {exc}")
    v, d = framework.vertex_count, framework.dim
    if via == AFFINE_ROUTE:
        verdict = affine_rigidity_test(framework, rel_tol)
        if verdict.verdict != RIGID:
            return UniversalRigidityResult(
                False,
                via,
                f"not affinely rigid (corank {verdict.corank}); "
                "universal rigidity may still hold",
            )
        if conic_at_infinity_test(framework, rel_tol):
            return UniversalRigidityResult(
                False, via, "edge directions lie on a conic at infinity"
            )
        return UniversalRigidityResult(
            True,
            via,
            "affinely rigid (corank d+1) and body-graph edge directions are "
            "not on a conic at infinity",
            target="input framework",
        )
    stress = nonsymmetric_stress(framework, seed, rel_tol)
    corank = stress_corank(stress, rel_tol)
    if _verdict("random non-symmetric stress", corank, d, rel_tol) != RIGID:
        return UniversalRigidityResult(
            False, via, f"random stress corank {corank}, need {d + 1}"
        )
    squared = Framework(squared_graph(framework.structure), framework.coordinates)
    if conic_at_infinity_test(squared, rel_tol):
        return UniversalRigidityResult(
            False,
            via,
            "squared-graph edge directions lie on a conic at infinity",
        )
    psd = StressMatrix(stress.matrix.T @ stress.matrix, symmetric=True)
    return UniversalRigidityResult(
        True,
        via,
        f"symmetric PSD stress of rank {v - d - 1} for the squared graph, "
        "whose edge directions avoid every conic at infinity",
        target="squared-graph framework",
        stress=psd,
    )


def affinity_residuals(
    affinity: AffinityMatrix, framework: Framework
) -> dict[str, float]:
    """Worst-case violations of the affinity-matrix contract.

    Returns row-sum residual (rows scaled to unit norm), off-support mass,
    and the residual of the lifted coordinate vectors relative to the largest
    singular value, taken from the same ``singular_value_rank`` call that
    ``affine_rigidity_test`` decides on, so both report the same numbers.
    Dense and sparse matrices are read through their nonzero entries.
    """
    _, singular_values = numkernel.singular_value_rank(affinity.matrix)
    return _affinity_residuals(affinity, framework, singular_values)


def _nonzeros(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of a matrix's nonzero entries."""
    if isinstance(matrix, numkernel.SparseMatrix):
        return matrix.rows, matrix.cols, matrix.values
    rows, cols = np.nonzero(matrix)
    return rows, cols, matrix[rows, cols]


def _largest_off(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
    allowed_rows: np.ndarray, allowed_cols: np.ndarray, width: int,
) -> float:
    """Largest |value| of an entry whose cell is not among the allowed cells."""
    allowed = np.isin(rows * width + cols, allowed_rows * width + allowed_cols)
    return float(np.abs(values[~allowed]).max(initial=0.0))


def _affinity_residuals(
    affinity: AffinityMatrix, framework: Framework, singular_values: np.ndarray
) -> dict[str, float]:
    theta = as_hypergraph(framework.structure)
    matrix = affinity.matrix
    count, v = matrix.shape
    rows, cols, values = _nonzeros(matrix)
    norms = np.sqrt(np.bincount(rows, values * values, minlength=count))
    sums = np.bincount(rows, values, minlength=count)
    ratios = np.abs(sums) / np.where(norms > 0, norms, 1.0)
    support = [theta.hyperedges[index] for index in affinity.row_provenance]
    sizes = np.fromiter(map(len, support), dtype=np.intp, count=count)
    members = np.fromiter(
        (u for h in support for u in h), dtype=np.intp, count=int(sizes.sum())
    )
    off_support = _largest_off(
        rows, cols, values, np.repeat(np.arange(count), sizes), members, v
    )
    sigma_max = float(singular_values[0]) if singular_values.size else 0.0
    return {
        "row_sum": float(ratios.max(initial=0.0)),
        "off_support": off_support,
        "kernel_residual": _kernel_residual(matrix, framework.coordinates, sigma_max),
    }


def _kernel_residual(matrix, coords: np.ndarray, scale: float) -> float:
    """Residual of {ones, coordinate axes} under a matrix of 2-norm ``scale``."""
    if scale == 0:
        return 0.0
    worst = 0.0
    vectors = [np.ones(len(coords)), *coords.T]
    for vec in vectors:
        worst = max(
            worst,
            float(np.linalg.norm(matrix @ vec) / (scale * np.linalg.norm(vec))),
        )
    return worst


def _spectral_norm(matrix) -> float:
    """σ_max of a dense or sparse matrix, as its rank decision reads it."""
    values = numkernel.singular_value_rank(matrix)[1]
    return float(values[0]) if values.size else 0.0


def stress_residuals(
    stress: StressMatrix, framework: Framework
) -> dict[str, float]:
    """Worst-case violations of the stress-matrix contract."""
    gamma = framework.structure
    if not isinstance(gamma, Graph):
        raise InvalidInputError("stress residuals are defined on graphs")
    matrix = stress.matrix
    v = framework.vertex_count
    edges = np.array(gamma.sorted_edges(), dtype=np.intp).reshape(-1, 2)
    diagonal = np.arange(v)
    rows, cols, values = _nonzeros(matrix)
    sparsity = _largest_off(
        rows, cols, values,
        np.concatenate([diagonal, edges[:, 0], edges[:, 1]]),
        np.concatenate([diagonal, edges[:, 1], edges[:, 0]]),
        v,
    )
    scale = max(_spectral_norm(matrix), 1e-300)
    row_sum = float(np.abs(np.bincount(rows, values, minlength=v)).max()) / scale
    kernel_residual = _kernel_residual(matrix, framework.coordinates, scale)
    symmetry = _spectral_norm(matrix - matrix.T) / scale if stress.symmetric else 0.0
    return {
        "sparsity": sparsity,
        "row_sum": row_sum,
        "kernel_residual": kernel_residual,
        "symmetry": symmetry,
    }
