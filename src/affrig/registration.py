"""Assemble a global configuration from per-hyperedge local scans.

Each scan reports its hyperedge's geometry in a private chart that is off by
an unknown affine (or Euclidean) transform. Affine relations are invariant
under invertible chart transforms, so the strong affinity matrix of the
unknown global configuration can be assembled directly from the charts, by
the same builder that ``rigidity`` applies to a framework's coordinates; its
kernel recovers the configuration up to one global affine map. When the
charts' internal distances are trusted, a least-squares fit of a Gram matrix
on the measured squared lengths upgrades the result to a Euclidean one.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import numkernel
from .errors import (
    InconsistentLengthsError,
    InconsistentScansError,
    InvalidInputError,
    NonUniqueTransformError,
    NotAffinelyRigidError,
)
from .hypergraph import Hypergraph, as_hypergraph
from .numkernel import DEFAULT_REL_TOL
from .rigidity import (
    Framework,
    _affinity_from_blocks,
    _conic_system,
    _positions_by_key,
    _require_vertices,
)

AFFINE = "affine"
EUCLIDEAN = "euclidean"


@dataclass(frozen=True, eq=False)
class Scan:
    """One hyperedge observed in a private chart.

    ``coordinates[k]`` is the observed point of ``members[k]``.
    """

    members: tuple[int, ...]
    coordinates: np.ndarray

    def __post_init__(self):
        if len(self.members) == 0:
            raise InvalidInputError("a scan must cover at least one vertex")
        if len(set(self.members)) != len(self.members):
            raise InvalidInputError("scan members must be distinct")
        coords = np.array(self.coordinates, dtype=float)
        if coords.ndim != 2 or coords.shape[0] != len(self.members):
            raise InvalidInputError(
                f"scan of {len(self.members)} vertices has chart shape "
                f"{coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise InvalidInputError("scan chart contains non-finite entries")
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "members", tuple(int(u) for u in self.members))


class SizeClass(NamedTuple):
    """The scans of one size k: their positions in the scan set (n,), their
    members (n, k) and their charts (n, k, d)."""

    positions: np.ndarray
    members: np.ndarray
    charts: np.ndarray


class ScanSet:
    """A collection of scans over a common vertex set.

    The scans are stored once per size k, as a ``SizeClass`` of read-only
    arrays; ``scans`` gives them as ``Scan`` objects, built on first use
    (each copies its chart).
    ``ScanSet(vertex_count, scans, trust)`` groups ``Scan`` objects.
    """

    def __init__(self, vertex_count: int, scans: Iterable[Scan], trust: str):
        scans = tuple(scans)
        groups = _positions_by_key(
            (len(scan.members), scan.coordinates.shape[1]) for scan in scans
        )
        self._adopt(vertex_count, [
            SizeClass(
                np.array(positions),
                np.array([scans[i].members for i in positions]),
                np.stack([scans[i].coordinates for i in positions]),
            )
            for positions in groups.values()
        ], trust)

    @classmethod
    def from_classes(
        cls, vertex_count: int, classes: Iterable[SizeClass], trust: str
    ) -> ScanSet:
        """A scan set of size classes whose positions number the scans."""
        scan_set = cls.__new__(cls)
        scan_set._adopt(vertex_count, classes, trust)
        return scan_set

    def _adopt(self, vertex_count: int, classes: Iterable[SizeClass], trust: str):
        if vertex_count < 1:
            raise InvalidInputError("vertex_count must be positive")
        if trust not in (AFFINE, EUCLIDEAN):
            raise InvalidInputError(f"unknown trust class {trust!r}")
        classes = tuple(classes)
        if not classes:
            raise InvalidInputError("a scan set needs at least one scan")
        dims = sorted({size_class.charts.shape[2] for size_class in classes})
        if len(dims) != 1:
            raise InvalidInputError(f"scans disagree on dimension: {dims}")
        for size_class in classes:
            members = size_class.members
            outside = members[(members < 0) | (members >= vertex_count)]
            if outside.size:
                raise InvalidInputError(f"scan vertex {outside[0]} out of range")
            for array in size_class:
                array.flags.writeable = False
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "trust", trust)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return sum(len(size_class.positions) for size_class in self.classes)

    @property
    def dim(self) -> int:
        return self.classes[0].charts.shape[2]

    @cached_property
    def scans(self) -> tuple[Scan, ...]:
        """The scans in their order."""
        scans = [None] * len(self)
        for positions, members, charts in self.classes:
            for position, row, chart in zip(positions.tolist(), members.tolist(),
                                            charts):
                scans[position] = Scan(tuple(row), chart)
        return tuple(scans)

    def hypergraph(self) -> Hypergraph:
        """The hypergraph whose hyperedges are the scanned vertex sets."""
        return Hypergraph.from_hyperedges(
            self.vertex_count, [scan.members for scan in self.scans]
        )

    def covered_vertices(self) -> set[int]:
        return set(_covered(self).tolist())


def _covered(scan_set: ScanSet) -> np.ndarray:
    """The labels of the vertices that some scan covers, sorted.

    Costs O(scans), not O(v): a document's v is one more than its largest
    label, which may be far beyond the number of labels.
    """
    return np.unique(
        np.concatenate([members.ravel() for _, members, _ in scan_set.classes])
    )


@dataclass(frozen=True, eq=False)
class Registration:
    """A recovered configuration and the class of its residual indeterminacy.

    ``diagnostics`` holds the affinity corank, spectral margins of the rank
    decision, and per-scan best-fit residuals (relative to the configuration
    diameter).
    """

    config: np.ndarray
    gauge: str
    diagnostics: dict

    def __post_init__(self):
        config = np.array(self.config, dtype=float)
        config.flags.writeable = False
        object.__setattr__(self, "config", config)


def best_fit_affine(
    source: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Least-squares affine map source -> target; returns (A, b, max error).

    ``source`` and ``target`` are (k, d) point lists, or stacks (n, k, d) of
    them fitted independently, which give A (n, d, d), b (n, d) and the
    errors as an (n,) array. The solve is ``lstsq``'s: the minimal-norm
    solution, with singular values of the design [source, 1] at most
    eps * max(k, d+1) times the largest treated as zero.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    design = np.concatenate([source, np.ones(source.shape[:-1] + (1,))], axis=-1)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = np.finfo(float).eps * max(design.shape[-2:]) * s[..., :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    solution = _transposed(vt) @ (inverse[..., None] * (_transposed(u) @ target))
    a = _transposed(solution[..., :-1, :])
    b = solution[..., -1, :]
    return a, b, _max_error(source @ _transposed(a) + b[..., None, :], target)


def best_fit_euclidean(
    source: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Best rigid motion (orthogonal map + shift) source -> target.

    Reflections are allowed: congruence does not distinguish handedness.
    Returns (R, t, max pointwise error). Stacks (n, k, d) of point lists are
    fitted independently, as in ``best_fit_affine``.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    src_center = source.mean(axis=-2, keepdims=True)
    dst_center = target.mean(axis=-2, keepdims=True)
    cross = _transposed(target - dst_center) @ (source - src_center)
    u, _, vt = np.linalg.svd(cross)
    rotation = u @ vt
    shift = dst_center - src_center @ _transposed(rotation)
    mapped = source @ _transposed(rotation) + shift
    return rotation, shift[..., 0, :], _max_error(mapped, target)


def _transposed(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack, -1, -2)


def _max_error(mapped: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """Largest pointwise distance per point list; a float for a single list."""
    error = np.linalg.norm(mapped - target, axis=-1).max(axis=-1)
    return float(error) if error.ndim == 0 else error


def _configuration_from_kernel(basis: np.ndarray, d: int) -> np.ndarray:
    """Deterministic gauge fix: drop the ones direction, SVD, fix signs."""
    v = basis.shape[0]
    deflated = basis - np.outer(np.ones(v), basis.mean(axis=0))
    left, _, _ = np.linalg.svd(deflated, full_matrices=False)
    config = left[:, :d]
    for axis in range(d):
        anchor = int(np.argmax(np.abs(config[:, axis])))
        if config[anchor, axis] < 0:
            config[:, axis] = -config[:, axis]
    return config - config[0]


def _diameter(points: np.ndarray) -> float:
    spread = points.max(axis=0) - points.min(axis=0)
    return float(np.linalg.norm(spread))


def _scan_residuals(
    scan_set: ScanSet, config: np.ndarray, gauge: str
) -> list[float]:
    """Each scan's best-fit error against ``config``, over its diameter.

    One stacked fit per scan size; the fit is looked up when called, so a
    replaced module attribute is the one that runs.
    """
    fit = best_fit_euclidean if gauge == EUCLIDEAN else best_fit_affine
    scale = max(_diameter(config), 1e-300)
    residuals = np.empty(len(scan_set))
    for indices, members, charts in scan_set.classes:
        _, _, errors = fit(charts, config[members])
        residuals[indices] = errors / scale
    return residuals.tolist()


def _affine_configuration(
    scan_set: ScanSet, rel_tol: float
) -> tuple[np.ndarray, dict]:
    """The affine-gauge configuration and the diagnostics of its rank decision."""
    v, d = scan_set.vertex_count, scan_set.dim
    covered = _covered(scan_set)
    if covered.size < v:
        first = np.setdiff1d(np.arange(min(v, covered.size + 5)), covered)[:5]
        raise InvalidInputError(
            f"{v - covered.size} of {v} vertices appear in no scan, "
            f"the first {first.tolist()}"
        )
    _require_vertices(v, d)
    affinity = _affinity_from_blocks(v, scan_set.classes, rel_tol)
    kernel = numkernel.numerical_kernel(affinity.matrix, rel_tol)
    corank = kernel.dimension
    if corank > d + 1:
        raise NotAffinelyRigidError(corank, d + 1)
    if corank < d + 1:
        raise InconsistentScansError(
            f"affinity corank {corank} fell below d+1 = {d + 1}: scan noise "
            f"exceeds rel_tol {rel_tol:g}"
        )
    config = _configuration_from_kernel(kernel.basis, d)
    rank_margin, kernel_gap = numkernel.rank_margins(kernel.singular_values, rel_tol)
    diagnostics = {
        "corank": corank,
        "rank_margin": rank_margin,
        "kernel_gap": kernel_gap,
    }
    return config, diagnostics


def affine_register(scan_set: ScanSet, rel_tol: float = DEFAULT_REL_TOL) -> Registration:
    """Recover the configuration up to one global affine transform.

    Assembles the strong affinity matrix from the local charts and reads the
    configuration off its (d+1)-dimensional kernel. A corank above d+1 means
    the scan hypergraph is not affinely rigid; a corank below d+1 means the
    scans are inconsistent beyond ``rel_tol`` (raise the tolerance above the
    noise floor for noisy charts).
    """
    config, diagnostics = _affine_configuration(scan_set, rel_tol)
    diagnostics["scan_residuals"] = _scan_residuals(scan_set, config, AFFINE)
    return Registration(config, AFFINE, diagnostics)


def _symmetric_from_packed(packed: np.ndarray, d: int) -> np.ndarray:
    gram = np.zeros((d, d))
    gram[np.diag_indices(d)] = packed[:d]
    position = d
    for i in range(d):
        for j in range(i + 1, d):
            gram[i, j] = gram[j, i] = packed[position]
            position += 1
    return gram


def remove_affine(
    registration: Registration,
    lengths: Iterable[tuple[int, int, float]],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Registration:
    """Upgrade an affine-gauge configuration to a Euclidean-gauge one.

    Fits a symmetric Gram matrix G so that the recovered directions reproduce
    the measured squared lengths, then applies a Cholesky-type factor of G.
    The fit is unique exactly when the measured directions do not lie on a
    conic at infinity, i.e. when its monomial system (one row per measured
    pair, repeats included) has no numerical kernel, decided as in
    ``conic_at_infinity_test``; the ``conic_margin`` diagnostic is its
    relative smallest singular value (no guarantee beyond that for noisy
    data).
    """
    if registration.gauge != AFFINE:
        raise InvalidInputError("remove_affine expects an affine-gauge registration")
    config = registration.config
    v, d = config.shape
    us: list[int] = []
    ws: list[int] = []
    squares: list[float] = []
    for u, w, squared in lengths:
        u, w = int(u), int(w)
        if not (0 <= u < v and 0 <= w < v) or u == w:
            raise InvalidInputError(f"bad length pair ({u}, {w})")
        if not math.isfinite(squared) or squared <= 0:
            raise InvalidInputError(f"squared length for ({u}, {w}) must be positive")
        us.append(u)
        ws.append(w)
        squares.append(float(squared))
    if not squares:
        raise InvalidInputError("no length constraints given")

    design, conic_margin = _conic_system(config[us] - config[ws], rel_tol)
    if conic_margin is None:
        raise NonUniqueTransformError(
            "measured directions lie on a conic at infinity; the Gram fit "
            "is not unique"
        )
    target = np.array(squares)
    packed = numkernel.least_squares(design, target)
    gram = _symmetric_from_packed(packed, d)
    factor = numkernel.psd_cholesky(gram)
    if factor is None:
        raise InconsistentLengthsError(
            "fitted Gram matrix is not positive semidefinite; measured "
            "lengths are mutually inconsistent"
        )
    upgraded = config @ factor
    achieved = ((upgraded[us] - upgraded[ws]) ** 2).sum(axis=1)
    diagnostics = dict(registration.diagnostics)
    diagnostics["length_error"] = float((np.abs(achieved - target) / target).max())
    diagnostics["conic_margin"] = conic_margin
    return Registration(upgraded, EUCLIDEAN, diagnostics)


def euclidean_register(
    scan_set: ScanSet, rel_tol: float = DEFAULT_REL_TOL
) -> Registration:
    """Affine registration followed by length-based gauge removal.

    Requires metrically trustworthy charts; every pairwise distance inside
    every scan becomes a constraint for the Gram fit.
    """
    if scan_set.trust != EUCLIDEAN:
        raise InvalidInputError(
            "euclidean_register needs a scan set with euclidean trust"
        )
    config, diagnostics = _affine_configuration(scan_set, rel_tol)
    # Every pair inside every scan, scans in order, pairs (a, b) with a < b
    # in member order; the Gram fit is not invariant to reordering its rows.
    pair_counts = np.empty(len(scan_set), dtype=int)
    for indices, members, _ in scan_set.classes:
        pair_counts[indices] = members.shape[1] * (members.shape[1] - 1) // 2
    offsets = np.concatenate([[0], np.cumsum(pair_counts)])
    pairs = np.empty((offsets[-1], 2), dtype=int)
    squares = np.empty(offsets[-1])
    for indices, members, charts in scan_set.classes:
        a, b = np.triu_indices(members.shape[1], 1)
        rows = offsets[indices][:, None] + np.arange(len(a))
        pairs[rows, 0] = members[:, a]
        pairs[rows, 1] = members[:, b]
        squares[rows] = ((charts[:, a] - charts[:, b]) ** 2).sum(axis=-1)
    lengths = zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), squares.tolist())
    upgraded = remove_affine(Registration(config, AFFINE, diagnostics), lengths, rel_tol)
    diagnostics = dict(upgraded.diagnostics)
    diagnostics["scan_residuals"] = _scan_residuals(
        scan_set, upgraded.config, EUCLIDEAN
    )
    return Registration(upgraded.config, EUCLIDEAN, diagnostics)


def synthetic_scan_set(
    framework: Framework,
    trust: str = AFFINE,
    seed: int | None = None,
    noise: float = 0.0,
) -> ScanSet:
    """Scans of a known framework, each in a random private chart.

    Affine trust applies a random invertible linear map plus shift per scan;
    euclidean trust applies a random orthogonal map plus shift. ``noise``
    adds centered gaussian error of that size relative to the chart diameter.
    """
    if trust not in (AFFINE, EUCLIDEAN):
        raise InvalidInputError(f"unknown trust class {trust!r}")
    theta = as_hypergraph(framework.structure)
    d = framework.dim
    rng = np.random.default_rng(seed)
    scans = []
    for h in theta.hyperedges:
        members = tuple(sorted(h))
        chart = framework.coordinates[list(members)].copy()
        if trust == AFFINE:
            while True:
                a = rng.standard_normal((d, d))
                if abs(np.linalg.det(a)) > 0.1:
                    break
        else:
            a, _ = np.linalg.qr(rng.standard_normal((d, d)))
        chart = chart @ a.T + rng.standard_normal(d)
        if noise > 0:
            chart = chart + noise * max(_diameter(chart), 1e-300) * rng.standard_normal(
                chart.shape
            )
        scans.append(Scan(members, chart))
    return ScanSet(framework.vertex_count, tuple(scans), trust)
