"""Affine rigidity of hypergraph frameworks and scan registration.

The package decides whether a framework (a hypergraph with vertex
coordinates) is affinely rigid by the corank of its strong affinity matrix,
runs exact randomized generic tests over a large prime field, certifies
universal rigidity through non-symmetric equilibrium stresses and the
conic-at-infinity criterion, and merges per-hyperedge local scans into one
global configuration up to an affine or Euclidean transform.
"""

from .errors import (
    AffrigError,
    DegenerateInstanceError,
    EigensolverError,
    ImproperFrameworkError,
    InconsistentLengthsError,
    InconsistentScansError,
    InvalidInputError,
    NonUniqueTransformError,
    NotAffinelyRigidError,
    NumericalRankError,
    UnsupportedInstanceError,
)
from .hypergraph import (
    Graph,
    Hypergraph,
    as_hypergraph,
    body_graph,
    is_k_vertex_connected,
    neighborhood_hypergraph,
    squared_graph,
    truncate_hyperedges,
    zha_zhang_condition,
)
from .registration import (
    Registration,
    ScanSet,
    affine_register,
    best_fit_affine,
    best_fit_euclidean,
    euclidean_register,
    remove_affine,
    synthetic_scan_set,
)
from .rigidity import (
    AffinityMatrix,
    Framework,
    RigidityVerdict,
    StressMatrix,
    UniversalRigidityResult,
    affine_rigidity_test,
    affinity_corank,
    conic_at_infinity_test,
    field_affinity_corank,
    generic_affine_rigidity_test,
    neighborhood_affine_rigidity_test,
    nonsymmetric_stress,
    positive_stress,
    rubber_band_embedding,
    strong_affinity_matrix,
    universal_rigidity_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AffrigError",
    "AffinityMatrix",
    "DegenerateInstanceError",
    "EigensolverError",
    "Framework",
    "Graph",
    "Hypergraph",
    "ImproperFrameworkError",
    "InconsistentLengthsError",
    "InconsistentScansError",
    "InvalidInputError",
    "NonUniqueTransformError",
    "NotAffinelyRigidError",
    "NumericalRankError",
    "Registration",
    "RigidityVerdict",
    "ScanSet",
    "StressMatrix",
    "UniversalRigidityResult",
    "UnsupportedInstanceError",
    "affine_register",
    "affine_rigidity_test",
    "affinity_corank",
    "as_hypergraph",
    "best_fit_affine",
    "best_fit_euclidean",
    "body_graph",
    "conic_at_infinity_test",
    "euclidean_register",
    "field_affinity_corank",
    "generic_affine_rigidity_test",
    "is_k_vertex_connected",
    "neighborhood_affine_rigidity_test",
    "neighborhood_hypergraph",
    "nonsymmetric_stress",
    "positive_stress",
    "remove_affine",
    "rubber_band_embedding",
    "squared_graph",
    "strong_affinity_matrix",
    "synthetic_scan_set",
    "truncate_hyperedges",
    "universal_rigidity_certificate",
    "zha_zhang_condition",
]
