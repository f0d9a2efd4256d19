"""Exception types shared across the package."""


class AffrigError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(AffrigError):
    """Malformed input: non-finite entries, shape mismatch, bad parameters."""


class UnsupportedInstanceError(AffrigError):
    """Instance outside the supported regime (e.g. fewer than d+1 vertices)."""


class ImproperFrameworkError(AffrigError):
    """Configuration whose affine span is smaller than the ambient dimension."""

    def __init__(self, span_dim: int, dim: int):
        self.span_dim = span_dim
        self.dim = dim
        super().__init__(
            f"configuration is improper: affine span has dimension {span_dim}, "
            f"ambient dimension is {dim}"
        )


class NumericalRankError(AffrigError):
    """A float corank below d+1, which no proper framework has in exact arithmetic.

    Rounding noise reached the relative singular-value cutoff: the
    coordinates are too ill-conditioned for it, or the cutoff is too small.
    """

    def __init__(self, matrix: str, corank: int, expected: int, rel_tol: float):
        self.corank = corank
        self.expected = expected
        self.rel_tol = rel_tol
        super().__init__(
            f"{matrix} has numerical corank {corank}, below d+1 = {expected}, at "
            f"relative cutoff {rel_tol:g}: rounding noise reaches the cutoff, so "
            "the coordinates are too ill-conditioned for it or it is too small"
        )


class EigensolverError(NumericalRankError):
    """The sparse route's eigensolver did not settle, so a float rank is undecided."""

    def __init__(self, shape: tuple[int, int], detail: str):
        self.corank = None
        self.expected = None
        self.rel_tol = None
        AffrigError.__init__(
            self,
            f"the sparse eigensolver did not converge on a {shape[0]}x{shape[1]} "
            f"matrix, so its rank is undecided: {detail}",
        )


class DegenerateInstanceError(AffrigError):
    """Singular or otherwise unusable instance (e.g. disconnected rubber-band system)."""


class NotAffinelyRigidError(AffrigError):
    """Scan hypergraph is not affinely rigid; carries the observed corank."""

    def __init__(self, corank: int, expected: int):
        self.corank = corank
        self.expected = expected
        super().__init__(
            f"scan hypergraph is not affinely rigid: affinity corank {corank}, "
            f"expected {expected}"
        )


class InconsistentScansError(AffrigError):
    """Scan data is mutually inconsistent beyond tolerance (corank too small)."""


class NonUniqueTransformError(AffrigError):
    """Length directions lie on a conic at infinity; the metric upgrade is not unique."""


class InconsistentLengthsError(AffrigError):
    """Length constraints admit no positive-semidefinite Gram solution."""
