"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming errors.
"""


class SlagError(Exception):
    """Base class for all package-specific errors."""


# -- mesh construction / topology --------------------------------------------

class NonManifoldError(SlagError):
    """A codimension-1 face is shared by more than two top simplices."""


class UnlabeledBoundaryError(SlagError):
    """Some boundary face carries no component label, or labels are inconsistent."""


class NonOrientableError(SlagError):
    """No globally consistent orientation of the top simplices exists."""


class RankDeficientError(SlagError):
    """Could not extract the requested number of independent cycles."""


# -- discrete exterior calculus ----------------------------------------------

class DegreeOutOfRangeError(SlagError):
    """Requested cochain degree does not exist on this mesh."""


class DegenerateMetricError(SlagError):
    """A per-simplex metric tensor is not positive definite."""


class DimensionMismatchError(SlagError):
    """Numerical kernel dimension disagrees with the topological prediction."""


class SolverFailureError(SlagError):
    """A linear solve or factorization failed to converge."""


class DegreeMismatchError(SlagError):
    """Cochain degree incompatible with the requested pairing or operation."""


# -- ambient model -------------------------------------------------------------

class NotKaehlerError(SlagError):
    """Supplied (omega, J) data violate a compatibility requirement."""


class NormalizationFailureError(SlagError):
    """Top-form normalization identity fails beyond tolerance."""


class ArityMismatchError(SlagError):
    """Wrong number of tangent-vector arguments for a form evaluation."""


# -- immersions ----------------------------------------------------------------

class DegenerateSimplexError(SlagError):
    """Image simplex has rank below the manifold dimension."""


class NotAutomorphismError(SlagError):
    """Vertex map is not a simplicial automorphism."""


class LabelViolationError(SlagError):
    """Automorphism does not preserve boundary components."""


# -- flux ------------------------------------------------------------------------

class VelocityUnavailableError(SlagError):
    """A path with fewer than two time samples, too short for the time quadrature."""


class NonLagrangianSampleError(SlagError):
    """A path sample violates the Lagrangian condition beyond tolerance."""


class NonSpecialSampleError(SlagError):
    """A path sample violates the special (calibrated) condition beyond tolerance."""


class EndpointMismatchError(SlagError):
    """Two paths supposed to share endpoints do not."""


# -- charts ------------------------------------------------------------------------

class SingularJacobianError(SlagError):
    """Chart derivative is singular; the map is not a local diffeomorphism."""


class InsufficientSamplesError(SlagError):
    """Not enough affinely independent samples for the requested fit."""


# -- runner ------------------------------------------------------------------------

class ConfigError(SlagError):
    """Scenario file is malformed; message names the offending field."""
