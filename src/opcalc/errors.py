"""Exception and warning types shared by all opcalc modules."""


class OpcalcError(Exception):
    """Base class for all opcalc errors."""


class InvalidInput(OpcalcError, ValueError):
    """An argument is malformed or out of range (also a ``ValueError``)."""


class NonDiagonalizable(OpcalcError):
    """Eigenvector matrix is too ill-conditioned to trust; use a contour path."""


class DimensionMismatch(OpcalcError):
    """Matrix / tensor-operator dimensions are inconsistent."""


class CoincidentNodes(OpcalcError):
    """Nodes too close for the difference-quotient recursion; use contour or simplex form."""


class ContourTooTight(OpcalcError):
    """A quadrature node on the contour is nearly on top of an interpolation node."""


class DomainViolation(OpcalcError):
    """Evaluation would leave the declared domain of holomorphy."""


class ZeroNodeNegativePower(OpcalcError):
    """Negative power of the identity function requires all nodes nonzero."""


class SeriesDiverging(OpcalcError):
    """Shell magnitudes of a series grew for several consecutive orders."""


class NonCommutingTuple(OpcalcError):
    """Matrices fail the pairwise commutation tolerance."""


class ContourViolation(OpcalcError):
    """Contour does not encircle the spectrum once or exits the function domain."""


class ArityCap(OpcalcError):
    """Too many integration variables for the tensor-grid quadrature."""


class TensorRuleViolation(OpcalcError):
    """Product rule f1(a1)...fn(an) disagreed with the joint evaluation."""


class SectorViolation(OpcalcError):
    """The spectrum is not contained in the required strip or sector."""


class DecayViolation(OpcalcError):
    """Integrand family violates the decay-exponent conditions for the half-line integral."""


class QuadratureNoConvergence(OpcalcError):
    """Adaptive quadrature hit its refinement cap before reaching the tolerance."""


class BranchRadiusExceeded(OpcalcError):
    """Matrix logarithm left the principal-branch safety radius."""


class StepRejected(OpcalcError):
    """Integrator step produced non-finite values."""


class ConvergenceThresholdExceeded(UserWarning):
    """Perturbation is outside the estimated convergence region; result may be unreliable."""
