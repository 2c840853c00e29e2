"""Exception types raised by the analysis modules."""


class QbdTailError(Exception):
    """Base class for all library errors."""


# matcore
class NotIrreducible(QbdTailError):
    """Matrix is not irreducible on its sparsity pattern."""


class NoConvergence(QbdTailError):
    """Iteration budget exhausted before reaching tolerance."""


class ShapeMismatch(QbdTailError):
    """Operands have incompatible shapes."""


class SpectralRadiusNotBelowOne(QbdTailError):
    """Neumann series diverges: spectral radius is not below one."""


class NonPositiveScale(QbdTailError):
    """Diagonal scaling vector has a non-positive entry."""


class NonFiniteEntry(QbdTailError):
    """Matrix has an infinite or NaN entry."""


class NegativeEntry(QbdTailError):
    """Matrix has a negative entry where the operation forbids one."""


class IllConditioned(QbdTailError):
    """A linear solve failed its sign or residual verification."""


# qbd1d
class BoundaryNotInvertible(QbdTailError):
    """spectral radius of B0 is >= 1, so the boundary cannot be censored."""


class GammaPlusEmpty(QbdTailError):
    """The sublevel interval of the interior eigenvalue curve is empty."""


class ThetaOutsideGammaPlus(QbdTailError):
    """theta lies outside the admissible tilting interval."""


class NotStochastic(QbdTailError):
    """Operation requires a proper (stochastic) transition matrix."""


class NotPositiveRecurrent(QbdTailError):
    """Chain mean drift is >= 0; no stationary distribution."""


class NoSuperharmonicVector(QbdTailError):
    """No positive right subinvariant vector exists."""


class NoSignChange(QbdTailError):
    """Root-finding bracket does not straddle a root."""


# qbd2d
class EmptyGammaPlus(QbdTailError):
    """The two-dimensional tilting region has empty interior."""


class FaceNotInvertible(QbdTailError):
    """A boundary-face censoring inverse does not exist at this theta."""


class Unstable(QbdTailError):
    """Process is not positive recurrent; decay rates are undefined."""


class ZeroDirection(QbdTailError):
    """Direction vector must be finite, nonnegative and nonzero."""


class RateOverflow(QbdTailError):
    """A decay rate lies past the float range."""


class ThetaNotOnCurve(QbdTailError):
    """theta does not lie on the eigenvalue level curve."""


class InconsistentCategory(QbdTailError):
    """Both feasibility extremes dominate each other: a numerical defect."""


# jackson
class InvalidSpec(QbdTailError):
    """Model primitives violate a structural invariant."""


class NotRenewalStructure(QbdTailError):
    """Arrival process is not of renewal type."""


class PathDisagreement(QbdTailError):
    """Analytic and generic pipelines disagree beyond tolerance."""


class OutsideTransformRange(QbdTailError):
    """Transform inverse asked for a value outside the map's range."""


# oracle
class EmptyWindow(QbdTailError):
    """No usable data points in the regression window."""


class ThetaOutsideDomain(QbdTailError):
    """theta is outside the convergence domain of the stationary MGF."""


class InvalidStart(QbdTailError):
    """Simulation start is not a state of the chain."""


# cli
class ParseError(QbdTailError):
    """Model file cannot be parsed."""


class SchemaError(QbdTailError):
    """Model file violates the documented schema."""
