"""Exception types shared across the library.

Validation failures raise subclasses of :class:`DrFrontierError` so callers
(and the CLI) can distinguish bad input from genuine bugs.
"""


class DrFrontierError(Exception):
    """Base class for all library errors."""


class NonSquareError(DrFrontierError):
    """Covariance input is not a square 2-D matrix."""


class AsymmetricError(DrFrontierError):
    """Matrix is asymmetric beyond the relative tolerance."""


class NotPSDError(DrFrontierError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NotSPDError(DrFrontierError):
    """Matrix is not symmetric positive definite."""


class DimensionMismatchError(DrFrontierError):
    """Vector or matrix dimensions are inconsistent with the universe."""


class BudgetViolationError(DrFrontierError):
    """Portfolio weights do not sum to one within tolerance."""


class SingularCovarianceError(DrFrontierError):
    """Operation needs a strictly positive definite covariance."""


class SingularDistanceError(DrFrontierError):
    """A singular universe has no usable maximum-DR centre: DR is unbounded
    on the budget hyperplane, or the centre is too ill-conditioned to
    resolve q_max."""


class NonPositiveQmaxError(DrFrontierError):
    """Top of the diversification-return frontier came out nonpositive."""


class NonZeroDiagonalError(DrFrontierError):
    """Distance matrix has a nonzero diagonal."""


class MissingReturnsError(DrFrontierError):
    """Operation needs expected returns (or a risk-free rate) that are absent."""


class DegenerateReturnsError(DrFrontierError):
    """Expected returns are proportional to the ones vector."""


class TangencyInfeasibleError(DrFrontierError):
    """Risk-free rate is not below the minimum-variance portfolio return."""


class RiskBelowMvpError(DrFrontierError):
    """Requested risk lies below its curve's base risk: sigma_mvp, or 0 with cash."""


class NegativeVarianceError(DrFrontierError):
    """An asset variance is negative."""


class ZeroVarianceError(DrFrontierError):
    """An asset variance is zero where a positive one is required."""


class ParseError(DrFrontierError):
    """Input is not the finite numbers, or the sequence of names, it must
    be; for a CSV panel the message carries row and column."""


class TooFewRowsError(DrFrontierError):
    """Return history is too short to estimate moments."""


class NonMonotoneDatesError(DrFrontierError):
    """Observation dates are not strictly increasing."""
