"""Exception hierarchy shared by all adaptgap modules."""


class AdaptGapError(Exception):
    """Base class for all adaptgap errors."""


class InvalidExponent(AdaptGapError):
    """An exponent is outside its admissible range."""


class IndexOutOfRange(AdaptGapError):
    """A matrix index lies outside [0, N1) x [0, N2)."""


class BudgetExceeded(AdaptGapError):
    """A query would push the issued count past a bounded budget."""


class DisciplineViolation(AdaptGapError):
    """A tape was used outside its discipline: a query on a non-adaptive
    tape, which only answers its plan, a plan answered twice, or a plan
    asked of an adaptive tape."""


class EmptyInput(AdaptGapError):
    """An operation received an empty sequence where values are required."""


class PreconditionViolated(AdaptGapError):
    """An estimator was invoked outside its stated parameter regime."""


class InvalidParameters(AdaptGapError):
    """Experiment or allocation parameters are outside their admissible range."""


class InsufficientPoints(AdaptGapError):
    """A rate fit needs at least four data points."""


class NonpositiveError(AdaptGapError):
    """A rate fit received an error value that is zero or negative."""


class NonfiniteError(AdaptGapError):
    """A rate fit received an error value, or an estimator returned a value,
    that is infinite or NaN."""


class RegimeViolation(AdaptGapError):
    """An experiment grid violates the sampling-regime guard."""
