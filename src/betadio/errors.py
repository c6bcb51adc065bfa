"""Exception hierarchy.

Domain errors mean the request is mathematically infeasible or out of the
supported range; precision errors mean a certified answer could not be
produced at the available working precision.  Nothing is ever silently
approximated: callers either get a certified result or an exception.
"""

# the working precision in bits when a caller names none; it lives here, not
# in numerics, so that a default argument does not load the interval layer
DEFAULT_PRECISION = 256


class BetadioError(Exception):
    """Base class for all library errors."""


class UsageError(Exception):
    """A malformed command line: the CLI exits 1 with one ``usage error:`` line."""


class DomainError(BetadioError):
    """Request is infeasible or outside the supported domain."""


class PrecisionError(BetadioError):
    """A certified result could not be produced; retry with more bits."""


class PrecisionExhausted(PrecisionError):
    pass


class UndecidedFiniteness(PrecisionError):
    """Trailing zeros persist to the horizon but finiteness is unproven."""


class NoRoot(DomainError):
    pass


class DegenerateApproximant(DomainError):
    """The isolated root is <= 1 and cannot serve as an expansion base."""


class NotSelfAdmissible(DomainError):
    pass


class InfeasibleParameters(DomainError):
    """Parameters below the emptiness threshold theta >= 1/(1 - vhat)."""


class InvalidDigitSet(DomainError):
    pass


class NoRuns(DomainError):
    pass


class InsufficientDepth(DomainError):
    pass


class DepthExceeded(DomainError):
    pass


class HorizonTooDeep(DomainError):
    pass


class PrefixConditionFailed(DomainError):
    pass


class NotInSupport(DomainError):
    """Cylinder is incompatible with the construction; its mass is undefined here."""
