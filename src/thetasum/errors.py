"""Exception types shared across the package, and its one integer check."""

import operator


class ThetasumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ThetasumError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidSpec(ThetasumError, ValueError):
    """Theta spec violates a structural constraint."""


class OffsetMismatch(ThetasumError, ValueError):
    """Exponent offsets cannot be aligned on any common integer grid."""


class CoefficientOverflow(ThetasumError, ArithmeticError):
    """Coefficient arithmetic left the finite float64 range."""


class ZeroLeadingCoefficient(ThetasumError, ValueError):
    """Operation requires a nonzero leading coefficient."""


class NegativeExponent(ThetasumError, ValueError):
    """Real power with a negative exponent was requested."""


class ToleranceNotMet(ThetasumError, RuntimeError):
    """Requested tolerance unreachable within the resource caps."""


class IllConditioned(ThetasumError, RuntimeError):
    """Linear system too ill-conditioned to solve reliably."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


def _whole(value, name: str, least: int) -> int:
    """value as an int if it is an ``int`` or numpy integer >= least; anything
    else, a bool and every float (2.0 too) included, raises ``DomainError``."""
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return n
