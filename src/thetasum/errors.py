"""Exception types shared across the package, and its one integer and one real check."""

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


def _real(value, name: str, zero: bool = False) -> float:
    """value as a float if it is a finite real > 0, or >= 0 with zero; a bool,
    a string and anything else raise ``DomainError``."""
    import math, numbers  # here: ``import thetasum`` loads this module alone
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            math.isfinite(value) and (value > 0 or zero and value == 0)):
        raise DomainError(f"{name} must be finite and {'>= 0' if zero else 'positive'}, got {value!r}")
    return float(value)
