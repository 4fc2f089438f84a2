"""Exception types shared across the package, and its one integer and one real-number check."""

import math
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


def _number(value, name: str) -> float:
    """value as a float if it is a real number, numpy's too; a bool, a string
    and anything else raise ``DomainError``."""
    if not isinstance(value, float):  # a float needs no look at the numeric tower
        import numbers  # here: ``import thetasum`` loads this module alone
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real(value, name: str, zero: bool = False) -> float:
    """``_number(value, name)`` if it is finite and > 0, or >= 0 with zero;
    anything else raises ``DomainError``."""
    x = _number(value, name)
    if not (math.isfinite(x) and (x > 0 or zero and x == 0)):
        raise DomainError(f"{name} must be finite and {'nonnegative' if zero else 'positive'}, got {value!r}")
    return x
