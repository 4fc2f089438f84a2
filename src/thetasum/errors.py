"""Exception types shared across the package, and its one check of each
kind of argument: integers, real numbers with their sign rules, evaluation
points, rational scales and profile values."""

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


def _number(value, name: str, error: type = DomainError) -> float:
    """value as a float if it is a real number, numpy's too, an int past the
    doubles as inf or -inf; a bool, a string and anything else raise ``error``."""
    if not isinstance(value, float):  # a float needs no look at the numeric tower
        import numbers  # here: ``import thetasum`` loads this module alone
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # its sign by comparison: copysign would convert it again
        return math.inf if value > 0 else -math.inf


def _real(value, name: str, sign: str = "positive", error: type = DomainError) -> float:
    """``_number(value, name, error)`` if it is finite and, by sign, > 0
    ("positive"), >= 0 ("nonnegative") or of either sign ("any"); anything
    else raises ``error`` "<name> must be finite[ and <sign>], got <value>"."""
    x = _number(value, name, error)
    if not (math.isfinite(x) and (x > 0 or x == 0 and sign == "nonnegative" or sign == "any")):
        raise error(f"{name} must be finite{'' if sign == 'any' else ' and ' + sign}, got {value!r}")
    return x


def _points(values, name: str, sign: str | None = None):
    """values, a real number or an array or sequence of them, as a float64
    ndarray of their shape (a float64 array as it is).  An array of a dtype
    not integer or float, or an element ``_number`` refuses, raises
    ``DomainError``; with sign, so does a point outside ``_real``'s rule."""
    import numpy as np  # here: ``import thetasum`` loads this module alone

    if isinstance(values, float):  # a float needs no look at its type
        values = np.asarray(values)
    elif not isinstance(values, np.ndarray):
        items = np.asarray(values, dtype=object)
        values = np.array([_number(v, name) for v in items.flat]).reshape(items.shape)
    elif values.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a real number, got a {values.dtype} array")
    out = values.astype(np.float64, copy=False)
    for x in (out.min(), out.max()) if sign and out.size else ():  # a NaN is both
        _real(float(x), name, sign)
    return out


def _scale(value, name: str, error: type = DomainError):
    """value as a positive ``Fraction``: a rational (a Fraction or an integer,
    numpy's too) as it is, any other real through ``_real`` and then exactly,
    so 0.5 is 1/2; a bool, a string, NaN, inf and a value <= 0 raise ``error``."""
    import numbers
    from fractions import Fraction  # here: ``import thetasum`` loads this module alone

    if isinstance(value, numbers.Rational) and not isinstance(value, bool) and value > 0:
        return Fraction(int(value.numerator), int(value.denominator))
    return Fraction(_real(value, name, error=error))  # refuses a rational <= 0 too


def _profile_values(fn, points, what: str, at: str):
    """fn at each of points (a numpy array), as doubles in its shape.  The
    first value that is not a finite real number (complex, NaN, infinite or
    none) raises ``DomainError`` "<what> is <value> at <at> = <point>": a
    complex value is refused, not cut to its real part.  One finiteness test
    runs over all values, and the per-value search only when it fails."""
    import numpy as np  # here: ``import thetasum`` loads this module alone

    xs = points.ravel().tolist()
    values = list(map(fn, xs))
    try:
        out = np.asarray(values)
    except ValueError:  # values of different shapes
        out = np.asarray(values, dtype=object)
    if out.shape != (len(xs),) or out.dtype.kind not in "biuf" or not np.isfinite(out).all():
        for v, x in zip(values, xs):
            try:
                if np.iscomplexobj(v) or not math.isfinite(v):
                    raise TypeError
            except (TypeError, ValueError):
                raise DomainError(f"{what} is {v} at {at} = {x!r}") from None
    return out.astype(np.float64, copy=False).reshape(points.shape)
