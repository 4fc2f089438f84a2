"""The series container ``build`` returns, and the reference arithmetic.

A series is stored as coefficients N_0..N_L against exponents
A_l = (l + offset_A) / denom_V.  The offset is a plain float (a real power
of theta2 shifts its exponents by a real amount); it never refines the grid.
``build`` returns a ``QSeries`` and merges terms on one grid with ``lincomb``.
``mul``, ``pow_real``, ``rescale`` and ``evaluate`` are the reference route
the tests compare the product-form build against; nothing else calls them.

All operations are pure; instances are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    CoefficientOverflow,
    DomainError,
    NegativeExponent,
    OffsetMismatch,
    ZeroLeadingCoefficient,
)

# Offsets are compared against the integer grid at this absolute slack;
# float offsets come from f64 inputs, so 1e-9 separates "same grid point"
# from "genuinely incompatible" with a wide margin on both sides.
_OFFSET_TOL = 1e-9


class QSeries:
    """Truncated series sum_l N_l q^{(l + offset_A)/denom_V}, offset_A a float."""

    __slots__ = ("denom_V", "offset_A", "coeffs")

    def __init__(self, denom_V: int, offset_A: float, coeffs):
        if not isinstance(denom_V, (int, np.integer)) or denom_V < 1:
            raise DomainError(f"denom_V must be a positive integer, got {denom_V!r}")
        V = int(denom_V)
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficient sequence must be nonempty and one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise CoefficientOverflow("non-finite coefficient")
        off = float(offset_A)
        if off < -_OFFSET_TOL:
            raise DomainError(f"offset_A must be nonnegative, got {off!r}")
        off = max(off, 0.0)

        # shift leading zeros into the offset
        nz = np.flatnonzero(arr)
        if nz.size and nz[0] > 0:
            k = int(nz[0])
            arr = arr[k:]
            off += k
            nz = nz - k

        # compact a reducible grid: divide out the gcd of the denominator,
        # the nonzero indices and (for a whole offset) the offset itself
        g = int(np.gcd.reduce(nz, initial=V))
        if off.is_integer():
            g = math.gcd(g, int(off))
        if g > 1:
            arr = arr[::g]
            V //= g
            off /= g

        arr = np.array(arr, dtype=np.float64)  # owned copy
        arr.setflags(write=False)
        object.__setattr__(self, "denom_V", V)
        object.__setattr__(self, "offset_A", off)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- basic views ---------------------------------------------------

    @property
    def trunc_L(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def exponents(self) -> np.ndarray:
        """A_l for every stored index, as floats."""
        return (np.arange(self.coeffs.size) + self.offset_A) / self.denom_V

    def coeff(self, l: int) -> float:
        if not 0 <= l <= self.trunc_L:
            raise DomainError(f"index {l} beyond truncation order {self.trunc_L}")
        return float(self.coeffs[l])

    def offset_exponent(self) -> float:
        """Leading exponent A_0 = offset_A / denom_V."""
        return self.offset_A / self.denom_V

    def reliable_exponent(self) -> float:
        """Largest exponent whose coefficient is known exactly."""
        return (self.trunc_L + self.offset_A) / self.denom_V

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.denom_V == other.denom_V
            and self.offset_A == other.offset_A
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:6])
        tail = ", ..." if self.coeffs.size > 6 else ""
        return (
            f"QSeries(V={self.denom_V}, A={self.offset_A}, L={self.trunc_L}, "
            f"N=[{head}{tail}])"
        )


# -- helpers -----------------------------------------------------------


def _common_grid(parts: Sequence[QSeries]) -> tuple[int, list[int]]:
    V = 1
    for s in parts:
        V = V * s.denom_V // math.gcd(V, s.denom_V)
    return V, [V // s.denom_V for s in parts]


# -- operations --------------------------------------------------------


def lincomb(terms: Sequence[tuple[float, QSeries]]) -> QSeries:
    """Linear combination sum_i c_i * s_i on the least common grid.

    Offsets differing by whole steps of that grid are lifted into index
    shifts; any other offsets raise OffsetMismatch.  The truncation order
    of the result is the minimum reliable order across the inputs.
    """
    if len(terms) == 0:
        raise DomainError("lincomb of an empty term list")
    parts = [s for _, s in terms]
    V, stretch = _common_grid(parts)
    offsets = [s.offset_A * k for s, k in zip(parts, stretch)]
    base = min(offsets)
    shifts = [round(o - base) for o in offsets]
    for o, sh in zip(offsets, shifts):
        if abs(o - base - sh) > _OFFSET_TOL:
            raise OffsetMismatch(f"offset difference {o - base!r} is not on the common grid")
    L = min(s.trunc_L * k + sh for s, k, sh in zip(parts, stretch, shifts))

    out = np.zeros(L + 1, dtype=np.float64)
    for (c, s), k, sh in zip(terms, stretch, shifts):
        idx = np.arange(s.coeffs.size) * k + sh
        keep = idx <= L
        out[idx[keep]] += float(c) * s.coeffs[keep]
    return QSeries(V, base, out)


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product on the least common grid; offsets add.

    Truncated to the minimum reliable order of the factors.  Coefficient
    sums are exactly rounded (math.fsum).
    """
    V, (ka, kb) = _common_grid([a, b])
    La, Lb = a.trunc_L * ka, b.trunc_L * kb
    L = min(La, Lb)
    A = np.zeros(La + 1)
    A[::ka] = a.coeffs
    B = np.zeros(Lb + 1)
    B[::kb] = b.coeffs
    out = np.empty(L + 1, dtype=np.float64)
    for n in range(L + 1):
        out[n] = math.fsum(A[:n + 1] * B[n::-1])
    return QSeries(V, a.offset_A * ka + b.offset_A * kb, out)


def pow_real(a: QSeries, alpha: float) -> QSeries:
    """Real power a^alpha via the power-series recurrence

        n b_n a_0 = sum_{k=1..n} ((alpha+1) k - n) a_k b_{n-k},  b_0 = a_0^alpha.

    The exponent offset multiplies by alpha on the same grid; alpha = 0
    gives 1, 0, 0, ... .

    The recurrence amplifies rounding on sparse inputs such as theta
    series.  For non-integer powers of a theta series at L = 1024, measured
    against mpmath, the relative error passes 1e-12 by l ~ 27-69 and passes
    1 by l ~ 220-265, while reliable_exponent still claims the whole range.
    ``theta.build`` does not use it: it builds from the product form.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if alpha < 0:
        raise NegativeExponent(f"negative exponent {alpha}")
    if a.is_zero or a.coeffs[0] == 0.0:
        raise ZeroLeadingCoefficient("pow_real requires a nonzero leading coefficient")

    c = a.coeffs
    L = a.trunc_L
    b = np.zeros(L + 1, dtype=np.float64)
    a0 = float(c[0])
    b[0] = a0 ** alpha
    for n in range(1, L + 1):
        k = np.arange(1, n + 1, dtype=np.float64)
        # terms ((alpha+1) k - n) a_k b_{n-k}, k = 1..n
        w = ((alpha + 1.0) * k - n) * c[1:n + 1]
        b[n] = math.fsum(w * b[n - 1::-1]) / (n * a0)
    return QSeries(a.denom_V, alpha * a.offset_A, b)


def rescale(a: QSeries, s) -> QSeries:
    """Substitute q -> q^s for rational s > 0: every exponent multiplies by s."""
    s = Fraction(s)
    if s <= 0:
        raise DomainError(f"scale must be positive, got {s}")
    num, den = s.numerator, s.denominator
    out = np.zeros(a.trunc_L * num + 1, dtype=np.float64)
    out[::num] = a.coeffs
    return QSeries(a.denom_V * den, a.offset_A * num, out)


class EvalResult(NamedTuple):
    value: float
    tail: float


def _growth_bound(coeffs: np.ndarray) -> tuple[float, float]:
    """Conservative (C, n) with |N_l| <= C * max(l,1)^n over the stored range."""
    mags = np.abs(coeffs)
    l = np.maximum(np.arange(coeffs.size, dtype=np.float64), 1.0)
    # smallest integer degree whose bound constant is set in the first half
    for n in range(0, 13):
        ratio = mags / l**n
        if ratio.size < 4 or np.argmax(ratio) <= coeffs.size // 2:
            return 2.0 * float(np.max(ratio)), float(n)
    return 2.0 * float(np.max(mags / l**12)), 12.0


def evaluate(a: QSeries, q: float) -> EvalResult:
    """Numeric value at 0 < q < 1, with a bound on the dropped tail.

    The tail estimate models |N_l| <= C max(l,1)^n beyond the truncation
    order (n measured on the stored coefficients) and sums the resulting
    polynomial-times-geometric majorant in closed form.
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    value = math.fsum(a.coeffs * np.power(q, a.exponents()))
    if a.is_zero:
        return EvalResult(value, 0.0)
    C, n = _growth_bound(a.coeffs)
    x = q ** (1.0 / a.denom_V)
    L = a.trunc_L
    t_next = C * (L + 1) ** n * x ** (L + 1) * q ** a.offset_exponent()
    r = x * ((L + 2) / (L + 1)) ** n
    tail = t_next / (1.0 - r) if r < 1.0 else math.inf
    return EvalResult(value, tail)
