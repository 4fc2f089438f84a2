"""Arithmetic on q-series with exponents on a uniform grid.

A series is stored as coefficients N_0..N_L against exponents
A_l = (l + offset_A) / denom_V.  The offset is an int when it is a whole
number of grid steps and a plain float otherwise (a real power of theta2
shifts its exponents by a real amount); it never refines the grid.

All operations are pure; instances are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CoefficientOverflow,
    DomainError,
    NegativeExponent,
    OffsetMismatch,
    ZeroLeadingCoefficient,
)

Rational = Fraction

OffsetLike = Union[int, float]

# Offsets are compared against the integer grid at this absolute slack;
# float offsets come from f64 inputs, so 1e-9 separates "same grid point"
# from "genuinely incompatible" with a wide margin on both sides.
_OFFSET_TOL = 1e-9
# Largest denominator considered when deciding whether a float offset
# difference lies on some refined integer grid.
_OFFSET_DEN_CAP = 4096


def _as_offset(value: OffsetLike) -> int | float:
    """Normalize an offset to int (when whole) or float, a Fraction included."""
    if isinstance(value, int):
        return value
    v = float(value)
    if v.is_integer() and abs(v) < 2**53:
        return int(v)
    return v


class QSeries:
    """Truncated series sum_l N_l q^{(l + offset_A)/denom_V}, offset_A an int or float.

    ``exact=True`` marks a polynomial: coefficients beyond trunc_L are
    exactly zero, so the truncation order never clamps a partner series.
    """

    __slots__ = ("denom_V", "offset_A", "coeffs", "exact")

    def __init__(self, denom_V: int, offset_A: OffsetLike, coeffs, exact: bool = False):
        if not isinstance(denom_V, (int, np.integer)) or denom_V < 1:
            raise DomainError(f"denom_V must be a positive integer, got {denom_V!r}")
        V = int(denom_V)
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficient sequence must be nonempty and one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise CoefficientOverflow("non-finite coefficient")
        off = _as_offset(offset_A)

        if (isinstance(off, int) and off < 0) or (isinstance(off, float) and off < -_OFFSET_TOL):
            raise DomainError(f"offset_A must be nonnegative, got {off!r}")
        if isinstance(off, float) and off < 0:
            off = 0.0

        # shift leading zeros into the offset
        nz = np.flatnonzero(arr)
        if nz.size and nz[0] > 0:
            k = int(nz[0])
            arr = arr[k:]
            off = off + k
            nz = nz - k

        # compact a reducible grid: divide out the gcd of the denominator,
        # the nonzero indices and (for exact offsets) the offset itself
        g = int(np.gcd.reduce(nz, initial=V))
        if isinstance(off, int):
            g = math.gcd(g, off)
        if g > 1:
            arr = arr[::g]
            V //= g
            off = off // g if isinstance(off, int) else off / g

        arr = np.array(arr, dtype=np.float64)  # owned copy
        arr.setflags(write=False)
        object.__setattr__(self, "denom_V", V)
        object.__setattr__(self, "offset_A", off)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "exact", bool(exact))

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
        return (np.arange(self.coeffs.size) + float(self.offset_A)) / self.denom_V

    def coeff(self, l: int) -> float:
        if not 0 <= l <= self.trunc_L:
            if self.exact and l > self.trunc_L:
                return 0.0
            raise DomainError(f"index {l} beyond truncation order {self.trunc_L}")
        return float(self.coeffs[l])

    def offset_exponent(self) -> float:
        """Leading exponent A_0 = offset_A / denom_V."""
        return float(self.offset_A) / self.denom_V

    def reliable_exponent(self) -> float:
        """Largest exponent whose coefficient is known exactly."""
        if self.exact:
            return math.inf
        return (self.trunc_L + float(self.offset_A)) / self.denom_V

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.denom_V == other.denom_V
            and float(self.offset_A) == float(other.offset_A)
            and self.exact == other.exact
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:6])
        tail = ", ..." if self.coeffs.size > 6 else ""
        return (
            f"QSeries(V={self.denom_V}, A={self.offset_A}, L={self.trunc_L}, "
            f"N=[{head}{tail}]{', exact' if self.exact else ''})"
        )


def unit() -> QSeries:
    """The multiplicative identity 1*q^0 (an exact polynomial)."""
    return QSeries(1, 0, [1.0], exact=True)


# -- helpers -----------------------------------------------------------


def _common_grid(parts: Sequence[QSeries]) -> tuple[int, list[int]]:
    V = 1
    for s in parts:
        V = V * s.denom_V // math.gcd(V, s.denom_V)
    return V, [V // s.denom_V for s in parts]


def _aligned_offsets(offsets: Sequence[int | float], V: int) -> tuple[int, int | float, list[int]]:
    """Place offsets (already in units of 1/V) on one integer grid.

    Returns (refinement m, base offset in units of 1/(m*V), integer shifts).
    Raises OffsetMismatch when no refinement with denominator <= cap works.
    """
    base = min(offsets, key=float)
    diffs = [o - base for o in offsets]
    m = 1
    snapped: list[Fraction] = []
    for dd in diffs:
        if isinstance(dd, int):
            snapped.append(Fraction(dd))
            continue
        fr = Fraction(dd).limit_denominator(_OFFSET_DEN_CAP)
        if abs(float(fr) - dd) > _OFFSET_TOL:
            raise OffsetMismatch(
                f"offset difference {dd!r} is not on any integer grid refinement "
                f"(denominator cap {_OFFSET_DEN_CAP})"
            )
        snapped.append(fr)
        m = m * fr.denominator // math.gcd(m, fr.denominator)
    shifts = [int(fr * m) for fr in snapped]
    base_scaled = base * m if isinstance(base, int) else float(base) * m
    return m, base_scaled, shifts


def _fsum_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Exactly-rounded dot product of two equal-length arrays."""
    return math.fsum(x * y)


# -- operations --------------------------------------------------------


def lincomb(terms: Sequence[tuple[float, QSeries]]) -> QSeries:
    """Linear combination sum_i c_i * s_i on the least common grid.

    Offsets differing by an exact multiple of a (possibly refined) grid
    step are lifted into index shifts; incompatible offsets raise
    OffsetMismatch.  The truncation order of the result is the minimum
    reliable order across the inputs.
    """
    if len(terms) == 0:
        raise DomainError("lincomb of an empty term list")
    coeffs = [float(c) for c, _ in terms]
    parts = [s for _, s in terms]
    V0, k0 = _common_grid(parts)
    offs = [s.offset_A * k if isinstance(s.offset_A, int) else float(s.offset_A) * k
            for s, k in zip(parts, k0)]
    m, base, shifts = _aligned_offsets(offs, V0)
    V = V0 * m
    stretch = [k * m for k in k0]

    ends = [s.trunc_L * k + sh for s, k, sh in zip(parts, stretch, shifts)]
    reliable = [e for s, e in zip(parts, ends) if not s.exact]
    exact = not reliable
    L = max(ends) if exact else min(reliable)

    out = np.zeros(L + 1, dtype=np.float64)
    for c, s, k, sh in zip(coeffs, parts, stretch, shifts):
        idx = np.arange(s.coeffs.size) * k + sh
        keep = idx <= L
        out[idx[keep]] += c * s.coeffs[keep]
    return QSeries(V, base, out, exact=exact)


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product on the least common grid; offsets add.

    Truncated to the minimum reliable order of the factors.  Coefficient
    sums are exactly rounded (math.fsum).
    """
    V, (ka, kb) = _common_grid([a, b])
    off_a = a.offset_A * ka if isinstance(a.offset_A, int) else float(a.offset_A) * ka
    off_b = b.offset_A * kb if isinstance(b.offset_A, int) else float(b.offset_A) * kb
    off = off_a + off_b

    La, Lb = a.trunc_L * ka, b.trunc_L * kb
    if a.exact and b.exact:
        L, exact = La + Lb, True
    elif a.exact:
        L, exact = Lb, False
    elif b.exact:
        L, exact = La, False
    else:
        L, exact = min(La, Lb), False

    A = np.zeros(La + 1)
    A[::ka] = a.coeffs
    B = np.zeros(Lb + 1)
    B[::kb] = b.coeffs
    out = np.empty(L + 1, dtype=np.float64)
    for n in range(L + 1):
        lo = max(0, n - Lb)
        hi = min(n, La)
        if lo > hi:
            out[n] = 0.0
        else:
            out[n] = _fsum_dot(A[lo:hi + 1], B[n - hi:n - lo + 1][::-1])
    return QSeries(V, off, out, exact=exact)


def pow_real(a: QSeries, alpha: float) -> QSeries:
    """Real power a^alpha via the power-series recurrence

        n b_n a_0 = sum_{k=1..n} ((alpha+1) k - n) a_k b_{n-k},  b_0 = a_0^alpha.

    The exponent offset multiplies by alpha on the same grid; the product
    is an int when it is whole and a float otherwise.

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
    if alpha == 0.0:
        return unit()

    off = alpha * a.offset_A
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
    exact = a.exact and float(alpha).is_integer()
    return QSeries(a.denom_V, off, b, exact=exact)


def rescale(a: QSeries, s) -> QSeries:
    """Substitute q -> q^s for rational s > 0: every exponent multiplies by s."""
    s = Fraction(s)
    if s <= 0:
        raise DomainError(f"scale must be positive, got {s}")
    num, den = s.numerator, s.denominator
    V = a.denom_V * den
    out = np.zeros(a.trunc_L * num + 1, dtype=np.float64)
    out[::num] = a.coeffs
    off = a.offset_A * num if isinstance(a.offset_A, int) else float(a.offset_A) * num
    return QSeries(V, off, out, exact=a.exact)


class EvalResult(NamedTuple):
    value: float
    tail: float


def _growth_bound(coeffs: np.ndarray, degree: float | None) -> tuple[float, float]:
    """Conservative (C, n) with |N_l| <= C * max(l,1)^n over the stored range."""
    mags = np.abs(coeffs)
    l = np.maximum(np.arange(coeffs.size, dtype=np.float64), 1.0)
    if degree is not None:
        n = float(degree)
        return 2.0 * float(np.max(mags / l**n)) if mags.size else 0.0, n
    # smallest integer degree whose bound constant is set in the first half
    for n in range(0, 13):
        ratio = mags / l**n
        if ratio.size < 4 or np.argmax(ratio) <= coeffs.size // 2:
            return 2.0 * float(np.max(ratio)), float(n)
    return 2.0 * float(np.max(mags / l**12)), 12.0


def evaluate(a: QSeries, q: float, *, bound_degree: float | None = None) -> EvalResult:
    """Numeric value at 0 < q < 1, with a bound on the dropped tail.

    The tail estimate models |N_l| <= C max(l,1)^n beyond the truncation
    order (n from ``bound_degree`` when the caller knows the dimension,
    otherwise measured on the stored coefficients) and sums the resulting
    polynomial-times-geometric majorant in closed form.
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    exps = a.exponents()
    value = math.fsum(a.coeffs * np.power(q, exps))
    if a.exact or a.is_zero:
        return EvalResult(value, 0.0)
    C, n = _growth_bound(a.coeffs, bound_degree)
    x = q ** (1.0 / a.denom_V)
    L = a.trunc_L
    t_next = C * (L + 1) ** n * x ** (L + 1) * q ** (float(a.offset_A) / a.denom_V)
    r = x * ((L + 2) / (L + 1)) ** n
    tail = t_next / (1.0 - r) if r < 1.0 else math.inf
    return EvalResult(value, tail)
