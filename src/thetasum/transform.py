"""Radial Fourier transform with the dimension as a continuous parameter.

For a radial profile f the transform used throughout is

    ft(p) = (2 pi^{d/2} / Gamma(d/2)) * int_0^inf f(r) 0F1(d/2; -pi^2 p^2 r^2) r^{d-1} dr,

which reduces to the classical d-dimensional Fourier transform of the
radial function at integer d.  Gaussian-polynomial profiles transform in
closed form (``ft_closed``/``ft_gausspoly``).  Sampled profiles go through
``ft_quadrature_many``, one shared quadrature grid for many radii at once;
``ft_quadrature`` is the independent adaptive route that cross-checks both.
The shared grid runs on numpy and ``math`` alone: its Gauss-Jacobi nodes
by Golub and Welsch (``_gauss_jacobi``), its radius and tail bound by the
incomplete gamma function and its inverse (``_log_gammaincc``,
``_gammainccinv``), and its kernel 0F1(d/2; -x^2) from the Hankel
expansion above a start (``_hankel_panels`` on the grid's panels,
``_hankel`` elsewhere) and from the power series and Miller's backward
recurrence below it (``_near_kernel``), one route at every d.
``ft_quadrature`` and ``hyp0f1`` stay on scipy (``integrate.quad`` and
``special.jv``), which keeps the cross-check independent of the shared
grid.

scipy is imported inside those two functions only, so no other path loads
it: ``scipy.special`` by the Bessel branch of ``hyp0f1``,
``scipy.integrate`` by ``ft_quadrature``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, ToleranceNotMet

# Plain power series of 0F1 keeps ~1e-13 absolute accuracy up to |z| = 25
# (largest term grows like e^{2 sqrt|z|}); beyond that the Bessel relation
# is used.  Measured, not tunable.
_SERIES_SWITCH = 25.0

# Gauss rule orders of the shared grid in ``ft_quadrature_many``.  On panels
# one kernel period wide the lower rule already sits near the rounding
# floor, so the difference of the two bounds the higher one's error.
_RULE_ORDERS = (10, 14)

# Most kernel entries (radii x nodes) ``ft_quadrature_many`` takes at once,
# and most entries of one call of ``_kernel``.  On the Sampled cases of the
# verify benchmark (2-core Xeon) 2^15 ran faster than 2^13, 2^14, 2^16 and
# 2^17, in paired runs of the four case classes.
_KERNEL_CHUNK = 2**15

# ``_kernel`` takes J_{a-1}(2x) from its Hankel expansion, ``_HANKEL_TERMS``
# terms in all (P and Q together) up to |a - 1| = 18.5, from 2x =
# ``_hankel_start(a - 1)`` up, and from ``_near_kernel`` below.  That start
# is never below ``_HANKEL_SWITCH``: at half-integer order the expansion
# ends, so its error bound alone would start it at 0, but at large such
# order its terms cancel below 22 (1.2e-13 of the kernel envelope for 2x in
# [16, 22] at d = 37, against 8e-15 just above), so a lower switch would
# leave those points outside the kernel's 1.1e-14 bar.  Above it the start
# rises with the order until 18 terms meet 2^-53 (2x = 22.8 at d = 2.5, 23.2
# at d = 2, 23.9 at d = 8, 34.7 at d = 24).  Measured, not tunable: 18
# terms keep the start within 1.3 of 22 over the d of the benchmarks (1 to
# 4.2).  Past d = 39 the expansion takes more terms, and no term may exceed
# ``_HANKEL_LARGEST`` at the start: with 256 (the largest term at 2x = 22,
# d = 39) the kernel erred by up to 5e-14 of the envelope just above the
# start at d = 64, with 16 by 9e-15.  Past the start, from each 2x of
# ``_HANKEL_TIERS`` on, fewer terms meet 2^-53 (``_hankel_tiers``).
_HANKEL_SWITCH = 22.0
_HANKEL_TERMS = 18
_HANKEL_LARGEST = 16.0
_HANKEL_TIERS = (50.0, 200.0)

# Least subinterval limit of the adaptive quadrature in ``ft_quadrature``.
_MAX_PANELS = 400

# Both quadrature transforms raise ToleranceNotMet past max(_ABS_TOL, _REL_TOL |value|).
_REL_TOL = 1e-10
_ABS_TOL = 1e-12

# Relative margin ``_choose_r_max`` keeps below the tail budget: the inverse
# incomplete gamma function rounds.  ``_gammainccinv`` has read Q within
# 1.8e-13 of its target, relative (400 random a in [0.5, 200] and targets
# down to e^-700, against mpmath); scipy's gammainccinv read 1 + 4.4e-15.
_TAIL_MARGIN = 1e-6


# -- radial profiles -----------------------------------------------------


@dataclass(frozen=True)
class GaussPoly:
    """Sum of Gaussian-polynomial terms c * r^{2k} * exp(-alpha r^2)."""

    terms: tuple[tuple[float, int, float], ...]

    def __post_init__(self):
        norm = []
        for c, k, alpha in self.terms:
            c = float(c)
            alpha = float(alpha)
            if not (math.isfinite(c) and math.isfinite(alpha)):
                raise DomainError("non-finite GaussPoly term")
            if alpha <= 0:
                raise DomainError(f"Gaussian rate must be positive, got {alpha!r}")
            kk = int(k)
            if kk != k or kk < 0:
                raise DomainError(f"polynomial degree must be an integer >= 0, got {k!r}")
            norm.append((c, kk, alpha))
        if not norm:
            raise DomainError("GaussPoly without terms")
        object.__setattr__(self, "terms", tuple(norm))

    def eval(self, r):
        """Sum of the terms at r.  Where c r^{2k} is past the doubles (r^2
        itself from r ~ 1.3e154), a term is c exp(k log r^2 - alpha r^2),
        which is 0 there unless alpha is tiny."""
        r = np.asarray(r, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r2 = np.square(r)
            out = np.zeros_like(r2)
            for c, k, alpha in self.terms:
                out += c * r2**k * np.exp(-alpha * r2)
            if not math.isfinite(out.sum()):  # some c r^{2k} overflowed: those in logs
                out = np.zeros_like(r2)
                for c, k, alpha in self.terms:
                    front = c * r2**k
                    logs = c * np.exp(k * (2.0 * np.log(np.abs(r))) - alpha * r2)
                    out += np.where(np.isfinite(front), front * np.exp(-alpha * r2), logs)
        return out if out.ndim else float(out)

    def __call__(self, r):
        return self.eval(r)


@dataclass(frozen=True)
class Sampled:
    """Radial profile given only through an evaluator.

    decay_hint = (scale, rate) asserts |f(r)| <= scale * exp(-rate r^2);
    it drives window selection and tail bounds, so it is mandatory.  fn
    must be callable and the hint a pair of finite positive numbers, or
    ``DomainError`` is raised.
    """

    fn: Callable[[float], float]
    decay_hint: tuple[float, float]

    def __post_init__(self):
        if not callable(self.fn):
            raise DomainError(f"Sampled needs a callable profile, got {self.fn!r}")
        hint = self.decay_hint
        try:
            if isinstance(hint, (str, bytes)):
                raise TypeError
            scale, rate = (float(v) for v in hint)
        except (TypeError, ValueError):
            raise DomainError(f"decay_hint must be a pair (scale, rate) of numbers, got {hint!r}") from None
        if not (math.isfinite(scale) and scale > 0 and math.isfinite(rate) and rate > 0):
            raise DomainError(f"decay_hint must be positive (scale, rate), got {hint!r}")
        object.__setattr__(self, "decay_hint", (scale, rate))

    def eval(self, r):
        """fn at each r, as doubles.  A value that is not a real number
        (complex, or no number at all) raises ``DomainError`` naming r."""
        arr = np.asarray(r, dtype=np.float64)
        radii = arr.ravel().tolist()
        values = list(map(self.fn, radii))
        try:
            out = np.asarray(values)
        except ValueError:  # values of different shapes
            out = np.asarray(values, dtype=object)
        if out.shape != (len(radii),) or out.dtype.kind not in "biuf":
            out = np.array([_real(v, x) for v, x in zip(values, radii)])
        out = out.astype(np.float64, copy=False)
        return out.reshape(arr.shape) if arr.ndim else float(out[0])

    def __call__(self, r):
        return self.eval(r)


RadialFunction = Union[GaussPoly, Sampled]


def _real(value, r: float) -> float:
    """A profile value as a float, or ``DomainError`` naming r where it is
    not a real number: complex values are refused, not cut to their real
    part."""
    if not np.iscomplexobj(value):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"radial profile is {value!r} at r = {r!r}, not a real number")


def _check_dim(d: float, experimental_dim: bool = False) -> float:
    d = float(d)
    if d >= 1.0:
        return d
    if experimental_dim and d > 0.0:
        return d
    raise DomainError(
        f"dimension parameter must be >= 1 (got {d!r}); "
        "0 < d < 1 requires experimental_dim=True"
    )


# -- scalar special functions --------------------------------------------


def hyp0f1(a: float, z: float) -> float:
    """Confluent limit function 0F1(a; z) for a > 0, real z.

    Power series (exactly-rounded summation) for |z| <= 25; outside that
    the Bessel relations 0F1(a;-x) = Gamma(a) x^{-(a-1)/2} J_{a-1}(2 sqrt x)
    and its modified-Bessel mirror for z > 0.
    """
    a = float(a)
    z = float(z)
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"hyp0f1 requires a > 0, got {a!r}")
    if not math.isfinite(z):
        raise DomainError(f"hyp0f1 requires finite z, got {z!r}")
    if abs(z) <= _SERIES_SWITCH:
        t = 1.0
        terms = [t]
        k = 0
        while abs(t) > 1e-25 and k < 200:
            t = t * z / ((a + k) * (k + 1))
            terms.append(t)
            k += 1
        return math.fsum(terms)
    from scipy import special

    x = abs(z)
    y = 2.0 * math.sqrt(x)
    log_front = math.lgamma(a) - 0.5 * (a - 1.0) * math.log(x)
    if z < 0:
        return math.exp(log_front) * float(special.jv(a - 1.0, y))
    return math.exp(log_front + y) * float(special.ive(a - 1.0, y))


# -- closed-form transform ------------------------------------------------


def ft_gausspoly(f: GaussPoly, d: float, experimental_dim: bool = False) -> GaussPoly:
    """Exact transform of a Gaussian-polynomial profile, again a GaussPoly.

    Each r^{2k} e^{-alpha r^2} maps to (-d/dalpha)^k of (pi/alpha)^{d/2}
    e^{-pi^2 p^2/alpha}, that is k! alpha^-k (pi/alpha)^{d/2} e^{-x}
    L_k^{(d/2-1)}(x) with x = pi^2 p^2/alpha.  The derivative is tracked as
    a polynomial in u = 1/alpha and beta = pi^2 p^2: after m derivatives
    every monomial is u^{m+j} beta^j, and one more maps its coefficient
    q_j to (d/2 + m + j) q_j - q_{j-1}.  After k derivatives q_j =
    (-1)^j C(k, j) Gamma(k + d/2) / Gamma(j + d/2), the Laguerre
    coefficients (DLMF §18.5), so only the final substitution rounds.
    experimental_dim admits 0 < d < 1, with no accuracy contract.  A
    transformed coefficient that is not a finite double raises
    ``DomainError``.
    """
    d = _check_dim(d, experimental_dim)
    s = 0.5 * d
    out: dict[tuple[int, float], float] = {}
    for c, k, alpha in f.terms:
        q = [1.0]
        for m in range(k):
            q = [(s + (m + j)) * here - below
                 for j, (here, below) in enumerate(zip(q + [0.0], [0.0] + q))]
        u = 1.0 / alpha
        try:
            try:
                front = c * math.pi**s * u**s
            except OverflowError:  # a power overflows (large d): their product in logs
                front = c * math.exp(s * math.log(math.pi * u))
            new_alpha = math.pi**2 * u
            for j, v in enumerate(q):
                key = (j, new_alpha)
                out[key] = out.get(key, 0.0) + front * (v * u ** (k + j)) * math.pi ** (2 * j)
        except OverflowError:
            raise DomainError(f"transform of the term {(c, k, alpha)!r} overflows at d = {d!r}") from None
    terms = tuple((v, k, alpha) for (k, alpha), v in sorted(out.items()))
    return GaussPoly(terms=terms)  # a coefficient that is inf or nan raises DomainError


def ft_closed(f: GaussPoly, p: float, d: float) -> float:
    """Closed-form transform value at radius p >= 0."""
    p = float(p)
    if p < 0:
        raise DomainError(f"p must be nonnegative, got {p!r}")
    return ft_gausspoly(f, d).eval(p)


def laplacian_d(f: GaussPoly, d: float, n: int = 1) -> GaussPoly:
    """n applications of the radial Laplacian f'' + (d-1) f'/r.

    Exact on the coefficient level:
    r^{2k} e^{-a r^2} -> 2k(2k-2+d) r^{2k-2} - 2a(4k+d) r^{2k} + 4a^2 r^{2k+2},
    all times e^{-a r^2}.
    """
    d = float(d)
    n = int(n)
    if n < 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    terms = f.terms
    for _ in range(n):
        acc: dict[tuple[int, float], float] = {}

        def add(c, k, a):
            key = (k, a)
            acc[key] = acc.get(key, 0.0) + c

        for c, k, a in terms:
            if k >= 1:
                add(c * 2 * k * (2 * k - 2 + d), k - 1, a)
            add(-c * 2 * a * (4 * k + d), k, a)
            add(c * 4 * a * a, k + 1, a)
        terms = tuple((v, k, a) for (k, a), v in sorted(acc.items()))
    return GaussPoly(terms=terms)


def eigen_residual(f: GaussPoly, p: float, d: float, n: int = 1) -> float:
    """|ft(laplacian^n f)(p) - (-4 pi^2 p^2)^n ft(f)(p)|, zero in exact arithmetic."""
    lhs = ft_closed(laplacian_d(f, d, n), p, d)
    rhs = (-4.0 * math.pi**2 * p * p) ** n * ft_closed(f, p, d)
    return abs(lhs - rhs)


# -- quadrature transform -------------------------------------------------


class FTResult(NamedTuple):
    value: float
    error: float


def _tail_envelope(f: RadialFunction) -> list[tuple[float, int, float]]:
    """(|c|, k, alpha) majorant terms for |f|."""
    if isinstance(f, GaussPoly):
        return [(abs(c), k, alpha) for c, k, alpha in f.terms]
    scale, rate = f.decay_hint
    return [(scale, 0, rate)]


def _radial_tail(f: RadialFunction, R: float, d: float) -> float:
    """Upper bound on int_R^inf |f(r)| r^{d-1} dr via incomplete gamma:
    (c/2) Gamma(a) Q(a, alpha R^2) / alpha^a per envelope term, in logs."""
    total = 0.0
    for c, k, alpha in _tail_envelope(f):
        if c > 0.0:
            a = k + 0.5 * d
            lg = math.lgamma(a)
            total += math.exp(math.log(0.5 * c) + lg - a * math.log(alpha)
                              + _log_gammaincc(a, alpha * R * R, lg))
    return total


def _choose_r_max(f: RadialFunction, d: float, budget: float) -> float:
    """A radius R with ``_radial_tail(f, R, d) < budget``, in closed form.

    Each envelope term gets an even share of the budget, less a relative
    margin of ``_TAIL_MARGIN`` for the rounding of the inverse, and its
    incomplete-gamma tail is inverted for R with ``_gammainccinv``.  R is
    the largest of these radii (the least one for a single term), or one
    decay length if every term's whole integral already fits its share.
    """
    envelope = _tail_envelope(f)
    if not budget > 0.0:
        raise ToleranceNotMet(f"could not bound the radial tail below {budget!r}")
    log_share = math.log((1.0 - _TAIL_MARGIN) * budget / len(envelope))
    R = 0.0
    for c, k, alpha in envelope:
        if c > 0.0:
            a = k + 0.5 * d
            log_whole = math.log(0.5 * c) + math.lgamma(a) - a * math.log(alpha)
            if log_whole > log_share:
                R = max(R, math.sqrt(_gammainccinv(a, log_share - log_whole) / alpha))
    if not math.isfinite(R):
        raise ToleranceNotMet(f"could not bound the radial tail below {budget!r}")
    return R if R > 0.0 else 1.0 / math.sqrt(min(alpha for _, _, alpha in envelope))


def _log_gammaincc(a: float, x: float, lgamma_a: float) -> float:
    """log Q(a, x), Q = Gamma(a, x)/Gamma(a), for a > 0 and x >= 0, given
    lgamma_a = log Gamma(a).

    Below x = a + 1, Q = 1 - P with P = x^a e^-x / Gamma(a + 1) sum_k x^k /
    (a + 1)_k, whose terms shrink from the first (DLMF 8.7.1).  From there
    on, Q = x^a e^-x / Gamma(a) / (x + 1 - a - 1(1 - a)/(x + 3 - a - 2(2 -
    a)/(x + 5 - a - ...))) (DLMF 8.9.2), by the modified Lentz method to a
    relative step of 2^-53: 7 steps at the x of a tail budget of 1e-13 and
    a = 1.25.  Both carry the rounding of log(x^a e^-x / Gamma(a)), about
    2^-53 of a |log x| + x + 1; near x = a + 1 at a < 1, where 1 - P
    cancels and the fraction converges slowly, up to 50 times that
    (1.2e-14 in log Q at a = 1/2).
    """
    if x <= 0.0:
        return 0.0
    front = a * math.log(x) - x - lgamma_a  # log(x^a e^-x / Gamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 2.0**-54:
            k += 1.0
            term *= x / k
            total += term
        return math.log1p(-math.exp(front) * total)
    tiny = 2.0**-1000
    b = x + 1.0 - a
    c = 1.0 / tiny
    q = h = 1.0 / b
    k = 0
    while True:
        k += 1
        an = k * (a - k)
        b += 2.0
        q = an * q + b
        q = 1.0 / (q or tiny)
        c = b + an / c
        step = (c or tiny) * q
        h *= step
        if abs(step - 1.0) <= 2.0**-53:
            return front + math.log(h)


def _gammainccinv(a: float, log_q: float) -> float:
    """x with log Q(a, x) = log_q, for a > 0 and log_q < 0.

    Halley's method on g(x) = log Q(a, x) - log_q, with g' = -h and g'' =
    -h ((a - 1)/x - 1 + h), h = x^{a-1} e^-x / (Gamma(a) Q), kept inside
    the bracket the signs of g have shown (bisection where a step leaves
    it).  The first guess: for a small tail, x = L + (a - 1) log x +
    log(1 + (a - 1)/x + (a - 1)(a - 2)/x^2), L = -log_q - log Gamma(a),
    iterated from x = L (DLMF 8.11.2), within 1e-5 of the root at the
    tail budgets of ``ft_quadrature_many``, so that one step of cubic
    convergence ends it; for Q near 1, x = (P Gamma(a + 1))^{1/a} with P =
    1 - Q (DLMF 8.7.1); else x = a.  It stops when a step is below 2^-16
    of x: the next error is about the cube of that.
    """
    lg = math.lgamma(a)
    L = -log_q - lg
    if L > a + 2.0:
        x = L
        for _ in range(3):
            x = L + (a - 1.0) * math.log(x) + math.log1p((a - 1.0) / x * (1.0 + (a - 2.0) / x))
    elif log_q > -0.1:
        x = math.exp((math.log(-math.expm1(log_q)) + math.lgamma(a + 1.0)) / a)
    else:
        x = a
    lo, hi = 0.0, math.inf
    while True:
        log_Q = _log_gammaincc(a, x, lg)
        g = log_Q - log_q
        if g > 0.0:
            lo = x
        elif g < 0.0:
            hi = x
        else:
            return x
        h = math.exp((a - 1.0) * math.log(x) - x - lg - log_Q)
        newton = g / h  # -g/g'
        step = newton / (1.0 + 0.5 * newton * ((a - 1.0) / x - 1.0 + h))
        if abs(step) <= 2.0**-16 * x:
            return x + step
        x = x + step if lo < x + step < hi else (0.5 * (lo + hi) if hi < math.inf else 2.0 * x + 1.0)


def _prefactor(d: float) -> tuple[float, float]:
    """2 pi^{d/2} / Gamma(d/2), the constant of the transform, and a bound
    on its relative rounding.

    Up to d = 342 directly, rounded by a few ulps (bound 0).  From there
    Gamma(d/2) is past the doubles, and the constant comes from its log,
    rounded by about 2^-53 of the log's terms: 2e-13 at d = 344.  Past
    d = 430 it is below the doubles, and ``DomainError`` is raised.
    """
    a = 0.5 * d
    if a < 171.0:
        return 2.0 * math.pi**a / math.gamma(a), 0.0
    log_c = math.log(2.0) + a * math.log(math.pi) - math.lgamma(a)
    if not log_c > math.log(2.0**-1022):
        raise DomainError(f"the transform's constant 2 pi^(d/2)/Gamma(d/2) is below the doubles at d = {d!r}")
    return math.exp(log_c), 2.0**-52 * (a * math.log(math.pi) + math.lgamma(a))


def _measure(c: float, R: float, d: float) -> tuple[float, float, float]:
    """(factor, base, rounding) with c r^{d-1} = factor (r/base)^{d-1} on
    [0, R], and a bound on the relative rounding this adds.

    Where c R^{d-1} is a double, base is 1 and factor c: the measure is
    taken directly, with no added rounding.  Else (r^{d-1} past the
    doubles, from d = 172 or so) base is R and factor c R^{d-1}, from its
    log, which adds about 2^-53 of the log's terms, and (r/R)^{d-1} adds d
    ulps.
    """
    try:
        top = c * R ** (d - 1.0)
    except OverflowError:
        top = math.inf
    if 2.0**-1000 < top < math.inf:
        return c, 1.0, 0.0
    log_top = math.log(c) + (d - 1.0) * math.log(R)
    return math.exp(log_top), R, 2.0**-52 * (abs(math.log(c)) + abs((d - 1.0) * math.log(R)) + d)


def ft_quadrature(f: RadialFunction, p: float, d: float) -> FTResult:
    """Numerical transform value with an error estimate.

    Adaptive Gauss-Kronrod panels on [0, R] with breakpoints at the kernel
    oscillation scale ~1/(2p); R is chosen so the neglected tail stays
    below a tenth of the absolute tolerance and enters the error estimate.
    """
    from scipy import integrate

    p = float(p)
    if p < 0:
        raise DomainError(f"p must be nonnegative, got {p!r}")
    d = _check_dim(d)
    a = 0.5 * d
    prefactor, rounding = _prefactor(d)
    R = _choose_r_max(f, d, 0.1 * _ABS_TOL / prefactor)
    tail = prefactor * _radial_tail(f, R, d)
    factor, base, measure_rounding = _measure(prefactor, R, d)
    rounding += measure_rounding

    fv = f.eval

    def integrand(r: float) -> float:
        return fv(r) * hyp0f1(a, -(math.pi * p * r) ** 2) * (factor * (r / base) ** (d - 1.0))

    # two refinement regimes: up to ~16 kernel oscillation periods plain
    # adaptive subdivision is both reliable and has the tightest rounding
    # floor; past that, unseeded panels can alias the oscillation, so
    # breakpoints pin the initial grid to ~2 periods per panel (the
    # pre-segmented path carries a noisier floor, which only matters for
    # values already below the absolute tolerance)
    points = None
    if p > 0 and R * p > 16.0:
        step = max(2.0 / p, R / 64.0)
        n_pts = int(R / step)
        if n_pts > 0:
            points = np.arange(1, n_pts + 1) * step
            points = points[points < R]
    limit = max(_MAX_PANELS, (len(points) if points is not None else 0) + 10)
    res = integrate.quad(
        integrand, 0.0, R,
        epsabs=0.5 * _ABS_TOL,
        epsrel=0.25 * _REL_TOL,
        limit=limit,
        points=points,
        full_output=1,
    )
    value = res[0]
    err = res[1] + tail + rounding * abs(value)
    if len(res) > 3:
        # roundoff detection near the cancellation floor: the value sits at
        # the noise level, relative accuracy is unattainable there, and only
        # the absolute estimate means anything
        if err > _ABS_TOL:
            raise ToleranceNotMet(f"quadrature did not converge: {res[3].strip()}")
    elif err > max(_ABS_TOL, _REL_TOL * abs(value)):
        raise ToleranceNotMet(
            f"achieved error {err:.3e} above requested tolerance "
            f"(abs {_ABS_TOL:.1e}, rel {_REL_TOL:.1e})"
        )
    return FTResult(value, err)


def _kernel(a: float, x: np.ndarray) -> np.ndarray:
    """0F1(a; -x^2) on an array of x >= 0, on numpy alone at every order.

    Gamma(a) x^{1-a} J_{a-1}(2x), the Bessel relation ``hyp0f1`` uses past
    its series range.  Where 2x >= ``_hankel_start(a - 1)`` it comes from
    the Hankel expansion (``_hankel``); below that start from
    ``_near_kernel``, the power series and Miller's recurrence.
    ``ft_quadrature_many`` takes the kernel from here on the panels that
    reach below the start, and on the others from ``_hankel_panels``.
    """
    tier = _hankel_tiers(a - 1.0)[0]
    out = np.empty_like(x)
    far = x >= 0.5 * tier.start
    out[far] = _hankel(a, x[far], tier)
    near = ~far
    out[near] = _near_kernel(a, x[near])
    return out


def _near_kernel(a: float, x: np.ndarray) -> np.ndarray:
    """0F1(a; -x^2) on an array of x >= 0, for ``_kernel`` below the Hankel start.

    Up to x = 1, the power series sum_k (-x^2)^k / ((a)_k k!) by Horner's
    rule in x^2, to the first coefficient below 2^-53: past k = 0 its terms
    alternate and shrink.  Above x = 1, Miller's backward recurrence (DLMF
    3.6(iii), 10.74(iii)) in z = 2x, with nu = a - 1 = mu + n, n = floor(nu):
    from f_{N+1} = 0 and f_N the least normal double, f_{k-1} = (2(mu + k)/z)
    f_k - f_{k+1} down to k = 0 gives f_k proportional to J_{mu+k}(z), and
    S = sum_m (mu + 2m) Gamma(mu + m)/m! f_{2m} is (z/2)^mu in the same
    measure (DLMF 10.23).  So the kernel Gamma(a) x^{-nu} J_nu(2x) is
    Gamma(a) x^{-n} f_n / S, with no fractional power; n = -1 takes one
    more step down.  N is the least even index above n and the largest z
    at which (z/2)^m / Gamma(m + 1), m = mu + N - max(n, 0), is below
    2^-53: by DLMF 10.14.4 that bounds J_{mu+N}(z), and counted from n it
    also bounds the relative error f_n takes from the start where J_n(z)
    is small (z below the order).  From f_N to f_0 the values grow by at
    most Gamma(mu + N + 1) for z >= 2, so from the least normal double they
    stay finite while that is below 2^1900: N is 56-58 for d in [1, 4.2],
    190 at d = 39.  The start of the expansion grows with the order past
    d = 39 (``_hankel_tiers``), and N with it; past 2^1900 every 16 steps
    the entries above 2^600 are scaled by 2^-600, with f_{k+1}, S and f_n.
    From n = 100 on (d = 202), f_n/S (about J_n(z)), Gamma(a) and x^{-n}
    can each pass the doubles, so their product is taken in logs, to
    about 2^-53 of log Gamma(a) + n log x relative.
    """
    nu = a - 1.0
    n = math.floor(nu)
    mu = nu - n
    out = np.empty_like(x)
    low = x <= 1.0
    series = [1.0]
    while abs(series[-1]) > 2.0**-53:
        k = len(series) - 1
        series.append(-series[-1] / ((a + k) * (k + 1)))
    out[low] = _horner(series, np.square(x[low]))
    xs = x[~low]
    if xs.size == 0:
        return out
    z = 2.0 * xs
    top = float(z.max())
    N = 2 * math.floor(0.5 * max(top, n)) + 2
    while ((m := mu + N - max(n, 0)) * math.log(0.5 * top) - math.lgamma(m + 1.0)
           > -53 * math.log(2.0)):
        N += 2
    rescale = math.lgamma(mu + N + 1.0) > 1900.0 * math.log(2.0)
    norms = _miller_norms(mu, N // 2)
    r = np.reciprocal(z)
    above = np.zeros_like(z)                   # f_{k+1}
    f = np.full_like(z, np.finfo(z.dtype).tiny)  # f_k, from k = N
    S = norms[-1] * f
    fn = None
    step = np.empty_like(z)
    for k in range(N, min(n, 0), -1):
        # the scalar first: f_N / z would not be a normal double
        np.multiply(f, 2.0 * (mu + k), out=step)
        step *= r
        step -= above
        above, f, step = f, step, above
        if k % 2:
            S += np.multiply(f, norms[(k - 1) // 2], out=step)
        if k - 1 == n:
            fn = f.copy()
        if rescale and k % 16 == 0:
            scale = np.where(np.abs(f) > 2.0**600, 2.0**-600, 1.0)
            for v in (f, above, S) if fn is None else (f, above, S, fn):
                v *= scale
    if n < 100:
        fn /= S
        fn *= math.gamma(a) * xs ** -n
    else:  # f_n/S, Gamma(a) and x^-n can each pass the doubles
        logs = np.log(np.abs(fn)) - np.log(np.abs(S)) + (math.lgamma(a) - n * np.log(xs))
        fn = np.copysign(np.exp(logs), fn * S)
    out[~low] = fn
    return out


@functools.lru_cache
def _miller_norms(mu: float, top: int) -> tuple[float, ...]:
    """(mu + 2m) Gamma(mu + m)/m! for m = 0 .. top, Gamma(mu + 1) at m = 0:
    the weights of ``_near_kernel``'s normalisation, made once per order
    and start index."""
    norms = [math.gamma(mu + 1.0)]
    g = norms[0]  # Gamma(mu + m)/m! at m = 1
    for m in range(1, top + 1):
        norms.append((mu + 2 * m) * g)
        g *= (mu + m) / (m + 1)
    return tuple(norms)


class _Tier(NamedTuple):
    """The Hankel expansion from z = 2x = ``start`` on: the terms (-1)^j
    a_{2j}(nu) / start^{2j} of P and (-1)^j a_{2j+1}(nu) / start^{2j+1} of
    Q (DLMF 10.17.3), to be summed in powers of (start/z)^2."""

    start: float
    even: tuple[float, ...]
    odd: tuple[float, ...]


def _hankel(a: float, x: np.ndarray, tier: _Tier) -> np.ndarray:
    """Gamma(a) x^{1-a} J_nu(2x), nu = a - 1, by the Hankel expansion, for
    z = 2x at or above ``tier.start``.

    J_nu(z) ~ sqrt(2/(pi z)) (P cos w - Q sin w), w = z - nu pi/2 - pi/4
    (``_hankel_sums``).  cos w and sin w are taken from cos z and sin z and
    the constant angle, so the phase w is never rounded: at z in the
    thousands its rounding alone would cost ~1e-13.
    """
    z = 2.0 * x
    P, Q, r = _hankel_sums(tier, 2.0 * x)
    cc, sc = _hankel_angle(a)
    # P cos w - Q sin w = cos z (P cos c + Q sin c) + sin z (P sin c - Q cos c)
    cos_part = cc * P
    cos_part += sc * Q
    P *= sc
    Q *= cc
    P -= Q
    P *= np.sin(z)
    cos_part *= np.cos(z, out=z)
    cos_part += P
    cos_part *= np.power(r, a - 0.5, out=r)
    cos_part *= _hankel_front(a, tier.start)
    return cos_part


def _hankel_panels(a: float, tier: _Tier, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``_hankel`` at z = theta + phi, for each offset phi (rows, nodes) and
    angle theta (rows, panels) of a row: shape (rows, nodes, panels), the
    panels last so that numpy's inner loops run along them.

    ``ft_quadrature_many`` takes z = 2 pi p r at r = h m + s as the panel
    angle theta = 2 pi p h m plus the node offset phi = 2 pi p s, so
    cos z and sin z follow from those of theta and phi by the addition
    theorem, and np.cos and np.sin run once per panel and per offset
    instead of once per entry (each costs about 30 ns an entry).  Theta
    and phi are each rounded like z itself, the rounding the error floor
    of ``ft_quadrature_many`` budgets for the phase.
    """
    theta, phi = theta[:, None, :], phi[:, :, None]
    P, Q, r = _hankel_sums(tier, np.add(theta, phi))
    cc, sc = _hankel_angle(a)
    front = _hankel_front(a, tier.start)
    ct, st = np.cos(theta), np.sin(theta)
    cos_w = (ct * cc + st * sc) * front  # cos and sin of theta - c, with the constant
    sin_w = (st * cc - ct * sc) * front
    cf, sf = np.cos(phi), np.sin(phi)
    # P cos w - Q sin w, with w = (theta - c) + phi
    A = P * cf
    A -= np.multiply(Q, sf, out=r)
    Q *= cf
    P *= sf
    Q += P
    A *= cos_w
    Q *= sin_w
    A -= Q
    A *= np.power(np.divide(tier.start, np.add(theta, phi, out=P), out=P), a - 0.5, out=P)
    return A


def _hankel_sums(tier: _Tier, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P and Q of the Hankel expansion J_nu(z) ~ sqrt(2/(pi z)) (P cos w -
    Q sin w) (DLMF 10.17.3), and start/z, in place on z: the tier's terms
    by Horner's rule in (start/z)^2, so no power of z past a double is
    formed at any order."""
    r = np.divide(tier.start, z, out=z)
    u = np.square(r)
    P = _horner(tier.even, u)
    Q = _horner(tier.odd, u)
    Q *= r
    return P, Q, r


def _hankel_angle(a: float) -> tuple[float, float]:
    """cos c and sin c for the phase c = (2a - 1) pi/4 of J_{a-1}, from
    (2a - 1) mod 8 so that c is rounded below 2 pi."""
    c = ((2.0 * a - 1.0) % 8.0) * (0.25 * math.pi)
    return math.cos(c), math.sin(c)


def _hankel_front(a: float, start: float) -> float:
    """Gamma(a)/sqrt(pi) (start/2)^{1/2-a}, so that the amplitude
    Gamma(a)/sqrt(pi) x^{1/2-a} of ``_hankel`` is this times (start/2x)^{a-1/2};
    in logs where Gamma(a) or the power is not a double."""
    try:
        front = math.gamma(a) * (0.5 * start) ** (0.5 - a)
    except OverflowError:
        front = 0.0
    if not 2.0**-1000 < front < math.inf:
        front = math.exp(math.lgamma(a) + (0.5 - a) * math.log(0.5 * start))
    return front / math.sqrt(math.pi)


def _hankel_log_coeffs(nu: float, top: int) -> list[float]:
    """log |a_k(nu)| of DLMF 10.17.1 for k = 0 .. top, -inf where a_k is 0."""
    mu = 4.0 * nu * nu
    logs = [0.0]
    for k in range(1, top + 1):
        factor = abs(mu - (2 * k - 1) ** 2)
        logs.append(logs[-1] + math.log(factor / (8 * k)) if factor else -math.inf)
    return logs


@functools.lru_cache
def _hankel_tiers(nu: float) -> tuple[_Tier, ...]:
    """The Hankel expansion of J_nu for ``_kernel``: its start, and the tiers
    of fewer terms from ``_HANKEL_TIERS`` on.

    DLMF 10.17(iii): for real nu and z > 0, the remainder of P after its
    first l terms is at most its first omitted term in size when
    l >= nu/2 - 1/4, and that of Q when l >= nu/2 - 3/4; P and Q depend on
    nu^2 only.  So the expansion takes N terms in all, N/2 in each:
    ``_HANKEL_TERMS`` up to |nu| = 18.5, and past it the least even N >=
    |nu| - 1/2, so that the bound holds at every order.  The start is the
    least z >= ``_HANKEL_SWITCH`` at which both first omitted terms,
    a_N(nu)/z^N and a_{N+1}(nu)/z^{N+1}, are below 2^-53, so the truncation
    stays under 2^-52 of the envelope sqrt(2/(pi z)), and at which no term
    a_k(nu)/z^k exceeds ``_HANKEL_LARGEST``, so their cancellation costs at
    most a few hundred ulps.  Up to |nu| = 18.5 that last condition holds
    from 22 on; past it, it sets the start: 2x = 48 at d = 48, 87 at d = 64.
    Each later tier, from z = 50 and z = 200, takes the fewest even number
    of terms that meets the same 2^-53 and DLMF's condition there: at d = 2,
    18 terms from the start, 12 from 50 and 8 from 200.
    """
    nu = abs(nu)
    most = _HANKEL_TERMS if nu <= _HANKEL_TERMS + 0.5 else 2 * math.ceil(0.5 * (nu - 0.5))
    logs = _hankel_log_coeffs(nu, most + 1)
    tiny = -53 * math.log(2.0)

    def least_z(k: int, bound: float) -> float:
        return math.exp((logs[k] - bound) / k)

    start = max(_HANKEL_SWITCH, *(least_z(k, tiny) for k in (most, most + 1)))
    if most > _HANKEL_TERMS:
        start = max(start, *(least_z(k, math.log(_HANKEL_LARGEST)) for k in range(1, most)))
    tiers = []
    for s in (start, *(s for s in _HANKEL_TIERS if s > start)):
        terms = next((t for t in range(2, most, 2) if t >= nu - 0.5
                      and all(logs[k] - k * math.log(s) <= tiny for k in (t, t + 1))), most)
        mu = 4.0 * nu * nu
        scaled = [1.0]  # a_k(nu) / s^k
        for k in range(1, terms):
            scaled.append(scaled[-1] * (mu - (2 * k - 1) ** 2) / (8 * k * s))
        signed = [c if k % 4 < 2 else -c for k, c in enumerate(scaled)]
        if not tiers or terms < 2 * len(tiers[-1].even):
            tiers.append(_Tier(s, tuple(signed[0::2]), tuple(signed[1::2])))
    return tuple(tiers)


def _hankel_start(nu: float) -> float:
    """Least z = 2x from which ``_kernel`` takes J_nu(z) from ``_hankel``
    (see ``_hankel_tiers``); below it, from ``_near_kernel``."""
    return _hankel_tiers(nu)[0].start


def _horner(coeffs: Sequence[float], t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k, in place on one new array."""
    if len(coeffs) == 1:
        return np.full_like(t, coeffs[0])
    out = np.multiply(t, coeffs[-1])
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= t
        out += c
    return out


@functools.lru_cache(maxsize=64)  # both rule orders at 32 dimensions
def _gauss_nodes(n: int, d: float) -> tuple[np.ndarray, ...]:
    """Read-only n-point Gauss-Jacobi (weight (1 + x)^{d-1}) and
    Gauss-Legendre nodes and weights on [-1, 1], made once per (n, d):
    the first from ``_gauss_jacobi``, the second from numpy's leggauss."""
    rules = (*_gauss_jacobi(n, d - 1.0), *np.polynomial.legendre.leggauss(n))
    for a in rules:
        a.flags.writeable = False
    return rules


def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 + x)^beta on [-1, 1], beta >= 0.

    Golub and Welsch: the nodes are the eigenvalues of the Jacobi matrix
    of the monic recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1} of the
    Jacobi polynomials P^(0, beta) (DLMF 18.9.2).  The eigensolver leaves
    them about 1e-16 times the matrix norm off, and the eigenvectors'
    weights 5e-10 off on the smallest weight at beta = 38, so each node
    takes two Newton steps on the orthonormal polynomial q_n of the same
    recurrence, and the weights are 1/sum_{k<n} q_k^2 there: within 1e-14
    of mpmath up to beta = 63, where 1/(sqrt(b_n) q_{n-1} q_n') errs by
    1.5e-13.
    """
    k = np.arange(n + 1, dtype=np.float64)
    s = 2.0 * k + beta
    a = np.empty(n)
    a[0] = beta / (beta + 2.0)
    a[1:] = beta * beta / (s[1:n] * (s[1:n] + 2.0))
    b = np.zeros(n + 1)
    b[1:] = 4.0 * k[1:] ** 2 * (k[1:] + beta) ** 2 / (s[1:] ** 2 * (s[1:] + 1.0) * (s[1:] - 1.0))
    root_b = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(root_b[1:n], 1) + np.diag(root_b[1:n], -1))
    first = (2.0 ** (beta + 1.0) / (beta + 1.0)) ** -0.5  # q_0: the weight integrates to 2^d/d
    for newton in (True, True, False):
        below, q, dbelow, dq = np.zeros(n), np.full(n, first), np.zeros(n), np.zeros(n)
        squares = q * q
        for j in range(n):
            q, below = ((x - a[j]) * q - root_b[j] * below) / root_b[j + 1], q
            dq, dbelow = (below + (x - a[j]) * dq - root_b[j] * dbelow) / root_b[j + 1], dq
            if j < n - 1:
                squares += q * q
        if newton:
            x = x - q / dq
    return x, 1.0 / squares


def _composite_rule(R: float, panels: int, d: float, factor: float, base: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both rules of ``_RULE_ORDERS`` for factor int_0^R g(r) (r/base)^{d-1}
    dr, g smooth, on the same panels: (offsets, nodes, weights).

    Gauss-Jacobi on the first panel takes r^{d-1} as its weight, so the
    branch point at r = 0 is integrated exactly; Gauss-Legendre on the
    other panels, with r^{d-1} folded into the weights.  Panel m holds the
    nodes of both rules side by side, at h m + offsets on the panels after
    the first; nodes is (panels, n1 + n2), and weights (panels, n1 + n2, 2)
    has one column per rule, zero on the other rule's nodes.
    """
    h = R / panels
    rules = [_gauss_nodes(n, d) for n in _RULE_ORDERS]
    first, wj, local, wg = (np.concatenate([rule[i] for rule in rules]) for i in range(4))
    offsets = 0.5 * h * (1.0 + local)
    nodes = np.concatenate([0.5 * h * (1.0 + first)[None, :],
                            h * np.arange(1, panels)[:, None] + offsets])
    column = np.repeat([0, 1], _RULE_ORDERS)
    weights = np.zeros((panels, column.size, 2))
    weights[0, np.arange(column.size), column] = factor * (0.5 * h / base) ** (d - 1.0) * 0.5 * h * wj
    weights[1:, np.arange(column.size), column] = factor * 0.5 * h * wg * (nodes[1:] / base) ** (d - 1.0)
    return offsets, nodes, weights


def _far_panels(a: float, tiers: tuple[_Tier, ...], turn: np.ndarray, first: np.ndarray, h: float,
                offsets: np.ndarray, wf: np.ndarray, sums: np.ndarray, at: np.ndarray) -> None:
    """Add to sums[at] the products of the kernel with wf (panels, nodes, 2)
    on the panels above the Hankel start, for the radii turn/(2 pi) whose
    first such panel is ``first``.

    The panels from the least of ``first`` on are taken by
    ``_hankel_panels``, each tier on the panels on which it holds for every
    radius; the entries of a radius before its own first panel (left to
    ``_kernel``) are set to zero.
    """
    lo = int(first.min())
    bounds = [lo]
    for tier in tiers[1:]:
        bounds.append(max(bounds[-1], min(len(wf), math.ceil(tier.start / (float(turn.min()) * h)))))
    bounds.append(len(wf))
    theta = np.outer(turn, h * np.arange(lo, len(wf)))
    phi = np.outer(turn, offsets)
    for tier, start, stop in zip(tiers, bounds, bounds[1:]):
        if stop > start:
            k = _hankel_panels(a, tier, theta[:, start - lo:stop - lo], phi)
            if tier is tiers[0]:
                np.copyto(k, 0.0, where=np.arange(start, stop) < first[:, None, None])
            w = wf[start:stop].transpose(1, 0, 2).reshape(-1, 2)
            sums[at] += k.reshape(turn.size, -1) @ w


def ft_quadrature_many(f: RadialFunction, ps: Sequence[float], d: float) -> tuple[np.ndarray, np.ndarray]:
    """Transform values and error estimates at many radii from one grid.

    f is evaluated once, on two composite Gauss rules of different order
    (``_RULE_ORDERS``) over the same panels of [0, R], each panel at most
    one kernel period 1/max(ps) wide; R and its tail bound are chosen as in
    ``ft_quadrature``.  The error estimate of each radius is the difference
    of the two rules, plus a rounding floor (a few ulps of the absolute sum,
    and the rounding of the kernel phase pi p r), plus the radial tail.

    The radii are taken in chunks of about ``_KERNEL_CHUNK`` kernel
    entries.  In a chunk, the panels on which every node lies at or above
    the Hankel start for every radius take the kernel from
    ``_hankel_panels``, each tier of ``_hankel_tiers`` on its own panels;
    the panels before them are gathered over the chunks into calls of
    ``_kernel`` of at most ``_KERNEL_CHUNK`` entries, which is where the
    recurrence below the start runs.  Both rules are applied in one
    product.
    """
    ps = np.asarray(ps, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ps) & (ps >= 0.0)):
        raise DomainError("radii must be finite and nonnegative")
    d = _check_dim(d)
    if ps.size == 0:
        return np.zeros(0), np.zeros(0)
    a = 0.5 * d
    prefactor, rounding = _prefactor(d)
    R = _choose_r_max(f, d, 0.1 * _ABS_TOL / prefactor)
    tail = prefactor * _radial_tail(f, R, d)
    panels = max(16, math.ceil(R * float(ps.max())))
    h = R / panels
    factor, base, measure_rounding = _measure(prefactor, R, d)
    rounding += measure_rounding

    offsets, nodes, wf = _composite_rule(R, panels, d, factor, base)
    fv = np.asarray(f.eval(nodes.ravel()), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        i = bad[0]
        raise DomainError(f"radial profile is {fv[i]} at r = {float(nodes.flat[i])!r}")
    wf *= fv.reshape(nodes.shape)[:, :, None]
    wf = wf.reshape(-1, 2)

    sums = np.zeros((ps.size, 2))
    width = offsets.size
    rows = max(1, _KERNEL_CHUNK // nodes.size)
    tiers = _hankel_tiers(a - 1.0)
    heads: list[tuple[int, int]] = []  # (radius, panels) on which _kernel is due
    held = 0  # their panels

    def flush():
        x = np.concatenate([math.pi * ps[i] * nodes[:m].ravel() for i, m in heads])
        k = _kernel(a, x)
        at = 0
        for i, m in heads:
            sums[i] += k[at:at + m * width] @ wf[:m * width]
            at += m * width
        heads.clear()

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        for i in range(0, ps.size, rows):
            turn = 2.0 * math.pi * ps[i:i + rows]
            # the first panel of each radius on which every node lies at or above the start
            first = np.clip(np.ceil(tiers[0].start / (turn * h)), 1, panels).astype(int)
            for row, m in enumerate(first.tolist()):
                if heads and (held + m) * width > _KERNEL_CHUNK:
                    flush()
                    held = 0
                heads.append((i + row, m))
                held += m
            far = np.flatnonzero(first < panels)
            if far.size:
                _far_panels(a, tiers, turn[far], first[far], h, offsets,
                            wf.reshape(panels, width, 2), sums, i + far)
        flush()

        # rounding floor: a few ulps of the absolute sum, plus the rounding of
        # the kernel phase x = pi p r, eps x |k'(x)| <= 2 eps x^e per node with
        # e = max(0, 3/2 - a) from the kernel envelope, added as a random walk
        mags = np.abs(wf[:, 1])
        e = max(0.0, 1.5 - a)
        floor = 2.0**-50 * (mags.sum() + 2.0 * (math.pi * ps) ** e
                            * np.linalg.norm(mags * nodes.ravel() ** e))
        values = sums[:, 1]
        errors = np.abs(sums[:, 1] - sums[:, 0]) + floor + tail + rounding * np.abs(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise DomainError(f"transformed profile is {values[i]} at p = {float(ps[i])!r}")
    over = np.flatnonzero(errors > np.maximum(_ABS_TOL, _REL_TOL * np.abs(values)))
    if over.size:
        i = over[0]
        raise ToleranceNotMet(
            f"shared-grid error {errors[i]:.3e} at p = {float(ps[i])!r} above requested "
            f"tolerance (abs {_ABS_TOL:.1e}, rel {_REL_TOL:.1e})"
        )
    return values, errors
