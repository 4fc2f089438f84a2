"""Radial Fourier transform with the dimension as a continuous parameter.

For a radial profile f the transform used throughout is

    ft(p) = (2 pi^{d/2} / Gamma(d/2)) * int_0^inf f(r) 0F1(d/2; -pi^2 p^2 r^2) r^{d-1} dr,

which reduces to the classical d-dimensional Fourier transform of the
radial function at integer d.  Every d > 0 is one domain: below d = 1 the
measure r^{d-1} is unbounded at 0 and the kernel grows like its envelope,
and the quadrature routes take both (``_kernel_bound``, the Gauss-Jacobi
first panel, QAWS), down to the least d each resolves.
Gaussian-polynomial profiles transform in closed form
(``ft_closed``/``ft_gausspoly``).  Sampled profiles go through the shared
quadrature grid of ``_grid.ft_quadrature_many``; ``ft_quadrature`` here is
the independent adaptive route that cross-checks both.  This module keeps
what the two quadrature routes share, their setup (``_radial_setup``: the
d they run at, the constant, the radius and tail bound by
``_log_gamma_bound``, the measure), and never imports ``_grid``.
``ft_quadrature`` and ``hyp0f1`` stay on scipy (``integrate.quad`` and
``special.jv``), which keeps the cross-check independent of the shared
grid.

scipy is imported inside those two functions only, so no other path loads
it: ``scipy.special`` by the Bessel branch of ``hyp0f1``,
``scipy.integrate`` by ``ft_quadrature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import DomainError, ToleranceNotMet, _points, _profile_values, _real, _whole

# Plain power series of 0F1 keeps ~1e-13 absolute accuracy up to |z| = 25
# (largest term grows like e^{2 sqrt|z|}); beyond that, unless |z| <= a,
# the Bessel relation is used.  Measured, not tunable.
_SERIES_SWITCH = 25.0

# Least subinterval limit of the adaptive quadrature in ``ft_quadrature``.
_MAX_PANELS = 400

# Both quadrature transforms raise ToleranceNotMet past max(_ABS_TOL, _REL_TOL |value|).
_REL_TOL = 1e-10
_ABS_TOL = 1e-12

# Least d of ``ft_quadrature``, measured; below it QAWS, on the weight
# r^{d-1}, loses that weight near r = 0 to rounding, and DomainError is
# raised.  On e^{-r^2} and r^4 e^{-0.3 r^2} + 0.5 e^{-2 r^2} it erred by up
# to 35 times its estimate from d = 1e-4 down, by up to 1.01 times at d =
# 4e-4, and held within 0.6 of it from d = 6e-4 up; 2^-7 = 0.0078 keeps a
# factor of 13 from that.
_QAWS_LEAST_DIM = 2.0**-7

# Bound on sqrt(P^2 + Q^2) of the Hankel expansion of J_nu(z) from z = 2 on,
# at 1/2 < |nu| < 1: the kernel's growth below d = 1 (``_kernel_bound``).
_KERNEL_BOUND = 1.05


# -- radial profiles -----------------------------------------------------


@dataclass(frozen=True)
class GaussPoly:
    """Sum of Gaussian-polynomial terms c * r^{2k} * exp(-alpha r^2)."""

    terms: tuple[tuple[float, int, float], ...]

    def __post_init__(self):
        norm = tuple((_real(c, "GaussPoly coefficient", "any"), _whole(k, "polynomial degree", 0),
                      _real(alpha, "Gaussian rate")) for c, k, alpha in self.terms)
        if not norm:
            raise DomainError("GaussPoly without terms")
        object.__setattr__(self, "terms", norm)

    def eval(self, r):
        """Sum of the terms at r.  Where c r^{2k} is past the doubles (r^2
        itself from r ~ 1.3e154), a term is c exp(k log r^2 - alpha r^2),
        which is 0 there unless alpha is tiny."""
        r = _points(r, "r")
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
    must be callable and the hint a pair of finite positive real numbers,
    or ``DomainError`` is raised.
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
            scale, rate = hint
        except (TypeError, ValueError):
            raise DomainError(f"decay_hint must be a pair (scale, rate) of numbers, got {hint!r}") from None
        object.__setattr__(self, "decay_hint", (_real(scale, "decay_hint scale"),
                                                _real(rate, "decay_hint rate")))

    def eval(self, r):
        """fn at each r, as doubles.  The first value that is not a finite real
        number raises ``DomainError`` naming its r (``errors._profile_values``)."""
        out = _profile_values(self.fn, _points(r, "r"), "radial profile", "r")
        return out if out.ndim else float(out)

    def __call__(self, r):
        return self.eval(r)


RadialFunction = Union[GaussPoly, Sampled]


# -- scalar special functions --------------------------------------------


def hyp0f1(a: float, z: float) -> float:
    """Confluent limit function 0F1(a; z) for a > 0, real z.

    Power series (exactly-rounded summation) for |z| <= max(25, a): up to
    |z| = 25 its largest term grows like e^{2 sqrt|z|}, and where |z| <= a
    every term is below the first.  Outside that the Bessel relations
    0F1(a;-x) = Gamma(a) x^{-(a-1)/2} J_{a-1}(2 sqrt x) and its
    modified-Bessel mirror for z > 0; where that product is not a double
    (the front past the doubles, the Bessel function below the normal
    doubles, or the value itself past them) ``DomainError`` names a and z.
    """
    a = _real(a, "hyp0f1 parameter a")
    z = _real(z, "hyp0f1 argument z", "any")
    if abs(z) <= max(_SERIES_SWITCH, a):
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
        bessel = float(special.jv(a - 1.0, y))
    else:
        log_front += y
        bessel = float(special.ive(a - 1.0, y))
    try:
        value = math.exp(log_front) * bessel
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and abs(bessel) >= 2.0**-1022):
        raise DomainError(f"hyp0f1({a!r}, {z!r}) leaves the doubles on its Bessel route")
    return value


# -- closed-form transform ------------------------------------------------


def ft_gausspoly(f: GaussPoly, d: float) -> GaussPoly:
    """Exact transform of a Gaussian-polynomial profile, again a GaussPoly.

    Each r^{2k} e^{-alpha r^2} maps to (-d/dalpha)^k of (pi/alpha)^{d/2}
    e^{-pi^2 p^2/alpha}, that is k! alpha^-k (pi/alpha)^{d/2} e^{-x}
    L_k^{(d/2-1)}(x) with x = pi^2 p^2/alpha.  The derivative is tracked as
    a polynomial in u = 1/alpha and beta = pi^2 p^2: after m derivatives
    every monomial is u^{m+j} beta^j, and one more maps its coefficient
    q_j to (d/2 + m + j) q_j - q_{j-1}.  After k derivatives q_j =
    (-1)^j C(k, j) Gamma(k + d/2) / Gamma(j + d/2), the Laguerre
    coefficients (DLMF §18.5), so only the final substitution rounds.
    Every d > 0 is taken.  A transformed coefficient that is not a finite
    double raises ``DomainError``.
    """
    d = _real(d, "dimension parameter")
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
    p = _real(p, "p", "nonnegative")
    return ft_gausspoly(f, d).eval(p)


def laplacian_d(f: GaussPoly, d: float, n: int = 1) -> GaussPoly:
    """n applications of the radial Laplacian f'' + (d-1) f'/r.

    Exact on the coefficient level:
    r^{2k} e^{-a r^2} -> 2k(2k-2+d) r^{2k-2} - 2a(4k+d) r^{2k} + 4a^2 r^{2k+2},
    all times e^{-a r^2}.  Every d > 0 is taken.
    """
    d = _real(d, "dimension parameter")
    n = _whole(n, "repetition count", 0)
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
    """(|c|, k, alpha) majorant terms for |f|.  Every route reads them here, so
    this is where anything but a ``GaussPoly`` or a ``Sampled`` is refused."""
    if isinstance(f, GaussPoly):
        return [(abs(c), k, alpha) for c, k, alpha in f.terms]
    if isinstance(f, Sampled):
        scale, rate = f.decay_hint
        return [(scale, 0, rate)]
    raise TypeError("radial profile must be GaussPoly or Sampled")


def _kernel_bound(d: float, top: float) -> list[tuple[float, float]]:
    """(log b, e) pairs with |0F1(d/2; -(top r)^2)| <= sum b r^e at every r >= 0.

    From d = 1 on, |0F1(a; -x^2)| <= 1 (DLMF 10.14.4, a = d/2 >= 1/2); so
    too at top = 0, where the kernel is 1.  Below d = 1 the kernel grows
    like the envelope Gamma(a)/sqrt(pi) x^{1/2-a}, and the bound is (1 +
    1/a) + ``_KERNEL_BOUND`` Gamma(a)/sqrt(pi) x^{1/2-a}, x = top r:
    - for x <= 1, 0F1(a; -x^2) = 1 - (2/a) int_0^x t 0F1(a + 1; -t^2) dt,
      and |0F1(a + 1; -t^2)| <= 1 (DLMF 10.14.4), so |0F1| <= 1 + x^2/a;
    - for x >= 1, 0F1 = Gamma(a) x^{1-a} J_nu(2x), nu = a - 1, with J_nu(z)
      = sqrt(2/(pi z)) (P cos w - Q sin w), |P cos w - Q sin w| <= sqrt(P^2
      + Q^2).  P and Q depend on nu^2 alone, and at 1/2 < |nu| < 1 the
      remainders of P ~ 1 and Q ~ a_1/z are at most |a_2|/z^2 and |a_3|/z^3
      (DLMF 10.17(iii)), with |a_1| <= 3/8, |a_2| <= 15/128 and |a_3| <=
      105/1024 (DLMF 10.17.1): sqrt(P^2 + Q^2) <= 1.049 from z = 2 on.
    Against mpmath the ratio |0F1| / envelope peaks at 1.033 (d = 0.01),
    and the whole bound is at least 1.3 times |0F1| at d = 0.01, 4 times
    near d = 1.
    """
    a = 0.5 * d
    if a >= 0.5 or top == 0.0:
        return [(0.0, 0.0)]
    grows = math.log(_KERNEL_BOUND / math.sqrt(math.pi)) + math.lgamma(a) + (0.5 - a) * math.log(top)
    return [(math.log1p(1.0 / a), 0.0), (grows, 0.5 - a)]


def _radial_tail(f: RadialFunction, R: float, d: float, top: float = 0.0) -> float:
    """Upper bound on int_R^inf |f(r) 0F1(d/2; -(top r)^2)| r^{d-1} dr:
    (c b/2) Gamma(a, alpha R^2) / alpha^a per envelope term and term b r^e
    of ``_kernel_bound``, a = k + (d + e)/2, with Gamma(a, x) bounded by
    ``_log_gamma_bound``, in logs."""
    bound = _kernel_bound(d, top)
    total = 0.0
    for c, k, alpha in _tail_envelope(f):
        if c > 0.0:
            for log_b, e in bound:
                a = k + 0.5 * (d + e)
                total += math.exp(math.log(0.5 * c) - a * math.log(alpha) + log_b
                                  + _log_gamma_bound(a, alpha * R * R))
    return total


def _choose_r_max(f: RadialFunction, d: float, budget: float, top: float = 0.0) -> float:
    """A radius R with ``_radial_tail(f, R, d, top) < budget``.

    Each envelope term, times each term of ``_kernel_bound``, gets an even
    share of the budget, less a relative margin of 1e-9 for the rounding of
    the root and of alpha R^2 (each moves the bound by about 2^-53 x), and
    its bound on Gamma(a, alpha R^2) is solved for R with
    ``_gamma_bound_root``.  R is the largest of these radii (the least one
    for a single term), or one decay length if every term's whole integral
    already fits its share.
    """
    envelope = _tail_envelope(f)
    bound = _kernel_bound(d, top)
    if not budget > 0.0:
        raise ToleranceNotMet(f"could not bound the radial tail below {budget!r}")
    log_share = math.log((1.0 - 1e-9) * budget / (len(envelope) * len(bound)))
    R = 0.0
    for c, k, alpha in envelope:
        if c > 0.0:
            for log_b, e in bound:
                a = k + 0.5 * (d + e)
                log_front = math.log(0.5 * c) - a * math.log(alpha) + log_b
                if log_front + math.lgamma(a) > log_share:
                    R = max(R, math.sqrt(_gamma_bound_root(a, log_share - log_front) / alpha))
    if not math.isfinite(R):
        raise ToleranceNotMet(f"could not bound the radial tail below {budget!r}")
    return R if R > 0.0 else 1.0 / math.sqrt(min(alpha for _, _, alpha in envelope))


def _log_gamma_bound(a: float, x: float) -> float:
    """log U, U >= Gamma(a, x) for a > 0 and x >= 0: with s = max(a - 1, 0),
    U = min(Gamma(a), x^{a-1} e^-x / (1 - s/x)) for x > s, Gamma(a) elsewhere.

    For a <= 1 (s = 0) the second term is DLMF 8.10.1.  For a > 1, log t <=
    log x + (t - x)/x gives t^{a-1} <= x^{a-1} e^{s(t - x)/x} at t >= x, and
    its integral against e^-t from x on is the second term.  Against mpmath
    log(U / Gamma(a, x)) is 0 to 0.143 for a from 0.0015 to 200 where x >=
    a + 30, and at most 0.032 there for a <= 2.
    """
    s = max(a - 1.0, 0.0)
    if x <= s:
        return math.lgamma(a)
    return min(math.lgamma(a), (a - 1.0) * math.log(x) - x - math.log1p(-s / x))


def _gamma_bound_root(a: float, log_u: float) -> float:
    """x > s = max(a - 1, 0) at which log(x^{a-1} e^-x / (1 - s/x)), the
    second term of ``_log_gamma_bound``, is log_u < log Gamma(a).

    That term falls strictly from +inf at x = s to -inf, so Newton steps
    from x = L + (a - 1) log L, L = -log_u (its root for large L, DLMF
    8.11.2), are kept inside the bracket the signs have shown, bisecting
    where a step leaves it.  It stops when a step is below 2^-30 of x: the
    next error is about the square of that.
    """
    s = max(a - 1.0, 0.0)
    L = -log_u
    x = L + (a - 1.0) * math.log(L) if L > 1.0 else 0.0
    if not x > s:
        x = s + 1.0
    lo, hi = s, math.inf
    for _ in range(100):
        g = (a - 1.0) * math.log(x) - x - math.log1p(-s / x) - log_u
        if g > 0.0:
            lo = x
        else:
            hi = x
        step = g / (1.0 - (a - 1.0) / x + s / (x * (x - s)))  # -g/g'
        if abs(step) <= 2.0**-30 * x:
            return x + step
        x = x + step if lo < x + step < hi else (0.5 * (lo + hi) if hi < math.inf else 2.0 * x)
    return hi  # the bracket's upper end, where the term is below log_u


def _radial_setup(f: RadialFunction, d: float, least: float, top: float
                  ) -> tuple[float, float, float, float, float, float]:
    """What both quadrature routes fix before they integrate f against
    0F1(d/2; -(top r)^2): (d, R, tail, factor, base, rounding).

    - d is the d the route runs at, (d - 1) + 1: the d that the double
      d - 1 carries, d itself from d = 1/2 on and within 2^-54 of d below;
      ``DomainError`` below the route's least d.  Both routes take r^{d-1}
      through d - 1 (the QAWS weight of ``ft_quadrature``, the Jacobi
      recurrence of ``_grid._gauss_jacobi``) and run at this d throughout,
      so that their weight, kernel and constant agree: with the weight at
      the rounded d and the constant at d, the weight's integral near 0,
      about R^d/d, would err by up to 2^-54/d relative (the adaptive route
      read 4.5e-12 off at d = 1e-5).  The transform is smooth in d, so the
      value moves by about 2^-54 |dF/dd|.
    - The constant c = 2 pi^{d/2} / Gamma(d/2) is taken directly up to
      d = 342, rounded by a few ulps.  From there Gamma(d/2) is past the
      doubles, and c comes from its log, rounded by about 2^-53 of the
      log's terms: 2e-13 at d = 344.  Past d = 430 c is below the doubles,
      and ``DomainError`` is raised.
    - R (``_choose_r_max``) keeps the tail, c times ``_radial_tail``, below
      a tenth of ``_ABS_TOL``.
    - c r^{d-1} = factor (r/base)^{d-1} on [0, R].  Where c R^{d-1} is a
      double, base is 1 and factor c: the measure is taken directly.  Else
      (r^{d-1} past the doubles, from d = 172 or so) base is R and factor
      c R^{d-1}, from its log, which adds about 2^-53 of the log's terms,
      and (r/R)^{d-1} adds d ulps; where c R^{d-1} is past the doubles
      (d = 200 at rate 0.05), ``DomainError`` is raised.
    - rounding bounds the relative rounding that c and the measure add.
    """
    d = _real(d, "dimension parameter")
    if d < least:
        raise DomainError(f"this quadrature transform takes d >= {least!r}, got {d!r}: "
                          "below it rounding takes the measure r^(d-1) near r = 0")
    d = (d - 1.0) + 1.0
    a = 0.5 * d
    if a < 171.0:
        c, rounding = 2.0 * math.pi**a / math.gamma(a), 0.0
    else:
        log_c = math.log(2.0) + a * math.log(math.pi) - math.lgamma(a)
        if not log_c > math.log(2.0**-1022):
            raise DomainError(f"the transform's constant 2 pi^(d/2)/Gamma(d/2) is below the doubles at d = {d!r}")
        c, rounding = math.exp(log_c), 2.0**-52 * (a * math.log(math.pi) + math.lgamma(a))
    R = _choose_r_max(f, d, 0.1 * _ABS_TOL / c, top)
    tail = c * _radial_tail(f, R, d, top)
    try:
        factor = c * R ** (d - 1.0)
    except OverflowError:
        factor = math.inf
    if 2.0**-1000 < factor < math.inf:
        return d, R, tail, c, 1.0, rounding
    try:
        factor = math.exp(math.log(c) + (d - 1.0) * math.log(R))
    except OverflowError:
        raise DomainError(f"the transform's measure c R^(d-1) is past the doubles at d = {d!r}") from None
    rounding += 2.0**-52 * (abs(math.log(c)) + abs((d - 1.0) * math.log(R)) + d)
    return d, R, tail, factor, R, rounding


def ft_quadrature(f: RadialFunction, p: float, d: float) -> FTResult:
    """Numerical transform value with an error estimate.

    Adaptive Gauss-Kronrod panels on [0, R] with breakpoints at the kernel
    oscillation scale ~1/(2p); R is chosen so the neglected tail stays
    below a tenth of the absolute tolerance and enters the error estimate.
    Below d = 1, where r^{d-1} is unbounded at r = 0, QUADPACK's QAWS takes
    it as its algebraic weight instead, on adaptive panels without
    breakpoints: with it in a plain integrand, the error estimate was up to
    3.9 times too small from d = 0.05 to 0.7 (on r^4 e^{-0.3 r^2} + 0.5
    e^{-2 r^2}).
    """
    from scipy import integrate

    p = _real(p, "p", "nonnegative")
    d, R, tail, factor, base, rounding = _radial_setup(f, d, _QAWS_LEAST_DIM, math.pi * p)
    a = 0.5 * d

    fv = f.eval

    def profile_kernel(r: float) -> float:
        return fv(r) * hyp0f1(a, -(math.pi * p * r) ** 2)

    tols = {"epsabs": 0.5 * _ABS_TOL, "epsrel": 0.25 * _REL_TOL, "full_output": 1}
    if d < 1.0:  # no breakpoints with a weight: room for 4 panels a kernel period
        # base is 1 below d = 1: factor is the constant itself
        res = integrate.quad(lambda r: profile_kernel(r) * factor, 0.0, R,
                             weight="alg", wvar=(d - 1.0, 0.0),
                             limit=max(_MAX_PANELS, math.ceil(4.0 * R * p)), **tols)
    else:
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
        res = integrate.quad(lambda r: profile_kernel(r) * (factor * (r / base) ** (d - 1.0)),
                             0.0, R, limit=limit, points=points, **tols)
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
