"""Radial Fourier transform with the dimension as a continuous parameter.

For a radial profile f the transform used throughout is

    ft(p) = (2 pi^{d/2} / Gamma(d/2)) * int_0^inf f(r) 0F1(d/2; -pi^2 p^2 r^2) r^{d-1} dr,

which reduces to the classical d-dimensional Fourier transform of the
radial function at integer d.  Gaussian-polynomial profiles transform in
closed form (``ft_closed``/``ft_gausspoly``).  Sampled profiles go through
``ft_quadrature_many``, one shared quadrature grid for many radii at once;
``ft_quadrature`` is the independent adaptive route that cross-checks both.
The shared grid's kernel (``_kernel``) takes its Bessel function from the
Hankel expansion at large arguments and from the power series and Miller's
backward recurrence below them, on numpy; ``special.j0`` serves d = 2, and
``special.jv`` only orders past d = 39.  ``hyp0f1`` and so ``ft_quadrature``
stay on ``special.jv``, which keeps the cross-check independent of the
shared grid's kernel.

scipy is imported inside the functions that call it, so the closed-form
paths never load it: ``scipy.special`` by the quadrature helpers and the
Bessel branch of ``hyp0f1``, ``scipy.integrate`` by ``ft_quadrature`` only.
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

# Most kernel entries (radii x nodes) ``ft_quadrature_many`` holds at once.
# Small enough that the temporaries of ``_kernel`` stay in cache: on 4096
# radii at d = 2.5 (2-core Xeon, 4 MB L2) 2^14 and 2^15 ran fastest of 2^14
# to 2^18, best of three 2.5 and 3.0 s against 4.3 s at 2^18.
_KERNEL_CHUNK = 2**15

# ``_kernel`` takes J_{a-1}(2x) from its Hankel expansion, ``_HANKEL_TERMS``
# terms in all (P and Q together), from 2x = ``_hankel_start(a - 1)`` up, and
# from ``_near_kernel`` below.  That start is never below ``_HANKEL_SWITCH``:
# at half-integer order the expansion ends, so its error bound alone would
# start it at 0, but at large such order its terms cancel below 22 (1.2e-13
# of the kernel envelope for 2x in [16, 22] at d = 37, against 8e-15 just
# above), so a lower switch would leave those points outside the kernel's
# 1.1e-14 bar.  Above it the start rises with the order until 18 terms meet
# 2^-53 (2x = 22.8 at d = 2.5, 23.9 at d = 8, 34.7 at d = 24), and past
# d = 39 it is inf.  Measured, not tunable: 18 terms keep the start within
# 1.3 of 22 over the d of the benchmarks (1 to 4.2).
_HANKEL_SWITCH = 22.0
_HANKEL_TERMS = 18

# Least subinterval limit of the adaptive quadrature in ``ft_quadrature``.
_MAX_PANELS = 400

# Both quadrature transforms raise ToleranceNotMet past max(_ABS_TOL, _REL_TOL |value|).
_REL_TOL = 1e-10
_ABS_TOL = 1e-12

# Relative margin ``_choose_r_max`` keeps below the tail budget: the inverse
# incomplete gamma function rounds, and has read 1 + 4.4e-15 of its target.
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
    it drives window selection and tail bounds, so it is mandatory.
    """

    fn: Callable[[float], float]
    decay_hint: tuple[float, float]

    def __post_init__(self):
        scale, rate = self.decay_hint
        if not (math.isfinite(scale) and scale > 0 and math.isfinite(rate) and rate > 0):
            raise DomainError(f"decay_hint must be positive (scale, rate), got {self.decay_hint!r}")
        object.__setattr__(self, "decay_hint", (float(scale), float(rate)))

    def eval(self, r):
        arr = np.asarray(r, dtype=np.float64)
        if arr.ndim == 0:
            return float(self.fn(float(arr)))
        return np.array([self.fn(float(x)) for x in arr])

    def __call__(self, r):
        return self.eval(r)


RadialFunction = Union[GaussPoly, Sampled]


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
    """Upper bound on int_R^inf |f(r)| r^{d-1} dr via incomplete gamma."""
    from scipy import special

    total = 0.0
    for c, k, alpha in _tail_envelope(f):
        a = k + 0.5 * d
        total += c * 0.5 * math.gamma(a) * float(special.gammaincc(a, alpha * R * R)) / alpha**a
    return total


def _choose_r_max(f: RadialFunction, d: float, budget: float) -> float:
    """A radius R with ``_radial_tail(f, R, d) < budget``, in closed form.

    Each envelope term gets an even share of the budget, less a relative
    margin of ``_TAIL_MARGIN`` for the rounding of the inverse, and its
    incomplete-gamma tail is inverted for R with ``special.gammainccinv``.
    R is the largest of these radii (the least one for a single term), or
    one decay length if every term's whole integral already fits its share.
    """
    from scipy import special

    envelope = _tail_envelope(f)
    share = (1.0 - _TAIL_MARGIN) * budget / len(envelope)
    R = 0.0
    for c, k, alpha in envelope:
        a = k + 0.5 * d
        whole = c * 0.5 * math.gamma(a) / alpha**a
        if whole > share:
            R = max(R, math.sqrt(float(special.gammainccinv(a, share / whole)) / alpha))
    if not math.isfinite(R):
        raise ToleranceNotMet(f"could not bound the radial tail below {budget!r}")
    return R if R > 0.0 else 1.0 / math.sqrt(min(alpha for _, _, alpha in envelope))


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
    prefactor = 2.0 * math.pi**a / math.gamma(a)
    tail_budget = 0.1 * _ABS_TOL / prefactor
    R = _choose_r_max(f, d, tail_budget)
    tail = prefactor * _radial_tail(f, R, d)

    fv = f.eval

    def integrand(r: float) -> float:
        return fv(r) * hyp0f1(a, -(math.pi * p * r) ** 2) * r ** (d - 1.0)

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
        epsabs=0.5 * _ABS_TOL / prefactor,
        epsrel=0.25 * _REL_TOL,
        limit=limit,
        points=points,
        full_output=1,
    )
    value = prefactor * res[0]
    err = prefactor * res[1] + tail
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
    """0F1(a; -x^2) on an array of x >= 0.

    Gamma(a) x^{1-a} J_{a-1}(2x), the Bessel relation ``hyp0f1`` uses past
    its series range.  Where 2x >= ``_hankel_start(a - 1)`` it comes from
    the Hankel expansion (``_hankel``), about 80 ns an entry; below that
    start from ``_near_kernel``, the power series and Miller's recurrence,
    100-200 ns an entry where ``special.jv`` takes 0.7-2.8 us at
    non-integer order.  At d = 2 the kernel is J_0(2x), and ``special.j0``
    is faster than either.  An order the expansion's error bound does not
    cover (a > 19.5) stays on ``special.jv`` at every x: it keeps its
    relative accuracy as x -> 0, where ``special.hyp0f1`` loses up to 4e-12
    at a = 1/2.
    """
    from scipy import special

    if a == 1.0:
        return special.j0(2.0 * x)
    start = _hankel_start(a - 1.0)
    if start == math.inf:
        with np.errstate(divide="ignore", invalid="ignore"):
            k = math.gamma(a) * x ** (1.0 - a) * special.jv(a - 1.0, 2.0 * x)
        return np.where(x == 0.0, 1.0, k)
    out = np.empty_like(x)
    far = x >= 0.5 * start
    out[far] = _hankel(a, x[far])
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
    most about N! for z >= 2, so starting at the least normal double they
    stay finite and normal (N is at most 190, at d = 39).
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
    norms = _miller_norms(mu, N // 2)
    r = np.reciprocal(z)
    above = np.zeros_like(z)                   # f_{k+1}
    f = np.full_like(z, np.finfo(z.dtype).tiny)  # f_k, from k = N
    S = norms[-1] * f
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
    fn /= S
    fn *= math.gamma(a) * xs ** -n
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


def _hankel(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a) x^{1-a} J_nu(2x), nu = a - 1, by the Hankel expansion.

    J_nu(z) ~ sqrt(2/(pi z)) (P cos w - Q sin w), w = z - nu pi/2 - pi/4,
    where P and Q sum the even and the odd terms (-1)^{floor(k/2)}
    a_k(nu) / z^k (DLMF 10.17.3), ``_HANKEL_TERMS`` of them in all, by
    Horner's rule in 1/z^2.  cos w and sin w are taken from cos z and sin z
    and the constant angle, so the phase w is never rounded: at z in the
    thousands its rounding alone would cost ~1e-13.  The arithmetic runs in
    place on a few arrays the size of x.
    """
    nu = a - 1.0
    ak = _hankel_coeffs(nu)[:_HANKEL_TERMS]
    signed = [c if k % 4 < 2 else -c for k, c in enumerate(ak)]
    z = 2.0 * x
    t = np.reciprocal(z * z)
    P, Q = (_horner(signed[i::2], t) for i in (0, 1))
    Q /= z
    c = 0.5 * math.pi * nu + 0.25 * math.pi
    cc, sc = math.cos(c), math.sin(c)
    # P cos w - Q sin w = cos z (P cos c + Q sin c) + sin z (P sin c - Q cos c)
    cos_part = cc * P
    cos_part += sc * Q
    P *= sc
    Q *= cc
    P -= Q
    P *= np.sin(z)
    cos_part *= np.cos(z, out=t)
    cos_part += P
    cos_part *= (math.gamma(a) / math.sqrt(math.pi)) * x ** (0.5 - a)
    return cos_part


def _hankel_coeffs(nu: float) -> list[float]:
    """a_k(nu) of DLMF 10.17.1 for k = 0 .. ``_HANKEL_TERMS`` + 1."""
    mu = 4.0 * nu * nu
    ak = [1.0]
    for k in range(1, _HANKEL_TERMS + 2):
        ak.append(ak[-1] * (mu - (2 * k - 1) ** 2) / (8 * k))
    return ak


def _hankel_start(nu: float) -> float:
    """Least z = 2x from which ``_kernel`` takes J_nu(z) from ``_hankel``.

    DLMF 10.17(iii): for real nu and z > 0, the remainder of P after its
    first l terms is at most its first omitted term in size when
    l >= nu/2 - 1/4, and that of Q when l >= nu/2 - 3/4; P and Q depend on
    nu^2 only.  With l = ``_HANKEL_TERMS``/2 terms in each, the start is the
    least z >= ``_HANKEL_SWITCH`` at which both first omitted terms,
    a_N(nu)/z^N and a_{N+1}(nu)/z^{N+1} with N = ``_HANKEL_TERMS``, are
    below 2^-53, so the truncation stays under 2^-52 of the envelope
    sqrt(2/(pi z)).  Below the start ``_kernel`` takes ``_near_kernel``.
    Where the bound does not hold (|nu| > 18.5 with 18 terms) it is inf,
    and the kernel stays on ``special.jv`` at every z.
    """
    nu = abs(nu)
    n = _HANKEL_TERMS
    if nu > n + 0.5:
        return math.inf
    ak = _hankel_coeffs(nu)
    return max(_HANKEL_SWITCH, *((abs(ak[k]) * 2.0**53) ** (1.0 / k) for k in (n, n + 1)))


def _horner(coeffs: Sequence[float], t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k, in place on one new array."""
    out = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


@functools.lru_cache(maxsize=64)  # both rule orders at 32 dimensions
def _gauss_nodes(n: int, d: float) -> tuple[np.ndarray, ...]:
    """Read-only n-point Gauss-Jacobi (weight (1 + x)^{d-1}) and
    Gauss-Legendre nodes and weights on [-1, 1], made once per (n, d)."""
    from scipy import special

    rules = (*special.roots_jacobi(n, 0.0, d - 1.0), *special.roots_legendre(n))
    for a in rules:
        a.flags.writeable = False
    return rules


def _composite_rule(R: float, panels: int, d: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an n-point rule for int_0^R g(r) r^{d-1} dr, g smooth.

    Gauss-Jacobi on the first panel takes r^{d-1} as its weight, so the
    branch point at r = 0 is integrated exactly; Gauss-Legendre on the
    other panels, with r^{d-1} folded into the weights.
    """
    h = R / panels
    xj, wj, xg, wg = _gauss_nodes(n, d)
    rest = (h * np.arange(1, panels)[:, None] + 0.5 * h * (1.0 + xg)).ravel()
    nodes = np.concatenate([0.5 * h * (1.0 + xj), rest])
    weights = np.concatenate([
        (0.5 * h) ** d * wj,
        np.tile(0.5 * h * wg, panels - 1) * rest ** (d - 1.0),
    ])
    return nodes, weights


def ft_quadrature_many(f: RadialFunction, ps: Sequence[float], d: float) -> tuple[np.ndarray, np.ndarray]:
    """Transform values and error estimates at many radii from one grid.

    f is evaluated once, on two composite Gauss rules of different order
    (``_RULE_ORDERS``) over the same panels of [0, R], each panel at most
    one kernel period 1/max(ps) wide; R and its tail bound are chosen as in
    ``ft_quadrature``.  The error estimate of each radius is the difference
    of the two rules, plus a rounding floor (a few ulps of the absolute sum,
    and the rounding of the kernel phase pi p r), plus the radial tail.
    The kernel matrix is built in chunks of at most about ``_KERNEL_CHUNK``
    entries and applied to both rules in one product.
    """
    ps = np.asarray(ps, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ps) & (ps >= 0.0)):
        raise DomainError("radii must be finite and nonnegative")
    d = _check_dim(d)
    if ps.size == 0:
        return np.zeros(0), np.zeros(0)
    a = 0.5 * d
    prefactor = 2.0 * math.pi**a / math.gamma(a)
    R = _choose_r_max(f, d, 0.1 * _ABS_TOL / prefactor)
    tail = prefactor * _radial_tail(f, R, d)
    panels = max(16, math.ceil(R * float(ps.max())))

    (lo, w_lo), (hi, w_hi) = (_composite_rule(R, panels, d, n) for n in _RULE_ORDERS)
    nodes = np.concatenate([lo, hi])
    fv = np.asarray(f.eval(nodes), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        i = bad[0]
        raise DomainError(f"radial profile is {fv[i]} at r = {float(nodes[i])!r}")
    # one column per rule, zero on the other rule's nodes
    wf = np.zeros((nodes.size, 2))
    wf[:lo.size, 0] = w_lo * fv[:lo.size]
    wf[lo.size:, 1] = w_hi * fv[lo.size:]

    sums = np.empty((ps.size, 2))
    rows = max(1, _KERNEL_CHUNK // nodes.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge profile: refused below
        for i in range(0, ps.size, rows):
            sums[i:i + rows] = _kernel(a, math.pi * np.outer(ps[i:i + rows], nodes)) @ wf

        # rounding floor: a few ulps of the absolute sum, plus the rounding of
        # the kernel phase x = pi p r, eps x |k'(x)| <= 2 eps x^e per node with
        # e = max(0, 3/2 - a) from the kernel envelope, added as a random walk
        mags = np.abs(wf[lo.size:, 1])
        e = max(0.0, 1.5 - a)
        floor = 2.0**-50 * (mags.sum() + 2.0 * (math.pi * ps) ** e * np.linalg.norm(mags * hi**e))
        values = prefactor * sums[:, 1]
        errors = prefactor * (np.abs(sums[:, 1] - sums[:, 0]) + floor) + tail
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
