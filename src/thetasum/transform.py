"""Radial Fourier transform with the dimension as a continuous parameter.

For a radial profile f the transform used throughout is

    ft(p) = (2 pi^{d/2} / Gamma(d/2)) * int_0^inf f(r) 0F1(d/2; -pi^2 p^2 r^2) r^{d-1} dr,

which reduces to the classical d-dimensional Fourier transform of the
radial function at integer d.  Gaussian-polynomial profiles transform in
closed form (``ft_closed``/``ft_gausspoly``).  Sampled profiles go through
``ft_quadrature_many``, one shared quadrature grid for many radii at once;
``ft_quadrature`` is the independent adaptive route that cross-checks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy import integrate, special

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
_KERNEL_CHUNK = 2**20


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
        r2 = np.square(np.asarray(r, dtype=np.float64))
        out = np.zeros_like(r2)
        for c, k, alpha in self.terms:
            out += c * r2**k * np.exp(-alpha * r2)
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


@dataclass(frozen=True)
class TransformSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_panels: int = 400
    r_max: float | None = None  # None: choose from the decay of f
    experimental_dim: bool = False  # allow 0 < d < 1, no accuracy contract


_DEFAULT_SETTINGS = TransformSettings()


def _check_dim(d: float, settings: TransformSettings) -> float:
    d = float(d)
    if d >= 1.0:
        return d
    if settings.experimental_dim and d > 0.0:
        return d
    raise DomainError(
        f"dimension parameter must be >= 1 (got {d!r}); "
        "0 < d < 1 requires TransformSettings(experimental_dim=True)"
    )


# -- scalar special functions --------------------------------------------


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_fn requires x > 0, got {x!r}")
    return math.gamma(x)


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
    x = abs(z)
    y = 2.0 * math.sqrt(x)
    log_front = math.lgamma(a) - 0.5 * (a - 1.0) * math.log(x)
    if z < 0:
        return math.exp(log_front) * float(special.jv(a - 1.0, y))
    return math.exp(log_front + y) * float(special.ive(a - 1.0, y))


# -- closed-form transform ------------------------------------------------


def ft_gausspoly(f: GaussPoly, d: float, settings: TransformSettings = _DEFAULT_SETTINGS) -> GaussPoly:
    """Exact transform of a Gaussian-polynomial profile, again a GaussPoly.

    Each r^{2k} e^{-alpha r^2} maps to (-d/dalpha)^k of (pi/alpha)^{d/2}
    e^{-pi^2 p^2/alpha}; the derivative is tracked as a polynomial in
    u = 1/alpha and beta = pi^2 p^2, so only the final substitution rounds.
    """
    d = _check_dim(d, settings)
    s = 0.5 * d
    out: dict[tuple[int, float], float] = {}
    for c, k, alpha in f.terms:
        # Q[i][j]: coefficient of u^i beta^j; operator for one -d/dalpha:
        #   Q -> s u Q + u^2 dQ/du - beta u^2 Q
        Q = {(0, 0): 1.0}
        for _ in range(k):
            nxt: dict[tuple[int, int], float] = {}
            for (i, j), v in Q.items():
                nxt[(i + 1, j)] = nxt.get((i + 1, j), 0.0) + (s + i) * v
                nxt[(i + 2, j + 1)] = nxt.get((i + 2, j + 1), 0.0) - v
            Q = nxt
        u = 1.0 / alpha
        front = c * math.pi**s * u**s
        new_alpha = math.pi**2 * u
        by_j: dict[int, list[float]] = {}
        for (i, j), v in Q.items():
            by_j.setdefault(j, []).append(v * u**i)
        for j, parts in by_j.items():
            coef = front * math.fsum(parts) * math.pi ** (2 * j)
            key = (j, new_alpha)
            out[key] = out.get(key, 0.0) + coef
    terms = tuple((v, k, alpha) for (k, alpha), v in sorted(out.items()))
    return GaussPoly(terms=terms)


def ft_closed(f: GaussPoly, p: float, d: float,
              settings: TransformSettings = _DEFAULT_SETTINGS) -> float:
    """Closed-form transform value at radius p >= 0."""
    p = float(p)
    if p < 0:
        raise DomainError(f"p must be nonnegative, got {p!r}")
    return ft_gausspoly(f, d, settings).eval(p)


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


def eigen_residual(f: GaussPoly, p: float, d: float, n: int = 1,
                   settings: TransformSettings = _DEFAULT_SETTINGS) -> float:
    """|ft(laplacian^n f)(p) - (-4 pi^2 p^2)^n ft(f)(p)|, zero in exact arithmetic."""
    lhs = ft_closed(laplacian_d(f, d, n), p, d, settings)
    rhs = (-4.0 * math.pi**2 * p * p) ** n * ft_closed(f, p, d, settings)
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
    total = 0.0
    for c, k, alpha in _tail_envelope(f):
        a = k + 0.5 * d
        total += c * 0.5 * math.gamma(a) * float(special.gammaincc(a, alpha * R * R)) / alpha**a
    return total


def _choose_r_max(f: RadialFunction, d: float, budget: float,
                  settings: TransformSettings) -> float:
    if settings.r_max is not None:
        return float(settings.r_max)
    rate = min(alpha for _, _, alpha in _tail_envelope(f))
    R = max(2.0, 2.0 / math.sqrt(rate))
    for _ in range(60):
        if _radial_tail(f, R, d) < budget:
            return R
        R *= 1.5
    raise ToleranceNotMet(f"could not bound the radial tail below {budget!r}")


def ft_quadrature(f: RadialFunction, p: float, d: float,
                  settings: TransformSettings = _DEFAULT_SETTINGS) -> FTResult:
    """Numerical transform value with an error estimate.

    Adaptive Gauss-Kronrod panels on [0, R] with breakpoints at the kernel
    oscillation scale ~1/(2p); R is chosen so the neglected tail stays
    below a tenth of the absolute tolerance and enters the error estimate.
    """
    p = float(p)
    if p < 0:
        raise DomainError(f"p must be nonnegative, got {p!r}")
    d = _check_dim(d, settings)
    a = 0.5 * d
    prefactor = 2.0 * math.pi**a / math.gamma(a)
    tail_budget = 0.1 * settings.abs_tol / prefactor
    R = _choose_r_max(f, d, tail_budget, settings)
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
    limit = max(settings.max_panels, (len(points) if points is not None else 0) + 10)
    res = integrate.quad(
        integrand, 0.0, R,
        epsabs=0.5 * settings.abs_tol / prefactor,
        epsrel=0.25 * settings.rel_tol,
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
        if err > settings.abs_tol:
            raise ToleranceNotMet(f"quadrature did not converge: {res[3].strip()}")
    elif err > max(settings.abs_tol, settings.rel_tol * abs(value)):
        raise ToleranceNotMet(
            f"achieved error {err:.3e} above requested tolerance "
            f"(abs {settings.abs_tol:.1e}, rel {settings.rel_tol:.1e})"
        )
    return FTResult(value, err)


def _kernel(a: float, x: np.ndarray) -> np.ndarray:
    """0F1(a; -x^2) on an array of x >= 0.

    Gamma(a) x^{1-a} J_{a-1}(2x), the Bessel relation ``hyp0f1`` uses past
    its series range, on the whole axis: ``special.jv`` keeps its relative
    accuracy as x -> 0, where ``special.hyp0f1`` loses up to 4e-12 at a = 1/2.
    At d = 2 the kernel is J_0(2x), and ``special.j0`` is six times faster.
    """
    if a == 1.0:
        return special.j0(2.0 * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = math.gamma(a) * x ** (1.0 - a) * special.jv(a - 1.0, 2.0 * x)
    return np.where(x == 0.0, 1.0, k)


def _composite_rule(R: float, panels: int, d: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an n-point rule for int_0^R g(r) r^{d-1} dr, g smooth.

    Gauss-Jacobi on the first panel takes r^{d-1} as its weight, so the
    branch point at r = 0 is integrated exactly; Gauss-Legendre on the
    other panels, with r^{d-1} folded into the weights.
    """
    h = R / panels
    xj, wj = special.roots_jacobi(n, 0.0, d - 1.0)
    xg, wg = special.roots_legendre(n)
    rest = (h * np.arange(1, panels)[:, None] + 0.5 * h * (1.0 + xg)).ravel()
    nodes = np.concatenate([0.5 * h * (1.0 + xj), rest])
    weights = np.concatenate([
        (0.5 * h) ** d * wj,
        np.tile(0.5 * h * wg, panels - 1) * rest ** (d - 1.0),
    ])
    return nodes, weights


def ft_quadrature_many(f: RadialFunction, ps: Sequence[float], d: float,
                       settings: TransformSettings = _DEFAULT_SETTINGS
                       ) -> tuple[np.ndarray, np.ndarray]:
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
    d = _check_dim(d, settings)
    if ps.size == 0:
        return np.zeros(0), np.zeros(0)
    a = 0.5 * d
    prefactor = 2.0 * math.pi**a / math.gamma(a)
    R = _choose_r_max(f, d, 0.1 * settings.abs_tol / prefactor, settings)
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
    over = np.flatnonzero(errors > np.maximum(settings.abs_tol, settings.rel_tol * np.abs(values)))
    if over.size:
        i = over[0]
        raise ToleranceNotMet(
            f"shared-grid error {errors[i]:.3e} at p = {float(ps[i])!r} above requested "
            f"tolerance (abs {settings.abs_tol:.1e}, rel {settings.rel_tol:.1e})"
        )
    return values, errors
