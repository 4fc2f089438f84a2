"""The shared quadrature grid of the radial transform, ``ft_quadrature_many``.

On numpy and ``math`` alone: Gauss-Jacobi nodes by Golub and Welsch
(``_gauss_jacobi``), and the kernel 0F1(d/2; -x^2) from the Hankel expansion
above a start (``_hankel_panels``) and from the power series and Miller's
backward recurrence below it (``_near_kernel``).  The d, radius, tail
bound and measure come from ``transform._radial_setup``, and the
tolerances from ``transform`` too, so one pair ``_ABS_TOL``, ``_REL_TOL``
governs both quadrature routes; ``transform`` never imports this module.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import transform as tr
from .errors import DomainError, ToleranceNotMet, _points

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
# terms in all (P and Q together) up to |a - 1| = 18.5, from the start 2x
# of its first tier (``_hankel_tiers``) up, and from ``_near_kernel`` below.
# That start is never below ``_HANKEL_SWITCH``: at half-integer order the
# expansion ends, so its error bound alone would start it at 0, but at large
# such order its terms cancel below 22 (1.2e-13 of the kernel envelope for 2x
# in [16, 22] at d = 37, against 8e-15 just above), so a lower switch would
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

# Least d of ``ft_quadrature_many``, measured; below it the route loses
# r^{d-1} near r = 0 to rounding, and raises DomainError: the least node of
# its Gauss-Jacobi rule lies 2d/n^2 above -1, and below d ~ 1e-14 that is
# lost to the rounding of -1 (at d = 1e-17 the weights erred by 1.6e-13
# relative, and at d = 5.5e-15 the least node fell below -1).  2^-40 =
# 9.1e-13 keeps a factor of 90 from that, and lies under the spec floor of
# 1e-12.
_GRID_LEAST_DIM = 2.0**-40


def _kernel(a: float, x: np.ndarray) -> np.ndarray:
    """0F1(a; -x^2) on an array of x >= 0, on numpy alone at every order.

    Gamma(a) x^{1-a} J_{a-1}(2x), the Bessel relation ``hyp0f1`` uses past
    its series range.  Where 2x is at or above the start of the first tier
    of ``_hankel_tiers(a - 1)`` it comes from the Hankel expansion
    (``_hankel_panels``, on one row with offset 0); below that start from
    ``_near_kernel``, the power series and Miller's recurrence.
    ``ft_quadrature_many`` takes the kernel from here on the panels that
    reach below the start, and on the others from ``_hankel_panels``.
    """
    tier = _hankel_tiers(a - 1.0)[0]
    out = np.empty_like(x)
    far = x >= 0.5 * tier.start
    out[far] = _hankel_panels(a, tier, 2.0 * x[None, far], np.zeros((1, 1))).ravel()
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


def _hankel_panels(a: float, tier: _Tier, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Gamma(a) x^{1-a} J_nu(2x), nu = a - 1, by the Hankel expansion, at
    z = 2x = theta + phi at or above ``tier.start``, for each offset phi
    (rows, nodes) and angle theta (rows, panels) of a row: shape (rows,
    nodes, panels), the panels last so that numpy's inner loops run along
    them.

    J_nu(z) ~ sqrt(2/(pi z)) (P cos w - Q sin w), w = z - nu pi/2 - pi/4
    (``_hankel_sums``).  cos w and sin w follow from those of theta, of phi
    and of the constant angle by the addition theorem, so the phase w is
    never rounded: at z in the thousands its rounding alone would cost
    ~1e-13.  ``ft_quadrature_many`` takes z = 2 pi p r at r = h m + s as
    the panel angle theta = 2 pi p h m plus the node offset phi = 2 pi p s,
    so np.cos and np.sin run once per panel and per offset instead of once
    per entry (each costs about 30 ns an entry); ``_kernel`` passes z
    itself as theta.  Theta and phi are each rounded like z itself, the
    rounding the error floor of ``ft_quadrature_many`` budgets for the
    phase.
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
    Gamma(a)/sqrt(pi) x^{1/2-a} of ``_hankel_panels`` is this times (start/2x)^{a-1/2};
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
    rules = (*_gauss_jacobi(n, d), *np.polynomial.legendre.leggauss(n))
    for a in rules:
        a.flags.writeable = False
    return rules


def _gauss_jacobi(n: int, d: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 + x)^beta on [-1, 1], beta = d - 1 > -1.

    Golub and Welsch: the nodes are the eigenvalues of the Jacobi matrix
    of the monic recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1} of the
    Jacobi polynomials P^(0, beta) (DLMF 18.9.2).  The eigensolver leaves
    them about 1e-16 times the matrix norm off, and the eigenvectors'
    weights 5e-10 off on the smallest weight at beta = 38, so each node
    takes two Newton steps on the orthonormal polynomial q_n of the same
    recurrence, and the weights are 1/sum_{k<n} q_k^2 there: within 1e-14
    of mpmath up to beta = 63, where 1/(sqrt(b_n) q_{n-1} q_n') errs by
    1.5e-13.  Below d = 1, b_1 = 4 (1 + beta)^2 / (s_1^2 (s_1 + 1) (s_1 -
    1)) cancels: s_1 - 1 = (2 + beta) - 1 keeps d only to 2^-53 absolute,
    and b_1, about 2d, carries the second moment of the weight, on which
    the kernel's curvature 1/a acts.  There b_1 takes d itself, as 4 d /
    ((1 + d)^2 (2 + d)): with the cancelling form, ``ft_quadrature_many``
    of e^{-r^2} erred by 2.4 times its estimate at d = 1e-3 and by 1.5e-8
    at d = 1e-8.
    """
    beta = d - 1.0
    k = np.arange(n + 1, dtype=np.float64)
    s = 2.0 * k + beta
    a = np.empty(n)
    a[0] = beta / (beta + 2.0)
    a[1:] = beta * beta / (s[1:n] * (s[1:n] + 2.0))
    b = np.zeros(n + 1)
    j = 1 if beta >= 0.0 else 2
    b[j:] = 4.0 * k[j:] ** 2 * (k[j:] + beta) ** 2 / (s[j:] ** 2 * (s[j:] + 1.0) * (s[j:] - 1.0))
    if j == 2:
        b[1] = 4.0 * d / ((1.0 + d) ** 2 * (2.0 + d))
    root_b = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(root_b[1:n], 1) + np.diag(root_b[1:n], -1))
    first = (2.0**d / d) ** -0.5  # q_0: the weight integrates to 2^d/d
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


def ft_quadrature_many(f: tr.RadialFunction, ps: Sequence[float], d: float) -> tuple[np.ndarray, np.ndarray]:
    """Transform values and error estimates at many radii from one grid.

    f is evaluated once, on two composite Gauss rules of different order
    (``_RULE_ORDERS``) over the same panels of [0, R], each panel at most
    one kernel period 1/max(ps) wide; d, R, its tail bound and the measure
    come from ``transform._radial_setup``, as in ``ft_quadrature``.  The
    error estimate of each radius is the difference of the two rules, plus
    a rounding floor (a few ulps of the absolute sum, and the rounding of
    the kernel phase pi p r), plus the radial tail.

    The radii are taken in chunks of about ``_KERNEL_CHUNK`` kernel
    entries.  In a chunk, the panels on which every node lies at or above
    the Hankel start for every radius take the kernel from
    ``_hankel_panels``, each tier of ``_hankel_tiers`` on its own panels;
    the panels before them are gathered over the chunks into calls of
    ``_kernel`` of at most ``_KERNEL_CHUNK`` entries, which is where the
    recurrence below the start runs.  Both rules are applied in one
    product.
    """
    ps = _points(ps, "p", "nonnegative").ravel()
    top = float(ps.max()) if ps.size else 0.0
    d, R, tail, factor, base, rounding = tr._radial_setup(f, d, _GRID_LEAST_DIM, math.pi * top)
    if ps.size == 0:
        return np.zeros(0), np.zeros(0)
    a = 0.5 * d
    panels = max(16, math.ceil(R * top))
    h = R / panels

    offsets, nodes, wf = _composite_rule(R, panels, d, factor, base)
    wf *= f.eval(nodes.ravel()).reshape(nodes.shape)[:, :, None]
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
    over = np.flatnonzero(errors > np.maximum(tr._ABS_TOL, tr._REL_TOL * np.abs(values)))
    if over.size:
        i = over[0]
        raise ToleranceNotMet(
            f"shared-grid error {errors[i]:.3e} at p = {float(ps[i])!r} above requested "
            f"tolerance (abs {tr._ABS_TOL:.1e}, rel {tr._REL_TOL:.1e})"
        )
    return values, errors
