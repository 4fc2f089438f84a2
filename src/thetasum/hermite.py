"""Orthonormal Hermite functions and Gaussian expansion coefficients.

h_n(x) = e^{-x^2/2} H_n(x) / sqrt(sqrt(pi) 2^n n!) with the physicists'
H_n, evaluated through the normalized three-term recurrence (raw H_n
overflows past n ~ 150).  ``gaussian_hermite_coeff`` carries the closed
form for <e^{-alpha x^2}, h_n>; the quadrature route exists to check it
and to expand arbitrary profiles.  Both run on numpy alone, and
``hermite-demo`` prints the one against the other.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceNotMet, _number, _points, _profile_values, _whole

_PANEL_CAP = 400
_ABS_TOL = 1e-11     # the error hermite_coeff_quadrature meets, or
_FLOOR_TIMES = 32.0  # this many times its rounding floor where that is more


def hermite_h(n: int, x):
    """Orthonormal Hermite function h_n at x (scalar or array).

    Recurrence: h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2}.  Where
    e^{-x^2/2} underflows to 0 (x infinite and x^2 past the doubles
    included), h_n is 0.0: the recurrence runs at x = 0 there.
    """
    n = _whole(n, "order", 0)
    xa = _points(x, "x")
    with np.errstate(over="ignore"):  # x^2 past the doubles: e^{-inf} is 0
        h_prev = np.pi**-0.25 * np.exp(-0.5 * xa * xa)
    xa = np.where(h_prev == 0.0, 0.0, xa)  # inf * 0 would be NaN
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h_cur = math.sqrt(2.0) * xa * h_prev
    for k in range(2, n + 1):
        h_cur, h_prev = (
            math.sqrt(2.0 / k) * xa * h_cur - math.sqrt((k - 1) / k) * h_prev,
            h_cur,
        )
    return h_cur if h_cur.ndim else float(h_cur)


def gaussian_hermite_coeff(alpha: float, n: int) -> float:
    """<e^{-alpha x^2}, h_n> in closed form; zero for odd n.

    With beta = 1/(alpha + 1/2):

        a_{2m} = sqrt(pi beta) (2m)!/m! (beta-1)^m / sqrt(sqrt(pi) 2^{2m} (2m)!)

    (validated against the quadrature route; see the paired tests).
    Requires a real alpha > -1/2 for integrability.
    """
    alpha = _number(alpha, "alpha")
    n = _whole(n, "order", 0)
    if not -0.5 < alpha < math.inf:
        raise DomainError(f"alpha must exceed -1/2, got {alpha!r}")
    if n % 2 == 1:
        return 0.0
    m = n // 2
    beta = 1.0 / (alpha + 0.5)
    if m == 0:
        return math.sqrt(math.pi * beta) * math.pi**-0.25
    if beta == 1.0:
        return 0.0
    # log-space magnitude: sqrt(pi beta) * (2m)!/(m! sqrt(sqrt(pi) 4^m (2m)!)) * |beta-1|^m
    log_mag = (
        0.5 * math.log(math.pi * beta)
        - 0.25 * math.log(math.pi)
        - m * math.log(2.0)
        + 0.5 * math.lgamma(2 * m + 1)
        - math.lgamma(m + 1)
        + m * math.log(abs(beta - 1.0))
    )
    sign = 1.0 if (beta > 1.0 or m % 2 == 0) else -1.0
    return sign * math.exp(log_mag)


def hermite_coeff_quadrature(f: Callable[[float], float], n: int) -> float:
    """<f, h_n> by adaptive composite Gauss-Legendre quadrature on [-x_max, x_max],
    x_max = sqrt(2n + 1) + 12, the effective support of h_n.

    The interval starts as panels about 1 wide with x = 0 an edge, so a kink
    or jump at 0 is integrated exactly.  Two Gauss-Legendre rules of
    different order (``_rules``) run on each panel, f is
    evaluated once per node, and a panel's error estimate is the difference
    of the two rules; a half of a bisected panel takes at least half the
    change the bisection made to its parent's value, so the two rules
    agreeing by chance on a half does not end the search.  The total
    estimate adds a rounding floor of 2^-50 times the absolute sum of the
    terms, and the error is held to tol = max(``_ABS_TOL``, 32 floor): a
    profile of large amplitude is held to 32 times the rounding it cannot
    avoid, not to an absolute 1e-11 that its floor alone exceeds (32 leaves
    the search's aim, a tenth of tol, room above the floor for the rules'
    own rounding: at 10, constants of 1000 to 1e6 were bisected on
    rounding noise alone).  Each
    round bisects the panels whose estimate is above their share (by width)
    of 0.1 tol, until the total is at most that; ToleranceNotMet if it is
    still above tol when a round would pass ``_PANEL_CAP`` panels.  A jump
    or kink away from x = 0 is not guaranteed to meet tol: within 0.7% of a
    panel's width of its edge it lies outside both rules' nodes, and
    neither rule sees it.
    """
    n = _whole(n, "order", 0)
    x_max = math.sqrt(2.0 * n + 1.0) + 12.0

    half = np.linspace(0.0, x_max, max(1, math.ceil(x_max)) + 1)
    edges = np.concatenate([-half[:0:-1], half])
    lo, hi = edges[:-1], edges[1:]
    sums = _panel_sums(f, n, lo, hi)
    while True:
        floor = 2.0**-50 * sums[:, 2].sum()
        tol = max(_ABS_TOL, _FLOOR_TIMES * floor)
        total = sums[:, 1].sum() + floor
        if total <= 0.1 * tol:
            break
        split = sums[:, 1] > 0.1 * tol * (hi - lo) / (2.0 * x_max)
        if not split.any() or lo.size + np.count_nonzero(split) > _PANEL_CAP:
            if total > tol:
                raise ToleranceNotMet(f"quadrature error {total:.3e} above requested {tol:.3e}")
            break
        mid = 0.5 * (lo + hi)[split]
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        halves = _panel_sums(f, n, new_lo, new_hi)
        # a half's estimate is at least half the change its bisection made
        k = mid.size
        change = np.abs(halves[:k, 0] + halves[k:, 0] - sums[split, 0])
        halves[:, 1] = np.maximum(halves[:, 1], np.tile(0.5 * change, 2))
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        sums = np.concatenate([sums[~split], halves])
    return math.fsum(sums[:, 0])


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rules of orders 10 and 14 on each panel of
    ``hermite_coeff_quadrature``, made once and read-only: nodes on [-1, 1],
    weights in one column per rule (zero on the other rule's nodes).  Panels
    start about 1 wide, not one kernel period as in ``_grid``, and are
    bisected until the rules agree: the difference bounds the higher rule's
    error once the lower one resolves f h_n on the panel."""
    (x_lo, w_lo), (x_hi, w_hi) = (np.polynomial.legendre.leggauss(k) for k in (10, 14))
    x = np.concatenate([x_lo, x_hi])
    w = np.zeros((x.size, 2))
    w[:x_lo.size, 0], w[x_lo.size:, 1] = w_lo, w_hi
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_sums(f: Callable[[float], float], n: int,
                lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per panel [lo, hi] of f h_n: the higher-order rule's value, the
    difference of the two rules, and the higher-order rule's absolute sum."""
    x, w = _rules()
    half = 0.5 * (hi - lo)[:, None]
    nodes = 0.5 * (lo + hi)[:, None] + half * x
    g = _profile_values(f, nodes, "profile", "x") * hermite_h(n, nodes)
    q = half * (g @ w)
    mags = half[:, 0] * (np.abs(g) @ w[:, 1])
    return np.column_stack([q[:, 1], np.abs(q[:, 1] - q[:, 0]), mags])
