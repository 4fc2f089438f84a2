"""Orthonormal Hermite functions and Gaussian expansion coefficients.

h_n(x) = e^{-x^2/2} H_n(x) / sqrt(sqrt(pi) 2^n n!) with the physicists'
H_n, evaluated through the normalized three-term recurrence (raw H_n
overflows past n ~ 150).  ``gaussian_hermite_coeff`` carries the closed
form for <e^{-alpha x^2}, h_n>; the quadrature route exists to check it
and to expand arbitrary profiles.  Both run on numpy alone.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, IllConditioned, ToleranceNotMet
from .transform import _RULE_ORDERS

_PANEL_CAP = 400


def hermite_h(n: int, x):
    """Orthonormal Hermite function h_n at x (scalar or array).

    Recurrence: h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2}.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    xa = np.asarray(x, dtype=np.float64)
    h_prev = np.pi**-0.25 * np.exp(-0.5 * xa * xa)
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
    Requires alpha > -1/2 for integrability.
    """
    alpha = float(alpha)
    n = int(n)
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if not (math.isfinite(alpha) and alpha > -0.5):
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


def hermite_coeff_quadrature(f: Callable[[float], float], n: int,
                             abs_tol: float = 1e-11,
                             x_max: float | None = None) -> float:
    """<f, h_n> by adaptive composite Gauss-Legendre quadrature on [-x_max, x_max].

    x_max defaults to the effective support of h_n, sqrt(2n + 1) + 12.
    The interval starts as panels about 1 wide with x = 0 an edge, so a kink
    or jump at 0 is integrated exactly.  Two Gauss-Legendre rules of
    different order (``transform._RULE_ORDERS``) run on each panel, f is
    evaluated once per node, and a panel's error estimate is the difference
    of the two rules; a half of a bisected panel takes at least half the
    change the bisection made to its parent's value, so the two rules
    agreeing by chance on a half does not end the search.  The total
    estimate adds a rounding floor of 2^-50 times the absolute sum of the
    terms.  Each round bisects the panels whose estimate is above their
    share (by width) of 0.1 abs_tol, until the total is at most 0.1 abs_tol;
    ToleranceNotMet if it is still above abs_tol when a round would pass
    ``_PANEL_CAP`` panels.  A jump or kink away from x = 0 is not guaranteed
    to meet abs_tol: within 0.7% of a panel's width of its edge it lies
    outside both rules' nodes, and neither rule sees it.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    abs_tol = float(abs_tol)
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be finite and positive, got {abs_tol!r}")
    x_max = math.sqrt(2.0 * n + 1.0) + 12.0 if x_max is None else float(x_max)
    if not (math.isfinite(x_max) and x_max > 0.0):
        raise DomainError(f"x_max must be finite and positive, got {x_max!r}")

    budget = 0.1 * abs_tol
    half = np.linspace(0.0, x_max, max(1, math.ceil(x_max)) + 1)
    edges = np.concatenate([-half[:0:-1], half])
    lo, hi = edges[:-1], edges[1:]
    sums = _panel_sums(f, n, lo, hi)
    while True:
        total = sums[:, 1].sum() + 2.0**-50 * sums[:, 2].sum()
        if total <= budget:
            break
        split = sums[:, 1] > budget * (hi - lo) / (2.0 * x_max)
        if not split.any() or lo.size + np.count_nonzero(split) > _PANEL_CAP:
            if total > abs_tol:
                raise ToleranceNotMet(
                    f"quadrature error {total:.3e} above requested {abs_tol:.3e}"
                )
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


def _panel_sums(f: Callable[[float], float], n: int,
                lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per panel [lo, hi] of f h_n: the higher-order rule's value, the
    difference of the two rules, and the higher-order rule's absolute sum."""
    from numpy.polynomial.legendre import leggauss

    (x_lo, w_lo), (x_hi, w_hi) = (leggauss(k) for k in _RULE_ORDERS)
    x = np.concatenate([x_lo, x_hi])
    # one column per rule, zero on the other rule's nodes
    w = np.zeros((x.size, 2))
    w[:x_lo.size, 0] = w_lo
    w[x_lo.size:, 1] = w_hi
    half = 0.5 * (hi - lo)[:, None]
    nodes = 0.5 * (lo + hi)[:, None] + half * x
    fv = np.array([f(t) for t in nodes.ravel().tolist()], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        i = bad[0]
        raise DomainError(f"profile is {fv[i]} at x = {float(nodes.flat[i])!r}")
    g = fv.reshape(nodes.shape) * hermite_h(n, nodes)
    q = half * (g @ w)
    mags = half[:, 0] * (np.abs(g) @ w[:, 1])
    return np.column_stack([q[:, 1], np.abs(q[:, 1] - q[:, 0]), mags])


class FitResult(NamedTuple):
    coeffs: np.ndarray
    sup_err: float
    condition: float


def gaussian_span_fit(f: Callable[[float], float], alphas: Sequence[float],
                      x_max: float = 6.0, n_grid: int = 401,
                      regularization: float = 1e-12,
                      cond_cap: float | None = None) -> FitResult:
    """Least-squares fit of an even profile by sum_j c_j e^{-alpha_j x^2}.

    Tikhonov-regularized (Gaussian families are near-degenerate by
    design); the condition number of the raw design matrix is reported.
    With cond_cap set and exceeded while regularization is zero the fit
    refuses with IllConditioned rather than return noise.
    """
    alphas = np.asarray(list(alphas), dtype=np.float64)
    if alphas.size == 0 or np.any(alphas <= 0):
        raise DomainError("alphas must be a nonempty list of positive rates")
    x = np.linspace(0.0, x_max, int(n_grid))
    A = np.exp(-np.outer(x * x, alphas))
    y = np.array([f(float(xi)) for xi in x])
    condition = float(np.linalg.cond(A))
    if cond_cap is not None and condition > cond_cap and regularization == 0.0:
        raise IllConditioned(
            f"design matrix condition {condition:.3e} exceeds cap {cond_cap:.3e}",
            condition,
        )
    lam = float(regularization)
    if lam > 0.0:
        A_aug = np.vstack([A, lam * np.eye(alphas.size)])
        y_aug = np.concatenate([y, np.zeros(alphas.size)])
    else:
        A_aug, y_aug = A, y
    coeffs, *_ = np.linalg.lstsq(A_aug, y_aug, rcond=None)
    resid = A @ coeffs - y
    return FitResult(coeffs=coeffs, sup_err=float(np.max(np.abs(resid))), condition=condition)
