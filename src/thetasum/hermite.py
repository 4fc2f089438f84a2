"""Orthonormal Hermite functions and Gaussian expansion coefficients.

h_n(x) = e^{-x^2/2} H_n(x) / sqrt(sqrt(pi) 2^n n!) with the physicists'
H_n, evaluated through the normalized three-term recurrence (raw H_n
overflows past n ~ 150).  ``gaussian_hermite_coeff`` carries the closed
form for <e^{-alpha x^2}, h_n>; the quadrature route exists to check it
and to expand arbitrary profiles.  Only the quadrature route loads scipy.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, IllConditioned, ToleranceNotMet


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
    """<f, h_n> by adaptive quadrature over the effective support of h_n."""
    from scipy import integrate

    n = int(n)
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if x_max is None:
        x_max = math.sqrt(2.0 * n + 1.0) + 12.0
    res = integrate.quad(
        lambda x: f(x) * hermite_h(n, x),
        -x_max, x_max,
        epsabs=0.1 * abs_tol, epsrel=1e-12, limit=300, points=[0.0],
        full_output=1,
    )
    val, err = res[0], res[1]
    if len(res) > 3 or err > abs_tol:
        raise ToleranceNotMet(
            f"quadrature error {err:.3e} above requested {abs_tol:.3e}"
        )
    return val


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
