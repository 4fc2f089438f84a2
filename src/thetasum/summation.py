"""Two-sided shell sums and the summation-identity verdict.

The identity under test equates the weighted shell sum of a radial
profile with the dual-spec shell sum of its transform:

    sum_l N_l f(sqrt(A_l))  =  sum_l N*_l ft(sqrt(A*_l)).

Both sides are truncated with explicit tail bounds; ``verify`` packages
the residual together with every error source that was accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import theta as th
from . import transform as tr
from . import qseries as qs
from .errors import DomainError, ToleranceNotMet
from .theta import ThetaSpec
from .transform import GaussPoly, RadialFunction, Sampled, TransformSettings

_EPS_FLOOR = 2.0**-50


class ShellSum(NamedTuple):
    value: float
    L_used: int
    tail: float
    abs_sum: float  # sum of |term| magnitudes, for rounding floors
    budget: float   # accumulated transform error estimates


def _poly_gauss_tail(C: float, n: float, A0: float, h: float, alpha: float) -> float:
    """Bound on sum_{j>=0} C (A0 + j h)^n e^{-alpha (A0 + j h)} by ratio majorant."""
    if C == 0.0:
        return 0.0
    t0 = C * max(A0, 1e-300) ** n * math.exp(-alpha * A0)
    r = ((A0 + h) / A0) ** n * math.exp(-alpha * h) if A0 > 0 else 1.0
    if r >= 1.0:
        return math.inf
    return t0 / (1.0 - r)


def _coeff_growth(series: qs.QSeries, d: float) -> float:
    """Measured constant C with |N_l| <= C max(A_l, 1)^d on the built range."""
    A = np.maximum(series.exponents(), 1.0)
    mags = np.abs(series.coeffs)
    return 4.0 * float(np.max(mags / A**d))


def _series_tail(series: qs.QSeries, d: float, envelope) -> float:
    """Tail bound for sum_{l > trunc} |N_l| env(A_l) with |N_l| <= C A^d."""
    C = _coeff_growth(series, d)
    h = 1.0 / series.denom_V
    A_next = series.reliable_exponent() + h
    total = 0.0
    for c, k, alpha in envelope:
        total += _poly_gauss_tail(C * c, d + k, A_next, h, alpha)
    return total


def lhs_sum(spec: ThetaSpec, f: RadialFunction, tol: float,
            L_cap: int = 4096) -> ShellSum:
    """Direct-side shell sum, truncated so the bounded tail is < tol/10."""
    return _shell_sum(spec, f, tol, L_cap)


def _shell_sum(spec: ThetaSpec, fn: RadialFunction, tol: float, L_cap: int) -> ShellSum:
    d = spec.dim_d
    if not isinstance(fn, (GaussPoly, Sampled)):
        raise TypeError("radial profile must be GaussPoly or Sampled")
    envelope = tr._tail_envelope(fn)
    L = 32
    while True:
        series = th.build(spec, L)
        tail = _series_tail(series, d, envelope)
        if tail < 0.1 * tol:
            radii = np.sqrt(series.exponents())
            vals = fn.eval(radii)
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                i = bad[0]
                raise DomainError(f"radial profile is {vals[i]} at r = {float(radii[i])!r}")
            terms = series.coeffs * vals
            value = math.fsum(terms)
            abs_sum = math.fsum(np.abs(terms))
            return ShellSum(value, series.trunc_L, tail, abs_sum, 0.0)
        if L >= L_cap:
            raise ToleranceNotMet(
                f"shell-sum tail {tail:.3e} still above {0.1 * tol:.3e} at order cap {L_cap}"
            )
        L = min(2 * L, L_cap)


def rhs_sum(spec: ThetaSpec, f: RadialFunction, tol: float,
            settings: TransformSettings = tr._DEFAULT_SETTINGS,
            L_cap: int = 4096) -> ShellSum:
    """Dual-side shell sum of the transformed profile.

    Gaussian-polynomial profiles go through the closed-form transform
    (again a GaussPoly, so the rigorous tail machinery applies).  Sampled
    profiles are transformed with ``ft_quadrature_many``: at each doubling
    of the order, the radii not seen before share one quadrature grid.  The
    sum is truncated by measured decay (reported, heuristic), and stops
    early once the decay windows hold no more than the transform's own
    error estimates, its noise floor.
    """
    dspec = th.dual(spec)
    d = spec.dim_d
    if isinstance(f, GaussPoly):
        fhat = tr.ft_gausspoly(f, d, settings)
        return _shell_sum(dspec, fhat, tol, L_cap)

    cache: dict[float, tuple[float, float]] = {}  # round(p, 12) -> (value, error)
    L = 32
    while True:
        series = th.build(dspec, L)
        nz = np.flatnonzero(series.coeffs)
        exps = series.exponents()[nz]
        coeffs = series.coeffs[nz]
        keys = [round(p, 12) for p in np.sqrt(exps).tolist()]
        new = sorted(set(keys).difference(cache))
        if new:
            values, errors = tr.ft_quadrature_many(f, new, d, settings)
            cache.update(zip(new, zip(values.tolist(), errors.tolist())))
        fhat = np.array([cache[k] for k in keys]).reshape(-1, 2)
        terms = coeffs * fhat[:, 0]
        weighted_err = np.abs(coeffs) * fhat[:, 1]
        value = math.fsum(terms)
        abs_sum = math.fsum(np.abs(terms))
        budget = math.fsum(weighted_err)
        # measured-decay cutoff: compare term mass in two adjacent wide
        # windows and extrapolate the remainder geometrically.  Power-law
        # decay keeps the ratio near one and forces further doubling;
        # transformed profiles with genuine Gaussian tails accept quickly.
        top = series.reliable_exponent()
        width = max(1.0, top / 8.0)
        near = exps > top - width
        far = (exps > top - 2.0 * width) & ~near
        w_near = math.fsum(np.abs(terms[near]))
        w_far = math.fsum(np.abs(terms[far]))
        # no more mass than the transform's error estimates allow: the
        # windows hold rounding noise, and doubling cannot shrink it
        at_floor = w_near + w_far <= math.fsum(weighted_err[near | far])
        if at_floor:
            tail = w_near + w_far
        elif w_near == 0.0:
            tail = 10.0 * w_far
        elif w_near < w_far:
            ratio = w_near / w_far
            tail = 10.0 * w_near * ratio / (1.0 - ratio)
        else:
            tail = math.inf
        if tail < 0.1 * tol:
            return ShellSum(value, series.trunc_L, tail, abs_sum, budget)
        if at_floor or L >= L_cap:
            where = "at the transform's noise floor" if at_floor else f"at cap {L_cap}"
            raise ToleranceNotMet(
                f"dual-sum measured tail {tail:.3e} above {0.1 * tol:.3e} {where}"
            )
        L = min(2 * L, L_cap)


@dataclass(frozen=True)
class VerificationReport:
    """Everything verify measured, plus the verdict."""

    lhs: float
    rhs: float
    residual: float
    L_used: int
    L_star_used: int
    tail_lhs: float
    tail_rhs: float
    error_budget: float
    tol: float
    passed: bool
    per_term_table: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "L_used": self.L_used,
            "L_star_used": self.L_star_used,
            "tail_lhs": self.tail_lhs,
            "tail_rhs": self.tail_rhs,
            "pass": self.passed,
        }


def verify(spec: ThetaSpec, f: RadialFunction, tol: float = 1e-10,
           settings: TransformSettings = tr._DEFAULT_SETTINGS,
           L_cap: int = 4096, pass_multiplier: float = 10.0,
           with_table: bool = False) -> VerificationReport:
    """Check the summation identity for (spec, f) at tolerance tol.

    PASS iff residual <= tol + pass_multiplier * (tail_lhs + tail_rhs +
    error budget), where the budget collects quadrature error estimates
    and an explicit rounding floor proportional to the summed magnitudes.
    The multiplier (default 10) absorbs correlated rounding across many
    shells; it is configurable and recorded nowhere else.
    """
    left = lhs_sum(spec, f, tol, L_cap)
    right = rhs_sum(spec, f, tol, settings, L_cap)
    residual = abs(left.value - right.value)
    floor = _EPS_FLOOR * (left.abs_sum + right.abs_sum + abs(left.value) + abs(right.value))
    budget = left.budget + right.budget + floor
    passed = residual <= tol + pass_multiplier * (left.tail + right.tail + budget)

    table = None
    if with_table:
        table = _term_table(spec, f, settings)
    return VerificationReport(
        lhs=left.value,
        rhs=right.value,
        residual=residual,
        L_used=left.L_used,
        L_star_used=right.L_used,
        tail_lhs=left.tail,
        tail_rhs=right.tail,
        error_budget=budget,
        tol=tol,
        passed=passed,
        per_term_table=table,
    )


def _term_table(spec: ThetaSpec, f: RadialFunction,
                settings: TransformSettings) -> tuple:
    """Leading diagnostic rows (first shells of both sides)."""
    d = spec.dim_d
    rows = []
    for side, sp in (("lhs", spec), ("rhs", th.dual(spec))):
        s = th.build(sp, 16)
        exps = s.exponents()
        radii = np.sqrt(exps)
        if side == "lhs":
            vals = f.eval(radii)
        elif isinstance(f, GaussPoly):
            vals = tr.ft_gausspoly(f, d, settings).eval(radii)
        else:
            vals = tr.ft_quadrature_many(f, radii, d, settings)[0]
        for l in np.flatnonzero(s.coeffs):
            rows.append({
                "side": side,
                "l": int(l),
                "A": float(exps[l]),
                "N": float(s.coeffs[l]),
                "term": float(s.coeffs[l] * vals[l]),
            })
    return tuple(rows)
