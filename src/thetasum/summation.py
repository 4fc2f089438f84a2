"""Two-sided shell sums and the summation-identity verdict.

The identity under test equates the weighted shell sum of a radial
profile with the dual-spec shell sum of its transform:

    sum_l N_l f(sqrt(A_l))  =  sum_l N*_l ft(sqrt(A*_l)).

Both sides are truncated with explicit tail bounds; ``verify`` packages
the residual together with every error source that was accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import theta as th
from . import transform as tr
from .errors import CoefficientOverflow, DomainError, ToleranceNotMet
from .theta import ThetaSpec
from .transform import GaussPoly, RadialFunction, Sampled

_EPS_FLOOR = 2.0**-50
# verify's PASS allowance, in units of the two tails plus the error budget
_PASS_MULTIPLIER = 10.0


class ShellSum(NamedTuple):
    value: float
    L_used: int     # the order L at which the doubling stopped, the unit L_cap caps
    tail: float
    abs_sum: float  # sum of |term| magnitudes, for rounding floors
    budget: float   # accumulated transform error estimates
    shells: tuple   # (l, A_l, N_l, term) arrays over the summed nonzero shells, by A_l;
                    # the first three are the cached side's, read-only


def _poly_gauss_tail(log_C: float, n: float, A0: float, h: float, alpha: float) -> float:
    """Bound on sum_{j>=0} e^{log_C} (A0 + j h)^n e^{-alpha (A0 + j h)} by ratio
    majorant, in logs; inf where the ratio is >= 1 or the bound is past the doubles."""
    log_r = n * math.log1p(h / A0) - alpha * h
    if log_r >= 0.0:
        return math.inf
    try:
        return math.exp(log_C + n * math.log(A0) - alpha * A0) / -math.expm1(log_r)
    except OverflowError:
        return math.inf


def _majorant(f: RadialFunction, d: float):
    """Tail estimator: sum_{l > trunc} |N_l| env(A_l) with |N_l| <= C A^d.

    env is the incomplete-gamma envelope of f.  Each term of the spec adds
    its own tail, on its own grid, with the side's log C of its term
    (``theta._coeff_growth``), in logs.  A term with no nonzero shell, or an
    envelope term with c = 0, adds none.
    """
    if not isinstance(f, (GaussPoly, Sampled)):
        raise TypeError("radial profile must be GaussPoly or Sampled")
    envelope = [(math.log(c), k, alpha) for c, k, alpha in tr._tail_envelope(f) if c > 0.0]

    def tail(side, terms, errors):
        total = 0.0
        for h, top, log_C in zip(side.step, side.top, side.log_C):
            if log_C is None:
                continue
            for log_c, k, alpha in envelope:
                total += _poly_gauss_tail(log_C + log_c, d + k, top + h, h, alpha)
        return total, False

    return tail


def _fsum(values) -> float:
    """``math.fsum`` of finite values; a sum past the doubles raises ``CoefficientOverflow``."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise CoefficientOverflow("shell sum overflows the doubles") from None


def _measured_decay(side, terms, errors):
    """Tail estimator from the term mass of two adjacent wide windows.

    The remainder is extrapolated geometrically from the windows' ratio.
    Power-law decay keeps the ratio near one and forces further doubling;
    transformed profiles with genuine Gaussian tails accept quickly.  When
    the windows hold no more mass than the transform's error estimates
    allow, they hold rounding noise, doubling cannot shrink it, and the
    second value (the noise floor) is True.  The windows end at the least
    reliable exponent of the terms.
    """
    top = min(side.top)
    width = max(1.0, top / 8.0)
    near = side.A > top - width
    far = (side.A > top - 2.0 * width) & ~near
    w_near = _fsum(np.abs(terms[near]))
    w_far = _fsum(np.abs(terms[far]))
    if w_near + w_far <= math.fsum(errors[near | far]):
        return w_near + w_far, True
    if w_near == 0.0:
        return 10.0 * w_far, False
    if w_near < w_far:
        ratio = w_near / w_far
        return 10.0 * w_near * ratio / (1.0 - ratio), False
    return math.inf, False


def _exact(f: RadialFunction):
    """Profile values at the shell radii, with zero error estimates."""
    return lambda radii: (f.eval(radii), np.zeros(radii.size))


def _shared_grid(f: Sampled, d: float):
    """Transform values and error estimates from ``ft_quadrature_many``.

    The memo is keyed by the radius itself: each call transforms, on one
    grid and in the order given, only the radii not seen before.  The
    shell sum passes distinct radii, bit for bit the same at every doubling.
    """
    cache: dict[float, tuple[float, float]] = {}  # radius -> (value, error)

    def transformed(radii):
        ps = radii.tolist()
        new = [p for p in ps if p not in cache]
        if new:
            values, errors = tr.ft_quadrature_many(f, new, d)
            cache.update(zip(new, zip(values.tolist(), errors.tolist())))
        return np.array([cache[p] for p in ps]).reshape(-1, 2).T

    return transformed


def _sum_shells(spec: ThetaSpec, tol: float, L_cap: int, profile, tail_of) -> ShellSum:
    """Shell sum of ``profile`` over spec, doubling the order from min(32, L_cap)
    until the tail is < tol/10.

    The shells at each order are ``theta.side(spec, L)``: the nonzero
    points of ``theta.shells``, each term on the grid its recurrence runs
    on, sorted by exponent, with their distinct radii and each term's growth
    constant.  The process keeps each side in its cache next to the term
    builders, so a later sum of the same spec at the same order (the same
    spec under another profile) does only the profile's work; a builder
    grows only past the order an earlier sum reached (the theta3^d term on
    both sides of ``verify``).

    ``profile(radii) -> (values, errors)`` gives the summand's profile,
    once per distinct radius; ``tail_of(side, terms, errors) -> (tail,
    at_floor)`` estimates the truncated remainder from the side's per-term
    steps, last computed exponents and growth constants, and at_floor stops
    the doubling where it cannot help.  The sum, its magnitude and its
    error budget are exactly rounded (``math.fsum``); ``L_used`` is the
    order L the doubling stopped at.  A tol that is not a finite positive
    real (a bool is not one), or an L_cap that is not an integer >= 1,
    raises ``DomainError`` before any build; a shell term N f(r), or a sum
    of finite terms, that overflows raises
    ``CoefficientOverflow``.
    """
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if not isinstance(L_cap, (int, np.integer)) or isinstance(L_cap, bool):
        raise DomainError(f"L_cap must be an integer, got {L_cap!r}")
    if L_cap < 1:
        raise DomainError(f"L_cap must be >= 1, got {L_cap!r}")
    L = min(32, L_cap)
    while True:
        side = th.side(spec, L)
        values, errors = profile(side.radii)
        if side.at is not None:
            values, errors = values[side.at], errors[side.at]
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = bad[0]
            raise DomainError(
                f"radial profile is {values[i]} at r = {float(np.sqrt(side.A[i]))!r}")
        with np.errstate(over="ignore"):  # refused just below
            terms = side.N * values
        bad = np.flatnonzero(~np.isfinite(terms))
        if bad.size:
            i = bad[0]
            raise CoefficientOverflow(
                f"shell term N f(r) overflows at r = {float(np.sqrt(side.A[i]))!r}")
        errors = np.abs(side.N) * errors
        tail, at_floor = tail_of(side, terms, errors)
        if tail < 0.1 * tol:
            return ShellSum(_fsum(terms), L, tail, _fsum(np.abs(terms)), math.fsum(errors),
                            (side.l, side.A, side.N, terms))
        if at_floor or L >= L_cap:
            where = "at the transform's noise floor" if at_floor else f"at order cap {L_cap}"
            raise ToleranceNotMet(f"shell-sum tail {tail:.3e} still above {0.1 * tol:.3e} {where}")
        L = min(2 * L, L_cap)


def lhs_sum(spec: ThetaSpec, f: RadialFunction, tol: float, *,
            L_cap: int = 4096) -> ShellSum:
    """Direct-side shell sum, truncated where the majorant tail is < tol/10."""
    return _sum_shells(spec, tol, L_cap, _exact(f), _majorant(f, spec.dim_d))


def rhs_sum(spec: ThetaSpec, f: RadialFunction, tol: float, *,
            L_cap: int = 4096) -> ShellSum:
    """Dual-side shell sum of the transformed profile.

    Gaussian-polynomial profiles go through the closed-form transform
    (again a GaussPoly, so the majorant tail applies).  Sampled profiles
    are transformed with ``ft_quadrature_many``: at each doubling of the
    order, the radii not seen before share one quadrature grid.  The sum
    is truncated by measured decay (reported, heuristic), and stops early
    once the decay windows hold no more than the transform's own error
    estimates, its noise floor.
    """
    dspec = th.dual(spec)
    d = spec.dim_d
    if isinstance(f, GaussPoly):
        fhat = tr.ft_gausspoly(f, d)
        return _sum_shells(dspec, tol, L_cap, _exact(fhat), _majorant(fhat, d))
    return _sum_shells(dspec, tol, L_cap, _shared_grid(f, d), _measured_decay)


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


def verify(spec: ThetaSpec, f: RadialFunction, tol: float = 1e-10, *,
           L_cap: int = 4096, with_table: bool = False) -> VerificationReport:
    """Check the summation identity for (spec, f) at tolerance tol.

    PASS iff residual <= tol + _PASS_MULTIPLIER * (tail_lhs + tail_rhs +
    error budget), where the budget collects quadrature error estimates
    and an explicit rounding floor proportional to the summed magnitudes.
    The multiplier 10 absorbs correlated rounding across many shells.
    """
    left = lhs_sum(spec, f, tol, L_cap=L_cap)
    right = rhs_sum(spec, f, tol, L_cap=L_cap)
    residual = abs(left.value - right.value)
    # each addend is scaled first, so the floor is finite where its addends are
    floor = sum(_EPS_FLOOR * x for x in (left.abs_sum, right.abs_sum,
                                          abs(left.value), abs(right.value)))
    budget = left.budget + right.budget + floor
    passed = residual <= tol + _PASS_MULTIPLIER * (left.tail + right.tail + budget)
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
        per_term_table=_term_table(left, right) if with_table else None,
    )


def _term_table(left: ShellSum, right: ShellSum) -> tuple:
    """Leading diagnostic rows: the summed shells with A_l <= 16 of both sides."""
    rows = []
    for side, shells in (("lhs", left.shells), ("rhs", right.shells)):
        for l, A, N, term in zip(*(column.tolist() for column in shells)):
            if A > 16.0:
                break
            rows.append({"side": side, "l": l, "A": A, "N": N, "term": term})
    return tuple(rows)
