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
from .errors import DomainError, ToleranceNotMet
from .theta import ThetaSpec
from .transform import GaussPoly, RadialFunction, Sampled, TransformSettings

_EPS_FLOOR = 2.0**-50
# verify's PASS allowance, in units of the two tails plus the error budget
_PASS_MULTIPLIER = 10.0


class ShellSum(NamedTuple):
    value: float
    L_used: int     # largest order among the spec's terms, in index units
    tail: float
    abs_sum: float  # sum of |term| magnitudes, for rounding floors
    budget: float   # accumulated transform error estimates
    shells: tuple   # (l, A_l, N_l, term) arrays over the summed nonzero shells, by A_l


def _poly_gauss_tail(C: float, n: float, A0: float, h: float, alpha: float) -> float:
    """Bound on sum_{j>=0} C (A0 + j h)^n e^{-alpha (A0 + j h)} by ratio majorant."""
    if C == 0.0:
        return 0.0
    t0 = C * max(A0, 1e-300) ** n * math.exp(-alpha * A0)
    r = ((A0 + h) / A0) ** n * math.exp(-alpha * h) if A0 > 0 else 1.0
    if r >= 1.0:
        return math.inf
    return t0 / (1.0 - r)


def _coeff_growth(A: np.ndarray, N: np.ndarray, d: float) -> float:
    """Measured constant C with |N_l| <= C max(A_l, 1)^d on the built range."""
    return 4.0 * float(np.max(np.abs(N) / np.maximum(A, 1.0)**d, initial=0.0))


def _majorant(f: RadialFunction, d: float):
    """Tail estimator: sum_{l > trunc} |N_l| env(A_l) with |N_l| <= C A^d.

    env is the incomplete-gamma envelope of f.  Each term of the spec adds
    its own tail, on its own grid, with its own ``_coeff_growth`` C.
    """
    if not isinstance(f, (GaussPoly, Sampled)):
        raise TypeError("radial profile must be GaussPoly or Sampled")
    envelope = tr._tail_envelope(f)

    def tail(series, which, A, N, terms, errors):
        total = 0.0
        for i, s in enumerate(series):
            mine = which == i
            C = _coeff_growth(A[mine], N[mine], d)
            h = 1.0 / s.denom_V
            A_next = s.reliable_exponent() + h
            for c, k, alpha in envelope:
                total += _poly_gauss_tail(C * c, d + k, A_next, h, alpha)
        return total, False

    return tail


def _measured_decay(series, which, A, N, terms, errors):
    """Tail estimator from the term mass of two adjacent wide windows.

    The remainder is extrapolated geometrically from the windows' ratio.
    Power-law decay keeps the ratio near one and forces further doubling;
    transformed profiles with genuine Gaussian tails accept quickly.  When
    the windows hold no more mass than the transform's error estimates
    allow, they hold rounding noise, doubling cannot shrink it, and the
    second value (the noise floor) is True.  The windows end at the least
    reliable exponent of the terms.
    """
    top = min(s.reliable_exponent() for s in series)
    width = max(1.0, top / 8.0)
    near = A > top - width
    far = (A > top - 2.0 * width) & ~near
    w_near = math.fsum(np.abs(terms[near]))
    w_far = math.fsum(np.abs(terms[far]))
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


def _shared_grid(f: Sampled, d: float, settings: TransformSettings):
    """Transform values and error estimates from ``ft_quadrature_many``.

    Each call transforms only the radii not seen before, on one grid.
    """
    cache: dict[float, tuple[float, float]] = {}  # round(p, 12) -> (value, error)

    def transformed(radii):
        keys = [round(p, 12) for p in radii.tolist()]
        new = sorted(set(keys).difference(cache))
        if new:
            values, errors = tr.ft_quadrature_many(f, new, d, settings)
            cache.update(zip(new, zip(values.tolist(), errors.tolist())))
        return np.array([cache[k] for k in keys]).reshape(-1, 2).T

    return transformed


def _sum_shells(spec: ThetaSpec, tol: float, L_cap: int, profile, tail_of,
                builders: dict) -> ShellSum:
    """Shell sum of ``profile`` over spec, doubling the order from min(32, L_cap)
    until the tail is < tol/10.

    Each term of the spec is built on its own grid, and the terms' nonzero
    shells are summed side by side, sorted by exponent.  ``builders`` maps
    a term's factor tuple to its ``theta._TermBuilder``: a term grows in
    place across the doublings, and a term whose factors another sum over
    the same table already built (the theta3^d term on both sides of
    ``verify``) continues from where that sum stopped.  The term
    coefficient (times the term's 2^a prefactor) scales the built
    coefficients afterwards.

    ``profile(radii) -> (values, errors)`` gives the summand's profile,
    once per distinct radius; ``tail_of(series, which, A, N, terms,
    errors) -> (tail, at_floor)`` estimates the truncated remainder from
    the terms' series and the term index of every shell, and at_floor stops
    the doubling where it cannot help.  The sum, its magnitude and its
    error budget are exactly rounded (``math.fsum``).  A tol that is not a
    finite positive number, or an L_cap that is not an integer >= 1,
    raises ``DomainError`` before any build.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if not isinstance(L_cap, (int, np.integer)) or isinstance(L_cap, bool):
        raise DomainError(f"L_cap must be an integer, got {L_cap!r}")
    if L_cap < 1:
        raise DomainError(f"L_cap must be >= 1, got {L_cap!r}")
    terms_of = []
    for coeff, factors in spec.terms:
        if factors not in builders:
            builders[factors] = th._TermBuilder(factors)
        builder = builders[factors]
        terms_of.append((coeff * builder.prefactor, builder))
    L = min(32, L_cap)
    while True:
        series = [builder.series(L) for _, builder in terms_of]
        scaled = [c * s.coeffs for (c, _), s in zip(terms_of, series)]
        nonzero = [np.flatnonzero(N) for N in scaled]
        which = np.repeat(np.arange(len(series)), [l.size for l in nonzero])
        l = np.concatenate(nonzero)
        A = np.concatenate([s.exponents()[i] for s, i in zip(series, nonzero)])
        N = np.concatenate([N[i] for N, i in zip(scaled, nonzero)])
        by_A = np.argsort(A, kind="stable")
        which, l, A, N = which[by_A], l[by_A], A[by_A], N[by_A]
        radii = np.sqrt(A)
        first = np.ones(A.size, dtype=bool)  # first shell at each distinct radius
        first[1:] = A[1:] != A[:-1]
        values, errors = profile(radii[first])
        at = np.cumsum(first) - 1
        values, errors = values[at], errors[at]
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = bad[0]
            raise DomainError(f"radial profile is {values[i]} at r = {float(radii[i])!r}")
        terms = N * values
        errors = np.abs(N) * errors
        tail, at_floor = tail_of(series, which, A, N, terms, errors)
        if tail < 0.1 * tol:
            return ShellSum(math.fsum(terms), max(s.trunc_L for s in series), tail,
                            math.fsum(np.abs(terms)), math.fsum(errors), (l, A, N, terms))
        if at_floor or L >= L_cap:
            where = "at the transform's noise floor" if at_floor else f"at order cap {L_cap}"
            raise ToleranceNotMet(f"shell-sum tail {tail:.3e} still above {0.1 * tol:.3e} {where}")
        L = min(2 * L, L_cap)


def _direct(spec: ThetaSpec, f: RadialFunction, tol: float, L_cap: int,
            builders: dict) -> ShellSum:
    return _sum_shells(spec, tol, L_cap, _exact(f), _majorant(f, spec.dim_d), builders)


def _dual(spec: ThetaSpec, f: RadialFunction, tol: float, settings: TransformSettings,
          L_cap: int, builders: dict) -> ShellSum:
    dspec = th.dual(spec)
    d = spec.dim_d
    if isinstance(f, GaussPoly):
        fhat = tr.ft_gausspoly(f, d, settings)
        return _sum_shells(dspec, tol, L_cap, _exact(fhat), _majorant(fhat, d), builders)
    return _sum_shells(dspec, tol, L_cap, _shared_grid(f, d, settings), _measured_decay,
                       builders)


def lhs_sum(spec: ThetaSpec, f: RadialFunction, tol: float,
            L_cap: int = 4096) -> ShellSum:
    """Direct-side shell sum, truncated where the majorant tail is < tol/10."""
    return _direct(spec, f, tol, L_cap, {})


def rhs_sum(spec: ThetaSpec, f: RadialFunction, tol: float,
            settings: TransformSettings = tr._DEFAULT_SETTINGS,
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
    return _dual(spec, f, tol, settings, L_cap, {})


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
           L_cap: int = 4096, with_table: bool = False) -> VerificationReport:
    """Check the summation identity for (spec, f) at tolerance tol.

    PASS iff residual <= tol + _PASS_MULTIPLIER * (tail_lhs + tail_rhs +
    error budget), where the budget collects quadrature error estimates
    and an explicit rounding floor proportional to the summed magnitudes.
    The multiplier 10 absorbs correlated rounding across many shells.
    """
    builders: dict = {}  # one per distinct factor tuple, shared by both sides
    left = _direct(spec, f, tol, L_cap, builders)
    right = _dual(spec, f, tol, settings, L_cap, builders)
    residual = abs(left.value - right.value)
    floor = _EPS_FLOOR * (left.abs_sum + right.abs_sum + abs(left.value) + abs(right.value))
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
