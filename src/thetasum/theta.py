"""Jacobi theta functions and generalized theta series built from them.

A spec describes a finite linear combination of products of theta factors

    sum_i c_i * prod_m theta_{kind}(q^{scale})^{power}

with real nonnegative powers summing to the dimension parameter d in every
term.  ``build`` turns a spec into a QSeries on its natural exponent grid,
``dual`` applies the modular transformation rule factor by factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidSpec
from . import qseries as qs
from .qseries import QSeries, Rational

_POWER_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ThetaFactor:
    """One factor theta_kind(q^scale)^power with kind in {2, 3, 4}."""

    kind: int
    power: float
    scale: Rational

    def __post_init__(self):
        if self.kind not in (2, 3, 4):
            raise InvalidSpec(f"kind must be 2, 3 or 4, got {self.kind!r}")
        p = float(self.power)
        if not math.isfinite(p) or p < 0:
            raise InvalidSpec(f"power must be a finite real >= 0, got {self.power!r}")
        object.__setattr__(self, "power", p)
        s = self.scale if isinstance(self.scale, Fraction) else Fraction(self.scale)
        if s <= 0:
            raise InvalidSpec(f"scale must be positive, got {s}")
        object.__setattr__(self, "scale", s)


@dataclass(frozen=True)
class ThetaSpec:
    """Linear combination of theta-factor products with common dimension."""

    terms: tuple[tuple[float, tuple[ThetaFactor, ...]], ...]
    dim_d: float

    def __post_init__(self):
        norm = []
        for coeff, factors in self.terms:
            c = float(coeff)
            if not math.isfinite(c):
                raise InvalidSpec(f"term coefficient must be finite, got {coeff!r}")
            fs = tuple(factors)
            if not fs:
                raise InvalidSpec("term without factors")
            norm.append((c, fs))
        if not norm:
            raise InvalidSpec("spec without terms")
        object.__setattr__(self, "terms", tuple(norm))
        d = float(self.dim_d)
        object.__setattr__(self, "dim_d", d)
        for c, fs in self.terms:
            total = math.fsum(f.power for f in fs)
            if abs(total - d) > _POWER_SUM_TOL:
                raise InvalidSpec(
                    f"factor powers sum to {total!r}, expected dim_d = {d!r}"
                )
        if d < 1.0 - _POWER_SUM_TOL:
            raise InvalidSpec(f"dim_d must be >= 1, got {d!r}")
        if d <= 1.0 + _POWER_SUM_TOL and not self.is_zd_form:
            # at the d = 1 endpoint only the plain cubic form is defined
            if abs(d - 1.0) <= _POWER_SUM_TOL:
                raise InvalidSpec("dim_d = 1 is allowed only for the plain theta3^d form")
            raise InvalidSpec(f"dim_d must be > 1 for general specs, got {d!r}")

    @property
    def is_zd_form(self) -> bool:
        """True for the cubic-lattice form: one term, coefficient 1, theta3^d(q)."""
        if len(self.terms) != 1:
            return False
        c, fs = self.terms[0]
        return (
            c == 1.0
            and len(fs) == 1
            and fs[0].kind == 3
            and fs[0].scale == 1
        )

    # -- JSON round trip ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim_d": self.dim_d,
            "terms": [
                {
                    "coeff": c,
                    "factors": [
                        {
                            "kind": f.kind,
                            "power": f.power,
                            "scale": [f.scale.numerator, f.scale.denominator],
                        }
                        for f in fs
                    ],
                }
                for c, fs in self.terms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThetaSpec":
        try:
            terms = []
            for t in data["terms"]:
                factors = tuple(
                    ThetaFactor(
                        kind=int(f["kind"]),
                        power=float(f["power"]),
                        scale=Fraction(int(f["scale"][0]), int(f["scale"][1])),
                    )
                    for f in t["factors"]
                )
                terms.append((float(t["coeff"]), factors))
            return cls(terms=tuple(terms), dim_d=float(data["dim_d"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidSpec):
                raise
            raise InvalidSpec(f"malformed spec JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ThetaSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"spec is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def preset(name: str, d: float) -> ThetaSpec:
    """Named spec families: zd (cubic lattice), dd (checkerboard), theta4d."""
    one = Fraction(1)
    if name == "zd":
        return ThetaSpec(terms=((1.0, (ThetaFactor(3, d, one),)),), dim_d=d)
    if name == "dd":
        return ThetaSpec(
            terms=(
                (0.5, (ThetaFactor(3, d, one),)),
                (0.5, (ThetaFactor(4, d, one),)),
            ),
            dim_d=d,
        )
    if name == "theta4d":
        return ThetaSpec(terms=((1.0, (ThetaFactor(4, d, one),)),), dim_d=d)
    raise InvalidSpec(f"unknown preset {name!r} (expected zd, dd or theta4d)")


# -- single theta functions ---------------------------------------------


def theta_series(kind: int, L: int) -> QSeries:
    """Series of one theta function, complete for square exponents <= L.

    kind 2: 2 q^{1/4} sum_{l>=1} q^{l^2-l}   (grid 1/4, offset 1)
    kind 3: 1 + 2 sum_{l>=1} q^{l^2}
    kind 4: 1 + 2 sum_{l>=1} (-1)^l q^{l^2}
    """
    if kind not in (2, 3, 4):
        raise DomainError(f"kind must be 2, 3 or 4, got {kind!r}")
    L = int(L)
    if L < 0:
        raise DomainError(f"order must be nonnegative, got {L}")
    if kind == 2:
        out = np.zeros(4 * L + 1)
        l = 1
        while l * l - l <= L:
            out[4 * (l * l - l)] = 2.0
            l += 1
        return QSeries(4, 1, out)
    out = np.zeros(L + 1)
    out[0] = 1.0
    l = 1
    while l * l <= L:
        out[l * l] = 2.0 if kind == 3 else 2.0 * (-1) ** l
        l += 1
    return QSeries(1, 0, out)


def theta_eval_product(kind: int, q: float) -> float:
    """Theta value from the infinite product form (series-independent route).

    theta2 = 2 q^{1/4} prod (1-q^{2m}) (1+q^{2m})^2
    theta3 =           prod (1-q^{2m}) (1+q^{2m-1})^2
    theta4 =           prod (1-q^{2m}) (1-q^{2m-1})^2
    """
    if kind not in (2, 3, 4):
        raise DomainError(f"kind must be 2, 3 or 4, got {kind!r}")
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0, 1), got {q!r}")
    if q == 0.0:
        return 0.0 if kind == 2 else 1.0
    prod = 1.0
    m = 1
    while True:
        q2m = q ** (2 * m)
        even = 1.0 - q2m
        if kind == 2:
            odd = 1.0 + q2m
        elif kind == 3:
            odd = 1.0 + q ** (2 * m - 1)
        else:
            odd = 1.0 - q ** (2 * m - 1)
        prod *= even * odd * odd
        if q2m < 1e-17 and q ** (2 * m - 1) < 1e-17:
            break
        m += 1
        if m > 100000:  # unreachable for q < 1 - 1e-5; guards pathological q
            break
    if kind == 2:
        return 2.0 * q ** 0.25 * prod
    return prod


def coeff_bound(d: float, l: int) -> float:
    """Shell-count bound 2^d (1 + d/l)^l (1 + l/d)^d for unit-scale series."""
    d = float(d)
    l = int(l)
    if d <= 0 or l < 1:
        raise DomainError("coeff_bound requires d > 0 and l >= 1")
    return math.exp(
        d * math.log(2.0) + l * math.log1p(d / l) + d * math.log1p(l / d)
    )


# -- spec-level operations ----------------------------------------------


# k [x^k] log P(x) collects w * a from each divisor pair a * j = k, with w
# read off the Jacobi triple product by the parities of a and j:
# _LOG_WEIGHTS[kind][a % 2][j % 2]
_LOG_WEIGHTS = {
    2: ((-3, 1), (-3, 1)),    # P = prod (1-x^m)(1+x^m)^2, x = q^2
    3: ((-1, -1), (-2, 2)),   # P = prod (1-x^{2m})(1+x^{2m-1})^2, x = q
    4: ((-1, -1), (-2, -2)),  # P = prod (1-x^{2m})(1-x^{2m-1})^2, x = q
}


def _log_coeffs(kind: int, n: int) -> np.ndarray:
    """e[k] = k [x^k] log P(x) for k <= n: integer divisor sums, exact in f64.

    P is theta3 or theta4 itself, and theta2(q) = 2 q^{1/4} P(q^2).  Each
    divisor pair is visited from its member that is at most sqrt(n).
    """
    w = np.array(_LOG_WEIGHTS[kind], dtype=np.float64)
    e = np.zeros(n + 1)
    r = math.isqrt(n)
    for a in range(1, r + 1):
        j = np.arange(1, n // a + 1)
        e[a * j] += a * w[a % 2, j % 2]
    for j in range(1, n // (r + 1) + 1):
        a = np.arange(r + 1, n // j + 1)
        e[a * j] += a * w[a % 2, j % 2]
    return e


def _exp_series(h: np.ndarray) -> np.ndarray:
    """Coefficients of exp(G) from h[k] = k [x^k] G, with G(0) = 0.

    n b_n = sum_{k=1..n} h_k b_{n-k}, b_0 = 1.  Fed with the divisor sums
    of ``_log_coeffs`` it stays within ~1e-12 of the running maximum of the
    coefficients to n = 4096 (the tests check it against mpmath and
    lattice counts).
    """
    N = h.size - 1
    hr = np.ascontiguousarray(h[::-1])  # hr[N-n:N] = h_n .. h_1
    b = np.zeros(N + 1)
    b[0] = 1.0
    for n in range(1, N + 1):
        b[n] = np.dot(hr[N - n:N], b[:n]) / n
    return b


def build(spec: ThetaSpec, L: int) -> QSeries:
    """QSeries of the spec, coefficients exact for exponents up to ~L.

    By the Jacobi triple product each term prod theta_kind(q^s)^p equals
    2^a q^w exp(sum p log P_kind(q^s')), where a and w sum p and p s / 4
    over the theta2 factors, and s' is 2s for theta2 and s otherwise.  The
    factor logs are added on the term's grid and one exp recurrence gives
    the term.  A factor covers relative exponent ceil(L/s) s, as its theta
    series would, and the term the least of these.  The offset w stays
    exact under the same rule as ``qseries.pow_real``.
    """
    L = int(L)
    if L < 0:
        raise DomainError(f"order must be nonnegative, got {L}")
    pieces = []
    for coeff, factors in spec.terms:
        fs = [f for f in factors if f.power > 0.0]  # a power of 0 is the factor 1
        D = math.lcm(*(f.scale.denominator for f in fs))
        top = int(min(max(1, math.ceil(L / f.scale)) * f.scale * D for f in fs))
        # each factor's variable x = q^{step/D}; the recurrence runs in units of g
        steps = [int(f.scale * D) * (2 if f.kind == 2 else 1) for f in fs]
        g = math.gcd(*steps)
        h = np.zeros(top // g + 1)
        for f, step in zip(fs, steps):
            k = step // g
            h[::k] += f.power * k * _log_coeffs(f.kind, (h.size - 1) // k)
        coeffs = np.zeros(top + 1)
        coeffs[::g] = _exp_series(h)
        theta2 = [f for f in fs if f.kind == 2]
        offset = sum(qs._power_offset(f.power, f.scale * D / 4) for f in theta2)
        scale = 2.0 ** math.fsum(f.power for f in theta2)
        pieces.append((coeff * scale, QSeries(D, offset, coeffs)))
    return qs.lincomb(pieces)


def dual(spec: ThetaSpec) -> ThetaSpec:
    """Dual spec under the modular transformation.

    Factor map: kind 2 <-> kind 4 with inverted scale, kind 3 keeps its
    kind with inverted scale; each term coefficient is divided by
    sqrt(prod scale^power) over the factors of that term.
    """
    new_terms = []
    for coeff, factors in spec.terms:
        log_det = math.fsum(
            f.power * (math.log(f.scale.numerator) - math.log(f.scale.denominator))
            for f in factors
        )
        new_factors = tuple(
            ThetaFactor(
                kind={2: 4, 3: 3, 4: 2}[f.kind],
                power=f.power,
                scale=1 / f.scale,
            )
            for f in factors
        )
        new_terms.append((coeff * math.exp(-0.5 * log_det), new_factors))
    return ThetaSpec(terms=tuple(new_terms), dim_d=spec.dim_d)


def _theta_value(kind: int, q: float) -> float:
    """Series evaluation with order chosen from the decay of q."""
    L = max(16, int(math.ceil(46.0 / -math.log(q))))
    series = theta_series(kind, L)
    return qs.evaluate(series, q).value


def jacobi_residual(kind: int, t: float) -> float:
    """|theta_a(e^{-pi/t}) - sqrt(t) theta_b(e^{-pi t})| for the paired kinds.

    Pairs: 2 <-> 4 swap, 3 stays.  Identically zero in exact arithmetic.
    """
    t = float(t)
    if t <= 0:
        raise DomainError(f"t must be positive, got {t!r}")
    partner = {2: 4, 3: 3, 4: 2}[kind]
    lhs = _theta_value(kind, math.exp(-math.pi / t))
    rhs = math.sqrt(t) * _theta_value(partner, math.exp(-math.pi * t))
    return abs(lhs - rhs)
