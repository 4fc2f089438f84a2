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

from .errors import DomainError, InvalidSpec, ToleranceNotMet
from . import qseries as qs
from .qseries import QSeries

_POWER_SUM_TOL = 1e-12

# Most factors ``theta_eval_product`` multiplies before it refuses; enough
# for q up to about 1 - 2e-4 (jacobi_residual up to t ~ 1.6e4).
_PRODUCT_FACTOR_CAP = 100000


@dataclass(frozen=True)
class ThetaFactor:
    """One factor theta_kind(q^scale)^power with kind in {2, 3, 4}."""

    kind: int
    power: float
    scale: Fraction

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
        if not math.isfinite(d):
            raise InvalidSpec(f"dim_d must be finite, got {self.dim_d!r}")
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

    The product stops once q^{2m-1} < 1e-17; if that takes more than
    ``_PRODUCT_FACTOR_CAP`` factors (q above about 1 - 2e-4) it raises
    ``ToleranceNotMet`` instead of returning a truncated value.  The running
    product is kept as a mantissa and a power of two: for q near 1 the
    partial products of kinds 2 and 3 dip below the smallest double before
    the later factors lift them back, and must not underflow to zero.
    """
    if kind not in (2, 3, 4):
        raise DomainError(f"kind must be 2, 3 or 4, got {kind!r}")
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0, 1), got {q!r}")
    if q == 0.0:
        return 0.0 if kind == 2 else 1.0
    prod, scale = 1.0, 0  # the product is ldexp(prod, scale)
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
        prod, e = math.frexp(prod * (even * odd * odd))
        scale += e
        if q2m < 1e-17 and q ** (2 * m - 1) < 1e-17:
            break
        m += 1
        if m > _PRODUCT_FACTOR_CAP:
            raise ToleranceNotMet(
                f"theta{kind} product at q = {q!r} has not converged "
                f"after {_PRODUCT_FACTOR_CAP} factors"
            )
    prod = math.ldexp(prod, scale)
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


def _log_coeffs(kind: int, n: int, lo: int = 0) -> np.ndarray:
    """e[k - lo - 1] = k [x^k] log P(x) for lo < k <= n: exact integers in f64.

    P is theta3 or theta4 itself, and theta2(q) = 2 q^{1/4} P(q^2).  Every
    divisor pair a * j = k in (lo, n] adds its weight in one ``bincount``;
    the sums are exact, so their order does not matter.
    """
    a = np.arange(1, n + 1)
    count = n // a - lo // a          # the j with lo < a j <= n
    start = np.cumsum(count) - count  # where the pairs of each a start
    j = np.arange(count.sum()) + np.repeat(lo // a + 1 - start, count)
    a = np.repeat(a, count)
    w = np.array(_LOG_WEIGHTS[kind], dtype=np.float64)
    return np.bincount(a * j - lo - 1, weights=a * w[a % 2, j % 2], minlength=n - lo)


class _TermBuilder:
    """Coefficients of one term prod theta_kind(q^s)^p, grown in place.

    By the Jacobi triple product the term equals 2^a q^w exp(sum p log
    P_kind(q^s')), where a and w sum p and p s / 4 over the theta2 factors,
    and s' is 2s for theta2 and s otherwise.  The factor logs h are added
    on the term's grid (denominator D, stride g) and the exp recurrence

        n b_n = sum_{k=1..n} h_k b_{n-k},  b_0 = 1,

    gives the term.  The recurrence is online: asked for a higher order,
    the builder extends h and runs it only for the new indices, and each
    b_n sees the same operands as in a build from scratch, so a grown
    series is bit-identical to one built in one step.  Fed with the divisor
    sums of ``_log_coeffs`` it stays within ~1e-12 of the running maximum
    of the coefficients to n = 4096 (the tests check it against mpmath and
    lattice counts).
    """

    def __init__(self, factors: Sequence[ThetaFactor]):
        fs = [f for f in factors if f.power > 0.0]  # a power of 0 is the factor 1
        self.factors = fs
        self.D = D = math.lcm(*(f.scale.denominator for f in fs))
        # scale s = num/den as (num, den, s D): each factor's variable is
        # x = q^{step/D}, and the recurrence runs in units of g
        self.scales = [(f.scale.numerator, f.scale.denominator, int(f.scale * D)) for f in fs]
        steps = [sD * (2 if f.kind == 2 else 1) for f, (_, _, sD) in zip(fs, self.scales)]
        self.g = math.gcd(*steps)
        self.strides = [step // self.g for step in steps]
        theta2 = [f for f in fs if f.kind == 2]
        self.offset = math.fsum(f.power * float(f.scale * D) / 4 for f in theta2)
        self.prefactor = 2.0 ** math.fsum(f.power for f in theta2)
        self.h = np.zeros(1)
        self.b = np.ones(1)

    def _grow(self, N: int) -> None:
        """Extend h and b to index N, computing only the indices above the old end."""
        n0 = self.b.size - 1
        h = np.zeros(N + 1)
        h[:n0 + 1] = self.h
        for f, k in zip(self.factors, self.strides):
            j0 = n0 // k
            h[(j0 + 1) * k::k] += f.power * k * _log_coeffs(f.kind, N // k, j0)
        hr = np.ascontiguousarray(h[::-1])  # hr[N-n:N] = h_n .. h_1
        b = np.zeros(N + 1)
        b[:n0 + 1] = self.b
        for n in range(n0 + 1, N + 1):
            b[n] = np.dot(hr[N - n:N], b[:n]) / n
        self.h, self.b = h, b

    def series(self, L: int) -> QSeries:
        """The term without its 2^a prefactor, exact for exponents up to ~L.

        A factor covers relative exponent ceil(L/s) s, as its theta series
        would, and the term the least of these.
        """
        top = min(max(1, -(-L * den // num)) * sD for num, den, sD in self.scales)
        n = top // self.g
        if n >= self.b.size:
            self._grow(n)
        coeffs = np.zeros(top + 1)
        coeffs[::self.g] = self.b[:n + 1]
        return QSeries(self.D, self.offset, coeffs)


def build(spec: ThetaSpec, L: int) -> QSeries:
    """QSeries of the spec, coefficients exact for exponents up to ~L.

    Each term comes from its own ``_TermBuilder`` in one step, and
    ``qseries.lincomb`` merges the terms, each times its coefficient and
    its 2^a prefactor.  ``summation`` keeps the builders instead: it grows
    them across its doublings and shares them between the two sides of
    ``verify``.
    """
    L = int(L)
    if L < 0:
        raise DomainError(f"order must be nonnegative, got {L}")
    pieces = []
    for coeff, factors in spec.terms:
        term = _TermBuilder(factors)
        pieces.append((coeff * term.prefactor, term.series(L)))
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


def jacobi_residual(kind: int, t: float) -> float:
    """|theta_a(e^{-pi/t}) - sqrt(t) theta_b(e^{-pi t})| for the paired kinds.

    Pairs: 2 <-> 4 swap, 3 stays.  Identically zero in exact arithmetic.
    Both sides come from the product form, ``theta_eval_product``.
    """
    if kind not in (2, 3, 4):
        raise DomainError(f"kind must be 2, 3 or 4, got {kind!r}")
    t = float(t)
    if t <= 0:
        raise DomainError(f"t must be positive, got {t!r}")
    partner = {2: 4, 3: 3, 4: 2}[kind]
    lhs = theta_eval_product(kind, math.exp(-math.pi / t))
    rhs = math.sqrt(t) * theta_eval_product(partner, math.exp(-math.pi * t))
    return abs(lhs - rhs)
