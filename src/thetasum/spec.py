"""Theta specs: the theta-factor products of a dimension parameter d, and
their algebra in pure Python.

A spec describes a finite linear combination of products of theta factors

    sum_i c_i * prod_m theta_{kind}(q^{scale})^{power}

with real nonnegative powers summing to the dimension parameter d in every
term.  This module holds ``KINDS``, the one table of the theta kinds, the
spec types and their JSON form, the named presets, ``dual`` (the modular
transformation rule, factor by factor), the product form of a single theta
value and the modular-relation residual built on it.  It imports no numpy:
a command that only dualises a spec or checks the modular relation loads nothing else of the package.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, InvalidSpec, ToleranceNotMet, _number, _real, _scale

_POWER_SUM_TOL = 1e-12

# Offsets are compared against the integer grid at this absolute slack;
# float offsets come from f64 inputs, so 1e-9 separates "same grid point"
# from "genuinely incompatible" with a wide margin on both sides.
_OFFSET_TOL = 1e-9

# Most factors ``theta_eval_product`` multiplies before it refuses; enough
# for q up to about 1 - 2e-4 (jacobi_residual up to t ~ 1.6e4).
_PRODUCT_FACTOR_CAP = 100000


class Kind(NamedTuple):
    """A theta kind: its partner under Jacobi's relation (``dual``,
    ``jacobi_residual``) and its Jacobi triple product
    theta(q) = 2^two q^shift prod_{m>=1} (1 - q^{2m}) (1 + sign q^{2m-odd})^2."""
    partner: int
    two: int
    shift: float
    odd: int
    sign: int


KINDS = {  # 2 <-> 4 swap under Jacobi's relation, 3 stays
    2: Kind(partner=4, two=1, shift=0.25, odd=0, sign=1),
    3: Kind(partner=3, two=0, shift=0.0, odd=1, sign=1),
    4: Kind(partner=2, two=0, shift=0.0, odd=1, sign=-1),
}


def _kind(kind, error: type = DomainError) -> int:
    """kind as a plain int if it is an integer (numpy's too) that keys
    ``KINDS``; 3.0, True or "3" raise ``error``."""
    if not isinstance(kind, numbers.Integral) or kind not in KINDS:
        raise error(f"kind must be 2, 3 or 4, got {kind!r}")
    return operator.index(kind)


@dataclass(frozen=True)
class ThetaFactor:
    """One factor theta_kind(q^scale)^power with kind a key of ``KINDS``."""

    kind: int
    power: float
    scale: Fraction

    def __post_init__(self):
        object.__setattr__(self, "kind", _kind(self.kind, InvalidSpec))  # so the JSON round-trips
        object.__setattr__(self, "power", _real(self.power, "power", "nonnegative", InvalidSpec))
        object.__setattr__(self, "scale", _scale(self.scale, "scale", InvalidSpec))


@dataclass(frozen=True)
class ThetaSpec:
    """Linear combination of theta-factor products with common dimension."""

    terms: tuple[tuple[float, tuple[ThetaFactor, ...]], ...]
    dim_d: float

    def __post_init__(self):
        norm = []
        for coeff, factors in self.terms:
            c = _real(coeff, "term coefficient", "any", InvalidSpec)
            fs = tuple(factors)
            if not fs:
                raise InvalidSpec("term without factors")
            norm.append((c, fs))
        if not norm:
            raise InvalidSpec("spec without terms")
        object.__setattr__(self, "terms", tuple(norm))
        d = _real(self.dim_d, "dim_d", error=InvalidSpec)
        if not d > _POWER_SUM_TOL:
            # within the power-sum tolerance of 0 a term of zero powers would pass
            raise InvalidSpec(f"dim_d must be > {_POWER_SUM_TOL!r}, the power-sum tolerance, "
                              f"got {d!r}")
        object.__setattr__(self, "dim_d", d)
        for c, fs in self.terms:
            total = math.fsum(f.power for f in fs)
            if abs(total - d) > _POWER_SUM_TOL:
                raise InvalidSpec(
                    f"factor powers sum to {total!r}, expected dim_d = {d!r}"
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
                        # JSON integers only: 3.0, 1.5 and a zero denominator raise
                        kind=f["kind"],
                        power=f["power"],
                        scale=Fraction(_json_number(f["scale"][0], "scale"),
                                       _json_number(f["scale"][1], "scale")),
                    )
                    for f in t["factors"]
                )
                terms.append((t["coeff"], factors))
            return cls(terms=tuple(terms), dim_d=data["dim_d"])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError,
                ZeroDivisionError) as exc:
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


def _json_number(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float (1.0 too), a string or a bool
    raises ``InvalidSpec``.  The real fields (power, coeff, dim_d) need no such
    check: the constructors refuse what is not a real number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{name} must be a JSON integer, got {value!r}")
    return value


PRESETS = ("zd", "dd", "theta4d")  # the names ``preset`` builds: the CLI's --preset choices


def preset(name: str, d: float) -> ThetaSpec:
    """Named spec families: zd (cubic lattice), dd (checkerboard), theta4d."""
    if name == "zd":
        return ThetaSpec(terms=((1.0, (ThetaFactor(3, d, 1),)),), dim_d=d)
    if name == "dd":
        return ThetaSpec(
            terms=(
                (0.5, (ThetaFactor(3, d, 1),)),
                (0.5, (ThetaFactor(4, d, 1),)),
            ),
            dim_d=d,
        )
    if name == "theta4d":
        return ThetaSpec(terms=((1.0, (ThetaFactor(4, d, 1),)),), dim_d=d)
    raise InvalidSpec(f"unknown preset {name!r} "
                      f"(expected {', '.join(PRESETS[:-1])} or {PRESETS[-1]})")


# -- single theta values -------------------------------------------------


def theta_eval_product(kind: int, q: float) -> float:
    """Theta value from the triple product of its ``KINDS`` row
    (series-independent route).

    The product stops once q^{2m-1} < 1e-17; if that takes more than
    ``_PRODUCT_FACTOR_CAP`` factors (q above about 1 - 2e-4) it raises
    ``ToleranceNotMet`` instead of returning a truncated value.  The running
    product is kept as a mantissa and a power of two: for q near 1 the
    partial products of kinds 2 and 3 dip below the smallest double before
    the later factors lift them back, and must not underflow to zero.  A
    q that is not a real number in [0, 1) raises ``DomainError``.
    """
    row = KINDS[kind := _kind(kind)]
    q = _number(q, "q")
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0, 1), got {q!r}")
    prod, scale = 1.0, 0  # the product is ldexp(prod, scale)
    m = 1
    while True:
        q2m = q ** (2 * m)
        even = 1.0 - q2m
        odd = 1.0 + row.sign * q ** (2 * m - row.odd)
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
    return 2.0 ** row.two * q ** row.shift * math.ldexp(prod, scale)


def coeff_bound(d: float, l: int) -> float:
    """Shell-count bound 2^d (1 + d/l)^l (1 + l/d)^d for unit-scale series."""
    d, l = _real(d, "d"), _number(l, "l")
    if not 1.0 <= l < math.inf:
        raise DomainError(f"l must be finite and >= 1, got {l!r}")
    l = int(l)  # floored: the exponents of a ``build`` series are floats
    return math.exp(
        d * math.log(2.0) + l * math.log1p(d / l) + d * math.log1p(l / d)
    )


# -- spec-level operations ----------------------------------------------


@functools.lru_cache
def dual(spec: ThetaSpec) -> ThetaSpec:
    """Dual spec under the modular transformation.

    Factor map: each kind to its ``KINDS`` partner with inverted scale;
    each term coefficient is divided by sqrt(prod scale^power) over the
    factors of that term.  Specs are
    frozen, so each one's dual is made once and kept for the process.
    """
    new_terms = []
    for coeff, factors in spec.terms:
        log_det = math.fsum(
            f.power * (math.log(f.scale.numerator) - math.log(f.scale.denominator))
            for f in factors
        )
        new_factors = tuple(
            ThetaFactor(
                kind=KINDS[f.kind].partner,
                power=f.power,
                scale=1 / f.scale,
            )
            for f in factors
        )
        new_terms.append((coeff * math.exp(-0.5 * log_det), new_factors))
    return ThetaSpec(terms=tuple(new_terms), dim_d=spec.dim_d)


def jacobi_residual(kind: int, t: float) -> float:
    """|theta_a(e^{-pi/t}) - sqrt(t) theta_b(e^{-pi t})| for the paired kinds.

    Pairs: the ``KINDS`` partners.  Identically zero in exact arithmetic.
    Both sides come from the product form, ``theta_eval_product``.  A t
    that is not a finite real > 0 raises ``DomainError``; a t so large or
    so small that one of the two q rounds to 1, or needs more than the
    product's factor cap, raises ``ToleranceNotMet`` naming t.
    """
    partner = KINDS[_kind(kind)].partner
    t = _real(t, "t")
    q_lhs, q_rhs = math.exp(-math.pi / t), math.exp(-math.pi * t)
    if max(q_lhs, q_rhs) == 1.0:
        q = "e^(-pi/t)" if q_lhs == 1.0 else "e^(-pi t)"
        raise ToleranceNotMet(f"at t = {t!r} the theta argument {q} rounds to 1, "
                              "where no product converges")
    try:
        lhs = theta_eval_product(kind, q_lhs)
        rhs = math.sqrt(t) * theta_eval_product(partner, q_rhs)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(f"at t = {t!r}: {exc}") from None
    return abs(lhs - rhs)
