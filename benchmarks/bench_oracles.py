"""Independent oracles for the benchmark; nothing here imports thetasum.

* ``gauss_shell_sum``: the exact value of both sides of the summation
  identity for a Gaussian-polynomial profile, from mpmath ``jtheta``
  products (``mp.diff`` supplies the alpha-derivatives of the r^{2k} terms).
* ``coeff_oracle``: series coefficients of a spec from the Jacobi triple
  product.  The log of each theta factor has integer n*[q^n] coefficients
  (divisor sums), so one exp recurrence per term, run in fixed-point Python
  integers, gives the coefficients to ~2^-bits.
* ``lattice_counts``: direct enumeration of Z^d at integer d.

Every mpmath value is computed at two precisions that must agree, with the
precision raised until they do.

Specs are the JSON dicts of ``ThetaSpec.to_json_dict``; Gaussian profiles
are lists of (coeff, k, alpha) triples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

import mpmath as mp


class OracleError(RuntimeError):
    """An oracle disagreed with itself at two precisions."""


def spec_terms(spec: dict) -> list[tuple[float, list[tuple[int, Fraction, Fraction]]]]:
    """(coeff, [(kind, power, scale), ...]) with exact rational power and scale."""
    return [
        (float(t["coeff"]),
         [(int(f["kind"]), Fraction(f["power"]),
           Fraction(int(f["scale"][0]), int(f["scale"][1])))
          for f in t["factors"]])
        for t in spec["terms"]
    ]


def _mpq(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def _two_precisions(compute, dps: int = 40, rel: float = 1e-25):
    """Run ``compute()`` at dps and 1.5*dps until the two agree to ``rel``."""
    for _ in range(4):
        with mp.workdps(dps):
            lo = compute()
        with mp.workdps(dps * 3 // 2):
            hi = compute()
            if abs(hi - lo) <= rel * abs(hi) or hi == lo:
                return hi
        dps *= 2
    raise OracleError(f"no agreement between precisions up to dps {dps}")


def theta_spec_value(terms, alpha):
    """Theta_spec(e^{-alpha}) at the working precision (alpha an mpf)."""
    total = mp.mpf(0)
    for c, factors in terms:
        prod = mp.mpf(1)
        for kind, power, scale in factors:
            prod *= mp.jtheta(kind, 0, mp.exp(-alpha * _mpq(scale))) ** _mpq(power)
        total += mp.mpf(c) * prod
    return total


def gauss_shell_sum(spec: dict, gauss: list) -> float:
    """sum_l N_l f(sqrt(A_l)) for f = sum c r^{2k} e^{-alpha r^2}.

    Each term is c (-d/dalpha)^k Theta_spec(e^{-alpha}).
    """
    terms = spec_terms(spec)

    def compute():
        total = mp.mpf(0)
        for c, k, alpha in gauss:
            a = mp.mpf(alpha)
            if k == 0:
                v = theta_spec_value(terms, a)
            else:
                v = (-1) ** k * mp.diff(lambda x: theta_spec_value(terms, x), a, k)
            total += mp.mpf(c) * v
        return total

    return float(_two_precisions(compute))


def gauss_transform(gauss: list, d: float, p: float) -> float:
    """Radial transform of sum c r^{2k} e^{-alpha r^2} in dimension d at p.

    Each term is c (-d/dalpha)^k of (pi/alpha)^{d/2} e^{-pi^2 p^2/alpha}.
    """
    def compute():
        s = mp.mpf(d) / 2
        pp = mp.mpf(p)

        def base(a):
            return (mp.pi / a) ** s * mp.exp(-mp.pi ** 2 * pp ** 2 / a)

        total = mp.mpf(0)
        for c, k, alpha in gauss:
            a = mp.mpf(alpha)
            v = base(a) if k == 0 else (-1) ** k * mp.diff(base, a, k)
            total += mp.mpf(c) * v
        return total

    return float(_two_precisions(compute))


def theta_value(kind: int, q: float) -> float:
    """Single theta function theta_kind(q) from mpmath."""
    return float(_two_precisions(lambda: mp.jtheta(kind, 0, mp.mpf(q))))


def gaussian_hermite(alpha: float, n: int) -> float:
    """<e^{-alpha x^2}, h_n> from the Hermite generating function.

    sum_n H_n(x) t^n/n! = e^{2xt - t^2} integrates against e^{-(alpha+1/2)x^2}
    to sqrt(pi b) e^{(b-1)t^2}, b = 1/(alpha+1/2); read off [t^n] exactly.
    """
    if n % 2:
        return 0.0
    m = n // 2

    def compute():
        b = 1 / (mp.mpf(alpha) + mp.mpf(1) / 2)
        integral = mp.sqrt(mp.pi * b) * mp.factorial(n) * (b - 1) ** m / mp.factorial(m)
        return integral / mp.sqrt(mp.sqrt(mp.pi) * mp.mpf(2) ** n * mp.factorial(n))

    return float(_two_precisions(compute))


# -- coefficient oracle -------------------------------------------------


def _log_theta_scaled(kind: int, n_max: int) -> list[int]:
    """e[n] = n [q^n] log(theta_kind(q)) for kinds 3 and 4 (integers).

    theta3 = prod (1-q^{2m})(1+q^{2m-1})^2, theta4 = prod (1-q^{2m})(1-q^{2m-1})^2.
    """
    e = [0] * (n_max + 1)
    for even in range(2, n_max + 1, 2):
        for n in range(even, n_max + 1, even):
            e[n] -= even
    for odd in range(1, n_max + 1, 2):
        for j, n in enumerate(range(odd, n_max + 1, odd), start=1):
            if kind == 4 or j % 2 == 0:
                e[n] -= 2 * odd
            else:
                e[n] += 2 * odd
    return e


def _exp_fixed(h: list[int], den: int, n_max: int, bits: int) -> list[int]:
    """B = exp(G) in fixed point 2^bits, where n [q^n] G = h[n] / den.

    Uses n B_n = sum_{k=1..n} k G_k B_{n-k}, B_0 = 1; each step rounds once.
    """
    B = [1 << bits] + [0] * n_max
    for n in range(1, n_max + 1):
        s = sum(map(mul, h[1:n + 1], B[n - 1::-1]))
        q, r = divmod(s, n * den)
        B[n] = q + (2 * r >= n * den)
    return B


def coeff_oracle(spec: dict, L: int, bits: int = 192) -> tuple[int, list[float], list[float]]:
    """(V, N, scale): N[i] is the coefficient at exponent i/V for i <= L*V.

    ``scale[i]`` is the running maximum over j <= i of sum_terms |c t_j|,
    the magnitude against which an absolute error at i is made relative.
    Supports theta kinds 3 and 4 with rational scales.
    """
    terms = spec_terms(spec)
    V = 1
    for _, factors in terms:
        for kind, _, scale in factors:
            if kind not in (3, 4):
                raise ValueError("coefficient oracle supports theta kinds 3 and 4")
            V = V * scale.denominator // math.gcd(V, scale.denominator)
    n_max = L * V
    total = [0.0] * (n_max + 1)
    mag = [0.0] * (n_max + 1)
    for c, factors in terms:
        den = 1
        for _, power, _ in factors:
            den = den * power.denominator // math.gcd(den, power.denominator)
        h = [0] * (n_max + 1)
        for kind, power, scale in factors:
            # theta(q^s) on the 1/V grid: index i = n * s * V
            stretch = scale.numerator * (V // scale.denominator)
            e = _log_theta_scaled(kind, n_max // stretch)
            w = power.numerator * (den // power.denominator) * stretch
            for n, en in enumerate(e):
                h[n * stretch] += w * en
        B = _exp_fixed(h, den, n_max, bits)
        one = 1 << bits
        for i, b in enumerate(B):
            t = c * (b / one)
            total[i] += t
            mag[i] += abs(t)
    scale_run = list(itertools.accumulate(mag, max))
    return V, total, scale_run


def lattice_counts(d: int, l_max: int) -> list[int]:
    """Number of vectors of Z^d with squared norm l, for l <= l_max."""
    m = math.isqrt(l_max)
    counts = [0] * (l_max + 1)
    for vec in itertools.product(range(-m, m + 1), repeat=d):
        n = sum(x * x for x in vec)
        if n <= l_max:
            counts[n] += 1
    return counts


def cusp_shell_sum(d: int, s: float) -> float:
    """sum over Z^d of e^{-(|n|/s)^3}, by direct enumeration (d integer)."""
    # terms below 1e-40 once (|n|/s)^3 > 92
    l_max = math.ceil((4.6 * s) ** 2)
    counts = lattice_counts(d, l_max)

    def compute():
        ss = mp.mpf(s)
        return mp.fsum(cnt * mp.exp(-(mp.sqrt(l) / ss) ** 3)
                       for l, cnt in enumerate(counts) if cnt)

    return float(_two_precisions(compute))
