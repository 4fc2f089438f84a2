"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `C<n> PASS/FAIL (<elapsed>s)` line; run with `-s`
to see them stream. Budgets are wall-clock ceilings on the reference
container, far above observed times.
"""

import math
import time
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import integrate
from scipy.special import j0

from thetasum import hermite as hm
from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr

from conftest import even_sum_counts, lattice_counts, signed_counts


def _report(cid: str, ok: bool, t0: float, budget: float, detail: str):
    dt = time.time() - t0
    line = f"{cid} {'PASS' if ok and dt < budget else 'FAIL'} ({dt:.2f}s) {detail}"
    print(line)
    assert ok, line
    assert dt < budget, line


def test_c1_shell_counts_match_lattice_enumeration():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 3, 4):
        table = dict(zip(*th.coeff_table(th.preset("zd", d), 100)))  # exponent -> N
        counts = lattice_counts(d, 100)
        for l in range(101):
            worst = max(worst, abs(table.get(l, math.inf) - counts[l]))  # a missing row fails
    _report("C1", worst < 1e-9, t0, 5.0,
            f"shell counts d=1..4, l<=100, worst dev {worst:.2e}")


def test_c2_modular_relation():
    t0 = time.time()
    worst = max(
        th.jacobi_residual(kind, t)
        for kind in (2, 3, 4)
        for t in (0.5, 0.8, 1.0, 1.6, 2.0)
    )
    _report("C2", worst < 1e-12, t0, 1.0,
            f"modular relation residual max {worst:.2e}")


def test_c3_closed_transform_matches_quadrature():
    t0 = time.time()
    ok = True
    worst_rel = 0.0
    for k in range(4):
        for alpha in (0.5, 1.0, math.pi, 4.0):
            f = tr.GaussPoly(((1.0, k, alpha),))
            for d in (1.0, 1.5, 2.0, 2.7, 4.0):
                fhat = tr.ft_gausspoly(f, d)
                for p in (0.0, 0.3, 1.0, 3.0):
                    closed = fhat.eval(p)
                    quad = tr.ft_quadrature(f, p, d)
                    if abs(closed) >= 1e-4:
                        rel = abs(closed - quad.value) / abs(closed)
                        worst_rel = max(worst_rel, rel)
                        ok = ok and rel < 1e-8
                    else:
                        # beneath the quadrature noise floor only the
                        # combined error estimate is meaningful
                        ok = ok and abs(closed - quad.value) <= 10.0 * quad.error + 1e-12
    _report("C3", ok, t0, 30.0,
            f"closed vs quadrature on 320-point grid, worst rel {worst_rel:.2e}")


def test_c4_identity_on_cubic_family_and_integer_cross_check():
    t0 = time.time()
    fs = (
        tr.GaussPoly(((1.0, 0, 1.0),)),
        tr.GaussPoly(((1.0, 1, 1.0),)),
        tr.GaussPoly(((1.0, 0, 1.0), (0.3, 2, 2.0))),
    )
    worst = 0.0
    ok = True
    for d in (1.5, 2.5, math.pi, 4.2):
        for f in fs:
            rep = sm.verify(th.preset("zd", d), f, tol=1e-10)
            worst = max(worst, rep.residual)
            ok = ok and rep.passed and rep.residual < 1e-9

    # independent check at integer dimension: both sides by direct lattice
    # sums, the dual side transformed with the classical kernels alone
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.3, 2, 2.0)))
    kernels = {
        2: lambda r, p: 2.0 * math.pi * r * j0(2.0 * math.pi * p * r),
        3: lambda r, p: (4.0 * math.pi * r * r if p == 0.0
                         else 2.0 * r * math.sin(2.0 * math.pi * p * r) / p),
    }
    for d in (2, 3):
        counts = lattice_counts(d, 60)
        lhs = math.fsum(counts[l] * f.eval(math.sqrt(l)) for l in range(61))
        kern = kernels[d]

        def fhat(p: float) -> float:
            val, _ = integrate.quad(lambda r: f.eval(r) * kern(r, p), 0, 14,
                                    limit=200)
            return val

        rhs = math.fsum(counts[l] * fhat(math.sqrt(l)) for l in range(61))
        rep = sm.verify(th.preset("zd", d), f, tol=1e-10)
        ok = ok and abs(rep.lhs - lhs) < 1e-9 and abs(rep.rhs - rhs) < 1e-8
        worst = max(worst, abs(lhs - rhs))
    _report("C4", ok, t0, 60.0,
            f"identity on cubic family, worst residual {worst:.2e}")


def test_c5_identity_on_general_specs():
    t0 = time.time()
    f = tr.GaussPoly(((1.0, 0, 1.0),))
    specs = [th.preset("dd", 2.4), th.preset("dd", 3.0),
             th.preset("theta4d", 2.0), th.preset("theta4d", 2.7),
             th.ThetaSpec(
                 terms=((1.0, (th.ThetaFactor(3, 1.2, Fraction(1)),
                               th.ThetaFactor(4, 0.8, Fraction(3)))),),
                 dim_d=2.0,
             )]
    worst = 0.0
    ok = True
    for spec in specs:
        rep = sm.verify(spec, f, tol=1e-10)
        worst = max(worst, rep.residual)
        ok = ok and rep.passed and rep.residual < 1e-9
    _report("C5", ok, t0, 120.0,
            f"identity on alternating/signed/mixed specs, worst residual {worst:.2e}")


def test_c6_coefficient_growth_bound():
    t0 = time.time()
    ok = True
    for name in ("zd", "dd", "theta4d"):
        for d in (2, 3, 4):
            for l, coeff in zip(*th.coeff_table(th.preset(name, d), 200)):
                if 1.0 <= l <= 200.0 and coeff != 0.0:
                    ok = ok and abs(coeff) <= th.coeff_bound(d, l)
    _report("C6", ok, t0, 30.0, "growth bound majorizes coefficients to l=200")


def test_c7_transform_diagonalizes_radial_laplacian():
    t0 = time.time()
    fs = (
        tr.GaussPoly(((1.0, 0, 1.0),)),
        tr.GaussPoly(((1.0, 0, 1.0), (0.2, 1, 2.0))),
    )
    worst = 0.0
    for f in fs:
        for n in (1, 2):
            for d in (1.5, 2.0, 3.7):
                for p in (0.2, 1.0, 2.5):
                    worst = max(worst, tr.eigen_residual(f, p, d, n=n))
    _report("C7", worst < 1e-9, t0, 30.0,
            f"eigenvalue relation n=1,2, worst residual {worst:.2e}")


def test_c8_hermite_expansion_layer():
    t0 = time.time()
    nodes, weights = hermgauss(120)
    lift = weights * np.exp(nodes ** 2)
    H = np.vstack([hm.hermite_h(n, nodes) for n in range(21)])
    gram = (H * lift) @ H.T
    ortho_dev = float(np.max(np.abs(gram - np.eye(21))))

    coeff_dev = 0.0
    odd_dev = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0):
        profile = lambda x: math.exp(-alpha * x * x)
        for n in range(13):
            closed = hm.gaussian_hermite_coeff(alpha, n)
            quad = hm.hermite_coeff_quadrature(profile, n)
            coeff_dev = max(coeff_dev, abs(closed - quad))
            if n % 2:
                odd_dev = max(odd_dev, abs(closed), abs(quad))
    ok = ortho_dev < 1e-9 and coeff_dev < 1e-9 and odd_dev < 1e-10
    _report("C8", ok, t0, 30.0,
            f"orthonormality dev {ortho_dev:.2e}, coeff route dev {coeff_dev:.2e}")
