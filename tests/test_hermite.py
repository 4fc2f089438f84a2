"""Hermite functions and Gaussian expansion coefficients."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from thetasum import hermite as hm
from thetasum.errors import DomainError, IllConditioned, ToleranceNotMet


def test_first_two_functions_explicit():
    x = np.linspace(-3, 3, 41)
    np.testing.assert_allclose(
        hm.hermite_h(0, x), np.pi ** -0.25 * np.exp(-0.5 * x * x), rtol=1e-14
    )
    np.testing.assert_allclose(
        hm.hermite_h(1, x),
        math.sqrt(2.0) * x * np.pi ** -0.25 * np.exp(-0.5 * x * x),
        rtol=1e-13, atol=1e-16,
    )


def test_scalar_input_gives_scalar():
    v = hm.hermite_h(3, 0.7)
    assert isinstance(v, float)


def test_orthonormality_via_gauss_hermite():
    # weight e^{-x^2} absorbed: integrate h_m h_n e^{x^2} * e^{-x^2}
    nodes, weights = hermgauss(80)
    for m in range(0, 21, 4):
        for n in range(m, 21, 4):
            hm_vals = hm.hermite_h(m, nodes)
            hn_vals = hm.hermite_h(n, nodes)
            inner = np.sum(weights * hm_vals * hn_vals * np.exp(nodes ** 2))
            want = 1.0 if m == n else 0.0
            assert inner == pytest.approx(want, abs=1e-9)


def test_high_order_does_not_overflow():
    v = hm.hermite_h(180, 2.0)
    assert math.isfinite(v)
    assert abs(v) < 1.0  # orthonormal family stays bounded


def test_negative_order_rejected():
    with pytest.raises(DomainError):
        hm.hermite_h(-1, 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", list(range(0, 13)))
def test_closed_form_matches_quadrature(alpha, n):
    closed = hm.gaussian_hermite_coeff(alpha, n)
    quad = hm.hermite_coeff_quadrature(lambda x: math.exp(-alpha * x * x), n)
    assert closed == pytest.approx(quad, abs=1e-9)


def test_frozen_coefficients_alpha_one():
    assert hm.gaussian_hermite_coeff(1.0, 0) == pytest.approx(
        1.0870307726111885, abs=1e-14)
    assert hm.gaussian_hermite_coeff(1.0, 2) == pytest.approx(
        -0.25621561022394107, abs=1e-14)
    assert hm.gaussian_hermite_coeff(1.0, 4) == pytest.approx(
        0.07396307576668834, abs=1e-14)


def test_matched_gaussian_projects_onto_ground_state():
    # alpha = 1/2 is h_0 itself up to normalization: a_0 = pi^{1/4}, rest 0
    assert hm.gaussian_hermite_coeff(0.5, 0) == pytest.approx(
        math.pi ** 0.25, abs=1e-15)
    for n in (2, 4, 6, 8):
        assert hm.gaussian_hermite_coeff(0.5, n) == 0.0


def test_odd_coefficients_vanish():
    for alpha in (0.3, 1.0, 2.0):
        for n in (1, 3, 5, 7, 9, 11):
            assert hm.gaussian_hermite_coeff(alpha, n) == 0.0
            quad = hm.hermite_coeff_quadrature(
                lambda x: math.exp(-alpha * x * x), n)
            assert abs(quad) < 1e-10


def test_coefficient_domain():
    for bad in (-0.5, -1.0, float("nan")):
        with pytest.raises(DomainError):
            hm.gaussian_hermite_coeff(bad, 0)
    with pytest.raises(DomainError):
        hm.gaussian_hermite_coeff(1.0, -2)


def test_log_space_survives_large_order():
    # naive (2m)!/m! overflows past m ~ 85
    v = hm.gaussian_hermite_coeff(0.3, 240)
    assert math.isfinite(v)


def test_quadrature_tolerance_surface():
    with pytest.raises(ToleranceNotMet):
        hm.hermite_coeff_quadrature(
            lambda x: math.exp(-0.5 * x * x), 4, abs_tol=1e-18)


_GAUSS = lambda x: math.exp(-x * x)


@pytest.mark.parametrize("f, kwargs", [
    (_GAUSS, {"x_max": -3.0}), (_GAUSS, {"x_max": 0.0}),
    (_GAUSS, {"x_max": float("nan")}), (_GAUSS, {"x_max": float("inf")}),
    (_GAUSS, {"abs_tol": 0.0}), (_GAUSS, {"abs_tol": -1e-11}),
    (_GAUSS, {"abs_tol": float("nan")}), (_GAUSS, {"abs_tol": float("inf")}),
    (lambda x: float("nan") if x > 1.0 else 1.0, {}),
    (lambda x: math.inf, {}),
], ids=["x_max-negative", "x_max-zero", "x_max-nan", "x_max-inf", "abs_tol-zero",
        "abs_tol-negative", "abs_tol-nan", "abs_tol-inf", "profile-nan", "profile-inf"])
def test_quadrature_rejects_bad_input(f, kwargs):
    # x_max = -3 used to integrate from 3 to -3 and flip the sign of the answer
    with pytest.raises(DomainError, match="x_max|abs_tol|at x = "):
        hm.hermite_coeff_quadrature(f, 2, **kwargs)


def _mp_coeff(profile, n: int, cuts=(0.0,)) -> float:
    """<profile, h_n> by mpmath at 30 digits, split at the cuts and on the tails."""
    with mp.workdps(30):
        norm = mp.sqrt(mp.sqrt(mp.pi) * 2**n * mp.factorial(n))
        h = lambda x: mp.hermite(n, x) * mp.exp(-x * x / 2) / norm
        return float(mp.quad(lambda x: profile(x) * h(x),
                             [-mp.inf, -10, -5, *sorted(cuts), 5, 10, mp.inf]))


# name: (float profile, the same profile in mpmath)
_PROFILES = {
    "sech": (lambda x: 1.0 / math.cosh(x), mp.sech),
    "gauss-lorentz": (lambda x: math.exp(-x * x) / (1.0 + x * x),
                      lambda x: mp.exp(-x * x) / (1 + x * x)),
    "kink-at-0": (lambda x: abs(x) * math.exp(-x * x), lambda x: abs(x) * mp.exp(-x * x)),
}


@pytest.mark.parametrize("name", sorted(_PROFILES))
@pytest.mark.parametrize("n", [0, 5, 17, 40])
def test_quadrature_matches_mpmath_beyond_gaussians(name, n):
    f, f_mp = _PROFILES[name]
    assert abs(hm.hermite_coeff_quadrature(f, n) - _mp_coeff(f_mp, n)) <= 1e-11


@pytest.mark.parametrize("c, n", [(0.37, 2), (0.5, 2), (-0.8, 3), (1.3, 1)])
def test_quadrature_resolves_a_step_inside_a_panel(c, n):
    # on a half of a bisected panel the two rules can agree to 1e-13 while
    # both are off by 1e-7; the change the bisection made keeps it searching
    step = lambda x: 1.0 if x < c else 0.0
    want = _mp_coeff(step, n, cuts=(0.0, c))
    assert abs(hm.hermite_coeff_quadrature(step, n) - want) <= 1e-11


def test_quadrature_refuses_at_the_panel_cap():
    # ~1600 periods per unit: no 400-panel grid of 14-point rules resolves them
    with pytest.raises(ToleranceNotMet):
        hm.hermite_coeff_quadrature(lambda x: math.exp(-x * x) * math.sin(1e4 * x), 3)


def test_expansion_reconstructs_profile():
    # partial sums of the expansion converge to the profile pointwise
    alpha = 0.8
    xs = np.linspace(-2.0, 2.0, 9)
    profile = np.exp(-alpha * xs ** 2)
    approx = np.zeros_like(xs)
    errs = []
    for n in range(0, 25, 2):
        approx += hm.gaussian_hermite_coeff(alpha, n) * hm.hermite_h(n, xs)
        errs.append(float(np.max(np.abs(approx - profile))))
    assert errs[-1] < 1e-6
    assert errs[-1] < errs[0]


def test_span_fit_recovers_exact_member():
    target = lambda x: math.exp(-x * x) - 0.5 * math.exp(-2.0 * x * x)
    fit = hm.gaussian_span_fit(target, [1.0, 2.0])
    np.testing.assert_allclose(fit.coeffs, [1.0, -0.5], atol=1e-7)
    assert fit.sup_err < 1e-9


def test_span_fit_improves_with_family_size():
    sech = lambda x: 1.0 / math.cosh(x)
    small = hm.gaussian_span_fit(sech, [0.3, 1.0])
    large = hm.gaussian_span_fit(sech, [0.2, 0.5, 1.0, 2.0])
    assert large.sup_err < small.sup_err


def test_span_fit_reports_conditioning():
    sech = lambda x: 1.0 / math.cosh(x)
    fit = hm.gaussian_span_fit(sech, [0.5, 1.0, 2.0])
    assert fit.condition > 1.0


def test_span_fit_refuses_degenerate_family_without_regularization():
    sech = lambda x: 1.0 / math.cosh(x)
    with pytest.raises(IllConditioned) as info:
        hm.gaussian_span_fit(sech, [1.0, 1.0001, 1.0002, 1.0003],
                             regularization=0.0, cond_cap=1e6)
    assert info.value.condition > 1e6


def test_span_fit_rejects_bad_rates():
    with pytest.raises(DomainError):
        hm.gaussian_span_fit(lambda x: 1.0, [])
    with pytest.raises(DomainError):
        hm.gaussian_span_fit(lambda x: 1.0, [1.0, -2.0])
