"""Dimensionally continued radial transform and its kernel."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from thetasum import transform as tr
from thetasum.errors import DomainError, ToleranceNotMet

GAUSS = tr.GaussPoly(((1.0, 0, 1.0),))


def test_gamma_fn_frozen_value():
    assert tr.gamma_fn(3.7) == pytest.approx(4.170651783796603, rel=1e-15)
    assert tr.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gamma_fn_matches_mpmath_on_grid():
    for x in (0.1, 0.75, 1.0, 2.5, 7.3, 15.0):
        assert tr.gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-14)


def test_gamma_fn_rejects_nonpositive():
    for bad in (0.0, -1.0, -2.5):
        with pytest.raises(DomainError):
            tr.gamma_fn(bad)


@pytest.mark.parametrize("z", [0.1, 1.0, 3.0, 7.0, 12.0])
def test_hyp0f1_cos_identity(z):
    # 0F1(1/2; -z^2/4) = cos z
    assert tr.hyp0f1(0.5, -z * z / 4.0) == pytest.approx(math.cos(z), abs=1e-12)


@pytest.mark.parametrize("z", [0.1, 1.0, 3.0, 7.0])
def test_hyp0f1_sinh_identity(z):
    # 0F1(3/2; z^2/4) = sinh(z)/z
    assert tr.hyp0f1(1.5, z * z / 4.0) == pytest.approx(math.sinh(z) / z, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.35])
@pytest.mark.parametrize("x", [18.0, 24.0, 26.0, 40.0])
def test_hyp0f1_routes_agree_near_switch(a, x):
    # mpmath as referee on both sides of the series/Bessel boundary
    for z in (x, -x):
        want = float(mp.hyp0f1(a, z))
        assert tr.hyp0f1(a, z) == pytest.approx(want, rel=1e-10)


def test_gausspoly_eval_vectorized():
    f = tr.GaussPoly(((2.0, 1, 0.5),))
    r = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(f.eval(r), 2.0 * r**2 * np.exp(-0.5 * r**2))


def test_gausspoly_validation():
    with pytest.raises(DomainError):
        tr.GaussPoly(((1.0, 0, -1.0),))
    with pytest.raises(DomainError):
        tr.GaussPoly(((1.0, -2, 1.0),))


@pytest.mark.parametrize("d", [1.0, 1.5, 2.0, 3.0, 4.2])
def test_gaussian_self_reciprocal(d):
    # e^{-pi r^2} is the fixed point in every dimension
    f = tr.GaussPoly(((1.0, 0, math.pi),))
    fhat = tr.ft_gausspoly(f, d)
    for p in (0.0, 0.4, 1.0, 2.0):
        assert fhat.eval(p) == pytest.approx(f.eval(p), rel=1e-13, abs=1e-15)


def test_gaussian_zero_frequency_is_total_mass():
    # d=2, alpha=1: integral of e^{-r^2} over the plane is pi
    fhat = tr.ft_gausspoly(GAUSS, 2.0)
    assert fhat.eval(0.0) == pytest.approx(math.pi, rel=1e-14)


def test_transform_is_linear():
    f1 = tr.GaussPoly(((1.0, 0, 1.0),))
    f2 = tr.GaussPoly(((1.0, 2, 2.0),))
    combo = tr.GaussPoly(((1.0, 0, 1.0), (-3.0, 2, 2.0)))
    d = 2.7
    h1, h2, hc = (tr.ft_gausspoly(g, d) for g in (f1, f2, combo))
    for p in (0.0, 0.5, 1.3):
        assert hc.eval(p) == pytest.approx(h1.eval(p) - 3.0 * h2.eval(p), rel=1e-12)


def test_double_transform_recovers_f():
    # the kernel is symmetric, so the transform is an involution
    f = tr.GaussPoly(((1.0, 0, 0.7), (0.4, 2, 1.3)))
    d = 3.4
    back = tr.ft_gausspoly(tr.ft_gausspoly(f, d), d)
    for r in (0.0, 0.5, 1.0, 2.0):
        assert back.eval(r) == pytest.approx(f.eval(r), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("d", [1.0, 1.5, 2.7, 4.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_closed_matches_quadrature(d, p):
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.5, 1, 2.0), (-0.2, 3, 0.8)))
    closed = tr.ft_closed(f, p, d)
    quad = tr.ft_quadrature(f, p, d)
    assert abs(closed - quad.value) <= 10.0 * quad.error + 1e-12


def test_classical_kernel_d1_cosine():
    # d=1 reduces to the even cosine transform
    f = tr.GaussPoly(((1.0, 2, 1.5),))
    for p in (0.0, 0.4, 1.1):
        want, _ = integrate.quad(
            lambda r: 2.0 * f.eval(r) * math.cos(2.0 * math.pi * p * r), 0, 12
        )
        assert tr.ft_closed(f, p, 1.0) == pytest.approx(want, abs=1e-10)


def test_classical_kernel_d2_bessel():
    from scipy.special import j0
    f = tr.GaussPoly(((1.0, 0, 1.0),))
    for p in (0.0, 0.5, 1.2):
        want, _ = integrate.quad(
            lambda r: 2.0 * math.pi * r * f.eval(r) * j0(2.0 * math.pi * p * r), 0, 12
        )
        assert tr.ft_closed(f, p, 2.0) == pytest.approx(want, abs=1e-10)


def test_classical_kernel_d3_sine():
    f = tr.GaussPoly(((1.0, 1, 0.9),))
    for p in (0.3, 0.8, 1.5):
        want, _ = integrate.quad(
            lambda r: 2.0 * r * f.eval(r) * math.sin(2.0 * math.pi * p * r) / p, 0, 14
        )
        assert tr.ft_closed(f, p, 3.0) == pytest.approx(want, abs=1e-10)


def test_sampled_route_matches_closed_form():
    s = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    for d in (1.5, 3.0):
        for p in (0.0, 0.7):
            got = tr.ft_quadrature(s, p, d)
            want = tr.ft_closed(GAUSS, p, d)
            assert abs(got.value - want) <= 10.0 * got.error + 1e-12


def test_quadrature_error_estimate_is_honest():
    # floor covers rounding noise the panel estimate cannot see
    f = tr.GaussPoly(((1.0, 2, 1.0), (0.3, 0, 3.0)))
    for d, p in ((1.5, 0.5), (2.7, 1.0), (4.0, 0.25)):
        got = tr.ft_quadrature(f, p, d)
        want = tr.ft_closed(f, p, d)
        assert abs(got.value - want) <= 10.0 * got.error + 1e-12


def test_laplacian_term_rule_frozen():
    # radial part of the Laplacian of e^{-r^2} at d=3: (4 r^2 - 6) e^{-r^2}
    lap = tr.laplacian_d(GAUSS, 3.0)
    assert sorted(lap.terms) == [(-6.0, 0, 1.0), (4.0, 1, 1.0)]


def test_laplacian_matches_finite_differences():
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.5, 2, 2.0)))
    d = 2.6
    lap = tr.laplacian_d(f, d)
    h = 1e-4  # balances truncation against cancellation in the second difference
    for r in (0.7, 1.3, 2.1):
        d2 = (f.eval(r + h) - 2.0 * f.eval(r) + f.eval(r - h)) / (h * h)
        d1 = (f.eval(r + h) - f.eval(r - h)) / (2.0 * h)
        want = d2 + (d - 1.0) / r * d1
        assert lap.eval(r) == pytest.approx(want, rel=1e-5, abs=1e-6)


def test_laplacian_iterates():
    one = tr.laplacian_d(tr.laplacian_d(GAUSS, 3.2), 3.2)
    two = tr.laplacian_d(GAUSS, 3.2, n=2)
    for r in (0.0, 0.9, 1.7):
        assert two.eval(r) == pytest.approx(one.eval(r), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1.5, 2.0, 3.7])
def test_eigen_residual_small(n, d):
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.2, 1, 2.0)))
    for p in (0.2, 1.0, 2.5):
        assert tr.eigen_residual(f, p, d, n=n) < 1e-9


def test_dimension_gate():
    with pytest.raises(DomainError):
        tr.ft_closed(GAUSS, 0.5, 0.5)
    settings = tr.TransformSettings(experimental_dim=True)
    val = tr.ft_closed(GAUSS, 0.5, 0.5, settings)
    assert math.isfinite(val)
    with pytest.raises(DomainError):
        tr.ft_closed(GAUSS, 0.5, 0.0, settings)


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        tr.ft_quadrature(GAUSS, -0.1, 2.0)


def test_unreachable_tolerance_raises():
    settings = tr.TransformSettings(rel_tol=1e-16, abs_tol=1e-30)
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature(GAUSS, 0.5, 3.0, settings)


def test_slow_decay_hint_exhausts_panels():
    s = tr.Sampled(lambda r: math.exp(-1e-6 * r * r), decay_hint=(1.0, 1e-6))
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature(s, 1.0, 3.0)


# -- shared-grid transform ---------------------------------------------------


def _as_sampled(g):
    """g behind the Sampled interface, with a valid decay hint:
    r^{2k} e^{-alpha r^2} <= (2k / (e alpha))^k e^{-alpha r^2 / 2}."""
    scale = sum(abs(c) * (2 * k / (math.e * a)) ** k for c, k, a in g.terms)

    def fn(r):
        return sum(c * r ** (2 * k) * math.exp(-a * r * r) for c, k, a in g.terms)
    return tr.Sampled(fn, decay_hint=(scale, min(a for _, _, a in g.terms) / 2))


HONESTY_PROFILES = [
    tr.GaussPoly(((1.0, 0, 1.0),)),
    tr.GaussPoly(((1.0, 0, 1.0), (0.5, 1, 2.0), (-0.2, 2, 0.8))),
    tr.GaussPoly(((0.7, 2, 3.0),)),
]


@pytest.mark.parametrize("d", [1.0, 1.5, 2.0, 2.7, 3.5, 4.0])
@pytest.mark.parametrize("g", HONESTY_PROFILES, ids=["gauss", "mixed", "r4"])
def test_shared_grid_error_estimate_is_honest(d, g):
    ps = np.sqrt([0.0, 1.0, 2.0, 5.0, 17.0, 100.0, 613.0, 4096.0])
    values, errors = tr.ft_quadrature_many(_as_sampled(g), ps, d)
    closed = tr.ft_gausspoly(g, d).eval(ps)
    prefactor = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    assert np.all(np.abs(values - closed) <= errors + 1e-15 * prefactor)
    assert np.all(errors < 1e-12)


def test_shared_grid_refuses_structure_finer_than_its_panels():
    # the panels follow the kernel period at the largest radius; a profile
    # oscillating several times per panel shows up as a disagreement of
    # the two rules, which must not pass as a value
    f = tr.Sampled(lambda r: math.exp(-r * r) * math.cos(40.0 * r), decay_hint=(1.0, 1.0))
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature_many(f, [0.0, 0.5], 2.5)


@pytest.mark.parametrize("d", [2.0, 2.5])
def test_shared_grid_matches_adaptive_oracle(d):
    # the cusp has no closed form; ft_quadrature is the independent route
    f = tr.Sampled(lambda r: math.exp(-r ** 3), decay_hint=(1.2, 1.0))
    ps = [0.0, 0.7, 3.1, 12.0]
    values, errors = tr.ft_quadrature_many(f, ps, d)
    for p, v, e in zip(ps, values, errors):
        want = tr.ft_quadrature(f, p, d)
        assert abs(v - want.value) <= e + want.error


def test_shared_grid_evaluates_the_profile_once():
    # the profile is sampled once per grid, not once per radius: 50 radii
    # cost as many calls as their largest alone, which fixes the panels
    calls = []

    def fn(r):
        calls.append(r)
        return math.exp(-r * r)

    f = tr.Sampled(fn, decay_hint=(1.0, 1.0))
    ps = np.sqrt(np.arange(50.0))
    tr.ft_quadrature_many(f, ps[-1:], 2.5)
    alone = len(calls)
    calls.clear()
    tr.ft_quadrature_many(f, ps, 2.5)
    assert len(calls) == alone == len(set(calls))


@pytest.mark.parametrize("a", [0.5, 0.75, 1.0, 1.35, 1.5, 2.0, 2.35])
def test_vectorised_kernel_matches_scalar_across_series_switch(a):
    z = np.array([0.0, 1e-3, 0.5, 7.0, 24.0, 24.99, 25.01, 26.0, 400.0, 4e4])
    assert tr._SERIES_SWITCH == 25.0
    got = tr._kernel(a, np.sqrt(z))
    want = [tr.hyp0f1(a, -zz) for zz in z]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_shared_grid_rejects_bad_input():
    with pytest.raises(DomainError):
        tr.ft_quadrature_many(GAUSS, [0.5, -0.1], 2.0)
    nan = tr.Sampled(lambda r: math.nan, decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError):
        tr.ft_quadrature_many(nan, [0.0, 1.0], 2.0)
    values, errors = tr.ft_quadrature_many(GAUSS, [], 2.0)
    assert values.size == errors.size == 0


def test_shared_grid_unreachable_tolerance_raises():
    settings = tr.TransformSettings(rel_tol=1e-16, abs_tol=1e-30)
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature_many(GAUSS, [0.5, 1.0], 3.0, settings)
