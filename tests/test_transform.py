"""Dimensionally continued radial transform and its kernel."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from thetasum import _grid as gr
from thetasum import transform as tr
from thetasum.errors import DomainError, ToleranceNotMet

GAUSS = tr.GaussPoly(((1.0, 0, 1.0),))


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


@pytest.mark.parametrize("a, z", [(400.0, -26.0), (400.0, 26.0), (400.0, -399.0),
                                  (200.0, -30.0), (172.0, -26.0)])
def test_hyp0f1_takes_the_series_where_every_term_is_below_the_first(a, z):
    # past |z| = 25 but within |z| <= a: the Bessel relation's front
    # Gamma(a) x^{-(a-1)/2} passed the doubles at a = 400 although the value
    # is O(1), and special.jv erred by 1.1e-13 at (200, -30); the exactly
    # rounded series matches mpmath to the last bit
    with mp.workdps(40):
        want = float(mp.hyp0f1(a, z))
    assert tr.hyp0f1(a, z) == want


@pytest.mark.parametrize("a, z", [(400.0, -450.0), (2.5, 3e5)])
def test_hyp0f1_refuses_a_bessel_product_past_the_doubles(a, z):
    # J_399(2 sqrt 450) underflows although the value is 0.324; at
    # (2.5, 3e5) the value itself is past the doubles
    with pytest.raises(DomainError, match=f"hyp0f1\\({a!r}, {z!r}\\)"):
        tr.hyp0f1(a, z)


def test_gausspoly_eval_vectorized():
    f = tr.GaussPoly(((2.0, 1, 0.5),))
    r = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(f.eval(r), 2.0 * r**2 * np.exp(-0.5 * r**2))


def test_gausspoly_validation():
    with pytest.raises(DomainError):
        tr.GaussPoly(((1.0, 0, -1.0),))
    with pytest.raises(DomainError):
        tr.GaussPoly(((1.0, -2, 1.0),))
    for k in (True, 2.0):  # read as degree 1 and 2
        with pytest.raises(DomainError, match="polynomial degree must be an integer >= 0"):
            tr.GaussPoly(((1.0, k, 1.0),))
    with pytest.raises(DomainError, match="GaussPoly without terms"):
        tr.GaussPoly(())


@pytest.mark.parametrize("n", [1.5, 2.0, True, "1"])
def test_laplacian_count_must_be_an_integer(n):
    # 1.5 was applied once, True once and "1" once
    with pytest.raises(DomainError, match="repetition count must be an integer >= 0"):
        tr.laplacian_d(GAUSS, 2.0, n)


def test_sampled_eval_gives_the_profile_bit_for_bit():
    def fn(r):
        return math.exp(-r * r) * math.cos(3.0 * r)

    f = tr.Sampled(fn, decay_hint=(1.0, 1.0))
    r = np.random.default_rng(4).uniform(0.0, 6.0, 3000)
    assert np.array_equal(f.eval(r), np.array([fn(float(x)) for x in r]))
    assert f.eval(r.reshape(60, 50)).shape == (60, 50)
    assert f.eval(0.25) == fn(0.25) and isinstance(f.eval(0.25), float)
    assert f.eval(np.float32(0.5)) == fn(0.5)


@pytest.mark.parametrize("bad", [1.0 + 2.0j, np.complex128(1.0 + 2.0j), "a", [1.0],
                                 math.nan, math.inf, np.float64(-math.inf)],
                         ids=["complex", "numpy-complex", "text", "list", "nan", "inf", "numpy-minus-inf"])
def test_sampled_eval_refuses_a_value_that_is_no_real_number(bad):
    # the first radius past 0.5 is 0.75: the error names it; a complex value
    # is refused, not cut to its real part behind numpy's ComplexWarning
    f = tr.Sampled(lambda r: bad if r > 0.5 else 1.0, decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError, match="at r = 0.75"):
        f.eval([0.0, 0.25, 0.75, 1.0])
    with pytest.raises(DomainError, match="at r = 0.75"):
        f.eval(0.75)


def test_sampled_eval_lets_the_profile_raise():
    def fn(r):
        raise ValueError("profile failed")

    with pytest.raises(ValueError, match="profile failed"):
        tr.Sampled(fn, decay_hint=(1.0, 1.0)).eval([0.5])


@pytest.mark.parametrize("hint", [(1.0,), (1, 1, 2), None, ("a", 1.0), "12", (1.0, 1j),
                                  (0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan),
                                  ("2.5", 1.0), (1.0, True)])
def test_sampled_refuses_a_bad_decay_hint(hint):
    with pytest.raises(DomainError, match="decay_hint"):
        tr.Sampled(math.exp, decay_hint=hint)


def test_sampled_refuses_a_profile_that_is_not_callable():
    with pytest.raises(DomainError, match="callable"):
        tr.Sampled(2.0, decay_hint=(1.0, 1.0))
    assert tr.Sampled(math.exp, decay_hint=[1, 2]).decay_hint == (1.0, 2.0)


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


@pytest.mark.parametrize("d", [1.0, 1.5, 2.4131, 3.3, 8.0, 12.7])
def test_closed_form_is_the_laguerre_transform(d):
    # c r^{2k} e^{-alpha r^2} -> c k! alpha^-k (pi/alpha)^s e^{-x} L_k^{(s-1)}(x),
    # x = pi^2 p^2 / alpha, s = d/2: the coefficient of p^{2j} e^{-x} is
    # c (pi/alpha)^s (-1)^j C(k, j) Gamma(k+s)/Gamma(j+s) alpha^-(k+j) pi^{2j}
    worst = 0.0
    with mp.workdps(30):
        s = mp.mpf(d) / 2
        for k in range(9):
            for alpha in (0.05, 1.0, 20.0):
                for c in (1.3, -0.7):
                    got = tr.ft_gausspoly(tr.GaussPoly(((c, k, alpha),)), d).terms
                    assert [j for _, j, _ in got] == list(range(k + 1))
                    a = mp.mpf(alpha)
                    for coeff, j, rate in got:
                        want = (mp.mpf(c) * (mp.pi / a) ** s * (-1) ** j * mp.binomial(k, j)
                                * mp.gamma(k + s) / mp.gamma(j + s) * a ** -(k + j)
                                * mp.pi ** (2 * j))
                        worst = max(worst, float(abs(coeff / want - 1)),
                                    float(abs(rate / (mp.pi**2 / a) - 1)))
    assert worst <= 4e-15


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
    # one rule, d > 0, with no switch
    want = math.pi**0.25 * math.exp(-(math.pi * 0.5) ** 2)
    assert tr.ft_closed(GAUSS, 0.5, 0.5) == pytest.approx(want, rel=1e-14)
    for d in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match=f"dimension parameter must be finite and positive, got {d!r}$"):
            tr.ft_gausspoly(GAUSS, d)
        for route in (lambda: tr.ft_quadrature(GAUSS, 0.5, d),
                      lambda: gr.ft_quadrature_many(GAUSS, [0.5], d)):
            with pytest.raises(DomainError,
                               match=f"dimension parameter must be finite and positive, got {d!r}$"):
                route()
    for d in (True, "2.5"):  # ft_gausspoly took them as d = 1 and 2.5
        for route in (lambda: tr.ft_gausspoly(GAUSS, d), lambda: tr.ft_closed(GAUSS, 0.5, d),
                      lambda: tr.laplacian_d(GAUSS, d), lambda: tr.eigen_residual(GAUSS, 0.5, d),
                      lambda: tr.ft_quadrature(GAUSS, 0.5, d),
                      lambda: gr.ft_quadrature_many(GAUSS, [0.5], d)):
            with pytest.raises(DomainError, match="dimension parameter must be a real number"):
                route()
    with pytest.raises(TypeError):
        tr.ft_gausspoly(GAUSS, 0.5, experimental_dim=True)


MIXED = tr.GaussPoly(((1.0, 2, 0.3), (0.5, 0, 2.0)))


@pytest.mark.parametrize("d", [0.05, 0.1, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("g", [GAUSS, MIXED], ids=["gauss", "r4-mixed"])
def test_quadrature_estimates_hold_below_dimension_one(d, g):
    # below d = 1 the kernel grows like x^{1/2 - d/2}, and the radial tail
    # takes it from _kernel_bound: with the bound |0F1| <= 1 the shared grid
    # erred by up to 76 times its estimate at d = 0.05; the adaptive route,
    # with r^{d-1} in a plain integrand instead of the weight of QAWS, by
    # up to 3.9 times
    ps = np.linspace(0.0, 6.0, 61)
    want = tr.ft_gausspoly(g, d).eval(ps)
    values, errors = gr.ft_quadrature_many(g, ps, d)
    assert np.all(np.abs(values - want) <= errors)
    for p, w in zip(ps[::10].tolist(), want[::10].tolist()):
        res = tr.ft_quadrature(g, p, d)
        assert abs(res.value - w) <= res.error


@pytest.mark.parametrize("d", [0.01, 0.1, 0.5, 0.9, 0.998])
def test_kernel_bound_holds_below_dimension_one(d):
    # (1 + 1/a) + 1.05 Gamma(a)/sqrt(pi) x^{1/2-a} above |0F1(a; -x^2)|, a = d/2,
    # at x = top r; from d = 1 on, and at top = 0, the bound is 1
    top = 2.5
    r = np.concatenate([np.linspace(0.0, 1.0, 41), np.geomspace(1.0, 120.0, 120)])
    with mp.workdps(20):
        want = np.array([abs(float(mp.hyp0f1(0.5 * d, -mp.mpf(top * v) ** 2))) for v in r.tolist()])
    bound = sum(math.exp(log_b) * r**e for log_b, e in tr._kernel_bound(d, top))
    assert np.all(want <= bound)
    assert tr._kernel_bound(d, 0.0) == tr._kernel_bound(1.0, top) == [(0.0, 0.0)]


@pytest.mark.parametrize("d", [1e-3, 1e-8, 1e-13, 1e-300, 5e-324])
def test_tiny_dimension_transforms_hold_or_fail_fast(d):
    # every d > 0 is taken; a quadrature route that cannot resolve r^{d-1}
    # there raises DomainError, and never returns a value off its estimate
    ps = [0.0, 0.5, 3.0]
    closed = tr.ft_gausspoly(GAUSS, d).eval(np.array(ps))
    with mp.workdps(30):
        exact = [float(mp.pi ** (mp.mpf(d) / 2) * mp.exp(-(mp.pi * p) ** 2)) for p in ps]
    # e^{-pi^2 p^2} rounds like its exponent: 1e-14 relative at p = 3
    assert closed.tolist() == pytest.approx(exact, rel=2e-14, abs=0.0)
    try:
        values, errors = gr.ft_quadrature_many(GAUSS, ps, d)
        assert np.all(np.abs(values - closed) <= errors)
    except DomainError:
        assert d < gr._GRID_LEAST_DIM
    try:
        res = tr.ft_quadrature(GAUSS, 0.5, d)
        assert abs(res.value - closed[1]) <= res.error
    except DomainError:
        assert d < tr._QAWS_LEAST_DIM


@pytest.mark.parametrize("d", [0.0005, 0.003])
def test_shared_grid_bounds_the_tail_at_a_small_gamma_order(d):
    # the tail of the 1e-13 term is bounded at the small order a = d/2 of
    # Gamma(a, x), where Q(a, x) from 1 - P would keep no digits
    f = tr.GaussPoly(((1.0, 0, 1.0), (1e-13, 0, 0.5)))
    values, errors = gr.ft_quadrature_many(f, [0.0], d)
    assert abs(values[0] - tr.ft_gausspoly(f, d).eval(0.0)) <= errors[0]


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        tr.ft_quadrature(GAUSS, -0.1, 2.0)
    for p in (-0.1, math.nan, math.inf):
        for route in (tr.ft_quadrature, tr.ft_closed, tr.eigen_residual):
            with pytest.raises(DomainError, match="p must be finite and nonnegative"):
                route(GAUSS, p, 2.5)
    for p in (True, "0.5"):  # ft_closed took "0.5" as p = 0.5
        for route in (tr.ft_quadrature, tr.ft_closed, tr.eigen_residual):
            with pytest.raises(DomainError, match="p must be a real number"):
                route(GAUSS, p, 2.5)


def test_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(tr, "_REL_TOL", 1e-16)
    monkeypatch.setattr(tr, "_ABS_TOL", 1e-30)
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature(GAUSS, 0.5, 3.0)


def test_quadrature_refuses_an_error_above_tolerance(monkeypatch):
    # the integral converges, but a radial tail of 1e-6 is left out
    monkeypatch.setattr(tr, "_radial_tail", lambda f, R, d, top: 1e-6)
    with pytest.raises(ToleranceNotMet, match="above requested tolerance"):
        tr.ft_quadrature(GAUSS, 0.5, 3.0)


def test_slow_decay_hint_exhausts_panels():
    s = tr.Sampled(lambda r: math.exp(-1e-6 * r * r), decay_hint=(1.0, 1e-6))
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature(s, 1.0, 3.0)


@pytest.mark.parametrize("d", [1.0, 2.0, 2.5, 3.5])
@pytest.mark.parametrize("hint", [(1.2, 1.0), (1.0, 0.907), (1.01, 0.655), (1.0, 3.7)])
@pytest.mark.parametrize("abs_tol", [1e-12, 1e-8])
def test_radius_meets_tail_budget_without_overshoot(d, hint, abs_tol):
    # R is where the tail bound meets its budget, not a step past it
    f = tr.Sampled(lambda r: 0.0, decay_hint=hint)
    prefactor = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    budget = 0.1 * abs_tol / prefactor
    R = tr._choose_r_max(f, d, budget)
    assert tr._radial_tail(f, R, d) <= budget < tr._radial_tail(f, 0.99 * R, d)


def test_radius_splits_tail_budget_over_envelope_terms():
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.5, 1, 2.0), (-0.2, 2, 0.8)))
    for budget in (1e-14, 1e-10, 1e-4):
        R = tr._choose_r_max(f, 2.5, budget)
        assert tr._radial_tail(f, R, 2.5) < budget


@pytest.mark.parametrize("a", [0.0015, 0.5, 1.0, 1.25, 2.0, 7.5, 20.0, 64.0, 200.0])
def test_tail_bound_holds_and_is_tight_against_mpmath(a):
    # the closed-form bound on Gamma(a, x), x from a/20 to 12 a + 60: never
    # below it, and within a factor e^0.15 of it from x = a + 30 on, where
    # the tail budgets of both quadrature routes put their radii
    x = np.concatenate([np.geomspace(a / 20.0, 12.0 * a + 60.0, 60), [a + 30.0, a + 60.0]])
    for v in x.tolist():
        with mp.workdps(40):
            want = float(mp.log(mp.gammainc(a, v, mp.inf)))
        got = tr._log_gamma_bound(a, v)
        assert got >= want
        if v >= a + 30.0:
            assert got - want <= 0.15
    assert tr._log_gamma_bound(a, 0.0) == math.lgamma(a)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(d=st.floats(0.02, 400.0),
       top=st.sampled_from([0.0, 0.5, 3.0, 200.0]),
       terms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(0, 3), st.floats(1e-2, 1e2)),
                      min_size=1, max_size=3),
       sampled=st.booleans(),
       budget=st.floats(1e-200, 1e3))
def test_radius_meets_any_tail_budget(d, top, terms, sampled, budget):
    # the tail bound at the radius chosen for a budget is below it, for
    # Gaussian-polynomial envelopes and decay hints alike, at any dimension
    # up to 400 (where Gamma(d/2) and the whole integral pass the doubles),
    # and below d = 1 with the kernel's growth up to x = top r
    if sampled:
        c, _, alpha = terms[0]
        f = tr.Sampled(math.exp, decay_hint=(c, alpha))
    else:
        f = tr.GaussPoly(tuple(terms))
    R = tr._choose_r_max(f, d, budget, top)
    assert 0.0 < R < math.inf
    assert tr._radial_tail(f, R, d, top) < budget


@pytest.mark.parametrize("budget", [0.0, -1.0, math.nan])
def test_radius_refuses_a_budget_that_is_not_positive(budget):
    with pytest.raises(ToleranceNotMet, match="could not bound the radial tail below"):
        tr._choose_r_max(GAUSS, 2.0, budget)


@pytest.mark.parametrize("rate", [5e-324, 1e-310])
def test_radius_refuses_a_rate_whose_radius_is_past_the_doubles(rate):
    # the tail's root alpha R^2 is a few hundred, so R^2 overflows; both
    # quadrature routes refuse rather than integrate to R = inf
    for f in (tr.GaussPoly(((1.0, 0, rate),)), tr.Sampled(math.exp, decay_hint=(1.0, rate))):
        with pytest.raises(ToleranceNotMet, match="could not bound the radial tail below"):
            tr._choose_r_max(f, 2.0, 1e-13)
        with pytest.raises(ToleranceNotMet, match="could not bound the radial tail below"):
            gr.ft_quadrature_many(f, [0.5], 2.0)
        with pytest.raises(ToleranceNotMet, match="could not bound the radial tail below"):
            tr.ft_quadrature(f, 0.5, 2.0)


def test_gamma_bound_root_returns_its_bracket_after_its_steps():
    # a root near e^-100, at a far below any gamma order the routes make
    # (a >= 2^-41 there): the bisection from x = 1 halves its way down and
    # stops after 100 steps at the bracket's upper end, where the term is
    # already below log_u, so a radius from it still meets its budget
    a, log_u = 1e-300, 100.0
    x = tr._gamma_bound_root(a, log_u)
    assert 0.0 < x < 1e-20
    assert (a - 1.0) * math.log(x) - x < log_u


def test_choosing_the_radius_takes_microseconds():
    # budget of a shared grid at d = 2.7: a few Newton steps from the
    # asymptotic first guess (best of 200 calls; scipy's gammainccinv took
    # 8 us a call, the closed-form bound here 3-8 us on a 2-core Xeon)
    import time

    f = tr.Sampled(math.exp, decay_hint=(1.0, 1.0))
    _, _, _, prefactor, _, _ = tr._radial_setup(f, 2.7, 1.0, 0.0)  # base 1: the factor is the constant
    budget = 0.1 * tr._ABS_TOL / prefactor
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        tr._choose_r_max(f, 2.7, budget)
        best = min(best, time.perf_counter() - t0)
    assert best < 100e-6


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
    values, errors = gr.ft_quadrature_many(_as_sampled(g), ps, d)
    closed = tr.ft_gausspoly(g, d).eval(ps)
    prefactor = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    # every radius whose actual error is above the rounding floor
    # 1e-15 * prefactor keeps it under 0.6 of its estimate
    assert np.all(np.abs(values - closed) <= np.maximum(0.6 * errors, 1e-15 * prefactor))
    assert np.all(errors < 1e-12)


def test_shared_grid_refuses_structure_finer_than_its_panels():
    # the panels follow the kernel period at the largest radius; a profile
    # oscillating several times per panel shows up as a disagreement of
    # the two rules, which must not pass as a value
    f = tr.Sampled(lambda r: math.exp(-r * r) * math.cos(40.0 * r), decay_hint=(1.0, 1.0))
    with pytest.raises(ToleranceNotMet):
        gr.ft_quadrature_many(f, [0.0, 0.5], 2.5)


CUSP = tr.Sampled(lambda r: math.exp(-r ** 3), decay_hint=(1.2, 1.0))


@pytest.mark.parametrize("d", [0.3, 0.9, 1.9, 2.0, 2.5, 3.5])
def test_shared_grid_matches_adaptive_oracle(d):
    # the cusp has no closed form; ft_quadrature is the independent route
    # (QAWS below d = 1).  At non-integer d the kernel at 12.0 is mostly
    # the Hankel expansion.
    ps = [0.0, 0.7, 3.1, 12.0]
    values, errors = gr.ft_quadrature_many(CUSP, ps, d)
    for p, v, e in zip(ps, values, errors):
        want = tr.ft_quadrature(CUSP, p, d)
        assert abs(v - want.value) <= e + want.error


def test_adaptive_oracle_never_reaches_the_shared_grid_kernel(monkeypatch):
    # ft_quadrature stays on hyp0f1 and special.jv, so it checks the
    # Hankel expansion and the recurrence of the shared grid instead of
    # sharing them
    def refuse(*args):
        raise AssertionError("ft_quadrature called the shared-grid kernel")

    monkeypatch.setattr(gr, "_kernel", refuse)
    monkeypatch.setattr(gr, "_hankel_panels", refuse)
    monkeypatch.setattr(gr, "_near_kernel", refuse)
    monkeypatch.setattr(gr, "_miller_norms", refuse)
    for d in (1.9, 3.5):
        for p in (0.7, 12.0):
            assert math.isfinite(tr.ft_quadrature(CUSP, p, d).value)


def test_shared_grid_evaluates_the_profile_once():
    # the profile is sampled once per grid, not once per radius: 50 radii
    # cost as many calls as their largest alone, which fixes the panels
    calls = []

    def fn(r):
        calls.append(r)
        return math.exp(-r * r)

    f = tr.Sampled(fn, decay_hint=(1.0, 1.0))
    ps = np.sqrt(np.arange(50.0))
    gr.ft_quadrature_many(f, ps[-1:], 2.5)
    alone = len(calls)
    calls.clear()
    gr.ft_quadrature_many(f, ps, 2.5)
    assert len(calls) == alone == len(set(calls))


@pytest.mark.parametrize("a", [0.5, 0.75, 1.0, 1.35, 1.5, 2.0, 2.35])
def test_vectorised_kernel_matches_scalar_across_series_switch(a):
    # z = x^2 straddles the series switch of hyp0f1 (z = 25), the least
    # Hankel start of _kernel (2x = 22, z = 121) and the start at order a - 1
    z0 = (0.5 * gr._hankel_tiers(a - 1.0)[0].start) ** 2
    z = np.array([0.0, 1e-3, 0.5, 7.0, 24.0, 24.99, 25.01, 26.0, 120.0, 120.99, 121.0,
                  121.01, 122.0, z0 * (1 - 1e-9), z0, z0 * (1 + 1e-9), 400.0, 4e4])
    assert tr._SERIES_SWITCH == 25.0
    assert gr._HANKEL_SWITCH == 22.0
    got = gr._kernel(a, np.sqrt(z))
    want = [tr.hyp0f1(a, -zz) for zz in z]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_hankel_start_follows_the_order():
    # the least start wherever 18 terms already meet 2^-53 there (and where
    # the expansion ends, at half-integer order), later at higher order.
    # Past |nu| = 18.5, where DLMF 10.17(iii) stops bounding the remainder
    # of 18 terms by the first omitted one, the terms grow with the order
    # and the start stays finite, where no term exceeds _HANKEL_LARGEST
    start = {nu: gr._hankel_tiers(nu)[0].start
             for nu in (-0.5, 0.5, 11.5, 0.25, -0.25, 7.0, 11.0, 18.0, 18.5, 23.0, 62.0, 199.0)}
    assert start[-0.5] == start[0.5] == start[11.5] == 22.0
    assert 22.0 < start[0.25] == start[-0.25] < 23.0
    assert start[7.0] < start[11.0] < start[18.0]
    assert math.isfinite(start[18.5])
    for nu in (19.0, 23.0, 31.0, 62.0, 199.0):
        tier = gr._hankel_tiers(nu)[0]
        terms = 2 * len(tier.even)
        assert tier.start < math.inf
        assert terms >= nu - 0.5 and terms > gr._HANKEL_TERMS
        assert max(map(abs, tier.even + tier.odd)) <= gr._HANKEL_LARGEST * (1 + 1e-12)
    assert start[23.0] < start[62.0] < start[199.0]


def test_hankel_tiers_take_fewer_terms_further_out():
    # at d = 2: 18 terms from the start, 12 from 2x = 50 and 8 from 200
    tiers = gr._hankel_tiers(0.0)
    assert [t.start for t in tiers][1:] == [50.0, 200.0]
    assert [2 * len(t.even) for t in tiers] == [18, 12, 8]
    # a tier is kept only where it saves terms
    assert len(gr._hankel_tiers(18.0)) == 1


@pytest.mark.parametrize("d", [1.0, 1.5, 1.9, 2.0, 2.5, 2.7, 3.0, 3.5, 3.9, 4.2, 8.0,
                               16.0, 24.0, 24.5, 25.0, 38.0, 40.0])
def test_kernel_matches_mpmath_hyp0f1(d):
    # from just below the least Hankel start, and from just below the start
    # at this order, up to x = pi p R, the largest kernel argument of a
    # shared grid for p = 64, with R the radius the grid takes for the cusp.
    # The error is measured against the kernel envelope
    # Gamma(a)/sqrt(pi) x^{1/2-a}: within 1.1e-14 of it, or no worse than
    # scipy's special.jv where that itself misses the bar (past d = 30,
    # between the turning point and the Hankel start).  special.jv is only
    # the yardstick: the grid calls no scipy at any d.  At d = 2 the bar
    # also admits the 2 eps x^{1/2} per entry that the rounding floor of
    # ft_quadrature_many budgets for the rounding of the phase; there the
    # kernel measured within 1.6e-15 of the envelope on the whole range.
    a = 0.5 * d
    starts = [0.5 * gr._HANKEL_SWITCH, 0.5 * min(gr._hankel_tiers(a - 1.0)[0].start, 200.0)]
    prefactor = 2.0 * math.pi**a / math.gamma(a)
    top = math.pi * 64 * tr._choose_r_max(CUSP, d, 1e-13 / prefactor)
    x = np.concatenate([x0 + np.linspace(-0.05, 0.05, 11) for x0 in starts]
                       + [np.geomspace(starts[0] + 0.1, top, 50)])
    got = gr._kernel(a, x)
    with mp.workdps(40):
        want = np.array([float(mp.hyp0f1(a, -mp.mpf(v) ** 2)) for v in x.tolist()])
    envelope = math.gamma(a) / math.sqrt(math.pi) * x ** (0.5 - a)
    if d == 2.0:
        allowed = np.maximum(1.1e-14 * envelope, 2.0 * 2.0**-52 * np.sqrt(x))
    else:
        jv = math.gamma(a) * x ** (1.0 - a) * special.jv(a - 1.0, 2.0 * x)
        allowed = np.maximum(1.1e-14 * envelope, np.abs(jv - want))
    assert np.all(np.abs(got - want) <= allowed)


NEAR_DIMS = [0.1, 0.5, 1.0, 1.3, 1.5, 1.9, 2.5, 2.7, 3.5, 4.2, 8.0, 16.0, 24.0, 24.5, 30.0, 38.0, 39.0,
             40.0, 48.0, 64.0]


def _near_scale(a, x, want):
    """What a kernel entry's error is measured against below the Hankel
    start: the envelope Gamma(a)/sqrt(pi) x^{1/2-a}, or |value| where that
    is larger, and from d = 1 on never more than 1, which there bounds
    |0F1(a; -x^2)| (DLMF 10.14.4, a >= 1/2): below the turning point the
    envelope is far above the value.  Below d = 1 the kernel itself grows
    like the envelope, and the scale takes no cap."""
    with np.errstate(divide="ignore"):
        envelope = math.gamma(a) / math.sqrt(math.pi) * x ** (0.5 - a)
    scale = np.maximum(envelope, np.abs(want))
    return scale if a < 0.5 else np.minimum(scale, 1.0)


def _hyp0f1_40_digits(a, x):
    with mp.workdps(40):
        return np.array([float(mp.hyp0f1(a, -mp.mpf(v) ** 2)) for v in np.asarray(x).tolist()])


@pytest.mark.parametrize("d", NEAR_DIMS)
def test_kernel_below_the_hankel_start_matches_mpmath(d):
    # the series up to x = 1 and Miller's recurrence above, on [0, start/2):
    # x = 0, 1e-8, both sides of the switch at x = 1, the last x below the
    # start, and random x.  Within 1.1e-14 of the scale up to d = 30; past
    # it no worse than special.jv where that misses the bar too.  The x up
    # to 2 are checked again as a chunk of their own, whose start index is
    # the least, where the order lies far above z
    a = 0.5 * d
    end = 0.5 * gr._hankel_tiers(a - 1.0)[0].start
    rng = np.random.default_rng(int(10 * d))
    x = np.concatenate([[0.0, 1e-8, 1.0 - 1e-9, 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-9,
                         np.nextafter(end, 0.0)], rng.uniform(0.0, end, 80)])
    want = _hyp0f1_40_digits(a, x)
    allowed = 1.1e-14 * _near_scale(a, x, want)
    if d > 30.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            jv = np.where(x == 0.0, 1.0, math.gamma(a) * x ** (1.0 - a) * special.jv(a - 1.0, 2.0 * x))
        allowed = np.maximum(allowed, np.abs(jv - want))
    assert np.all(np.abs(gr._kernel(a, x) - want) <= allowed)
    small = x <= 2.0
    assert np.all(np.abs(gr._kernel(a, x[small]) - want[small]) <= allowed[small])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended long double to see truncation below the rounding")
@pytest.mark.parametrize("d", NEAR_DIMS)
def test_recurrence_start_index_has_converged(d, monkeypatch):
    # one more entry 21 above the largest z of a chunk raises its start index
    # by at least 20; no other entry moves by more than 2^-52 of its scale.
    # Run in long double, so the difference is the truncation of the lower
    # start, not the rounding of two runs
    starts = []
    norms = gr._miller_norms

    def recording_norms(mu, top):
        starts.append(2 * top)
        return norms(mu, top)

    monkeypatch.setattr(gr, "_miller_norms", recording_norms)
    a = 0.5 * d
    end = 0.5 * gr._hankel_tiers(a - 1.0)[0].start
    rng = np.random.default_rng(int(10 * d))
    x = np.concatenate([[np.nextafter(1.0, 2.0), np.nextafter(end, 0.0)],
                        rng.uniform(1.0, end, 80)]).astype(np.longdouble)
    alone = gr._near_kernel(a, x)
    raised = gr._near_kernel(a, np.append(x, end + 10.5))[:-1]
    assert starts[1] >= starts[0] + 20
    scale = _near_scale(a, x.astype(np.float64), alone.astype(np.float64))
    assert np.all(np.abs(raised - alone) <= 2.0**-52 * scale)


def test_recurrence_mixing_the_ends_of_the_near_region_stays_finite():
    # at d = 39 the start index of a chunk reaching the Hankel start (2x near
    # 104) is 190, and the recurrence values at z just above 2 grow by about
    # 190! from it: they must stay finite and normal, with no numpy warning
    a = 19.5
    end = 0.5 * gr._hankel_tiers(a - 1.0)[0].start
    x = np.array([np.nextafter(1.0, 2.0), 1.0 + 1e-6, 1.5, 0.25 * end, np.nextafter(end, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gr._kernel(a, x)
    want = _hyp0f1_40_digits(a, x)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1.1e-14 * _near_scale(a, x, want))


@pytest.mark.parametrize("d", [1.5, 1.9, 2.7, 3.5, 8.0])
def test_shared_grid_never_calls_jv(d, monkeypatch):
    # below the Hankel start the shared grid runs the series and Miller's
    # recurrence on numpy; special.jv is left to hyp0f1, and the grid calls
    # no scipy at any d (test_cold_start pins its imports)
    def refuse(*args):
        raise AssertionError("the shared grid called special.jv")

    near = []
    near_kernel = gr._near_kernel

    def recording_near(a, x):
        near.append(x.size)
        return near_kernel(a, x)

    monkeypatch.setattr(special, "jv", refuse)
    monkeypatch.setattr(gr, "_near_kernel", recording_near)
    values, errors = gr.ft_quadrature_many(CUSP, [0.0, 0.7, 3.1, 12.0], d)
    assert np.all(np.isfinite(values)) and sum(near) > 0


def test_shared_grid_kernel_memory_is_bounded():
    # traced peak of the 4096-radius grid; 32.5 MiB was the peak with
    # special.jv on the whole axis and 2^20-entry chunks
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    ps = np.sqrt(np.arange(4096.0))
    gr.ft_quadrature_many(f, ps[:2], 2.5)  # imports scipy outside the trace
    tracemalloc.start()
    try:
        gr.ft_quadrature_many(f, ps, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32.5 * 2**20


@pytest.mark.parametrize("n", [10, 14])
@pytest.mark.parametrize("d", [0.1, 0.5, 1.5, 2.0, 2.7, 8.0, 24.0, 39.0, 64.0])
def test_gauss_jacobi_rule_matches_mpmath(n, d):
    # nodes: Newton on P_n^(0, d-1) at 30 digits from ours; weights
    # 2^d / ((1 - x^2) P_n'(x)^2).  Within 2^-52 on the nodes, and 2^-46
    # relative on the weights (plain Golub-Welsch missed the smallest
    # weight at d = 39 by 5e-10); below d = 1, beta = d - 1 lies in (-1, 0)
    beta = d - 1.0
    xs, ws = gr._gauss_jacobi(n, d)
    with mp.workdps(30):
        for x, w in zip(xs.tolist(), ws.tolist()):
            t = mp.mpf(x)
            for _ in range(4):
                dP = (n + beta + 1) / mp.mpf(2) * mp.jacobi(n - 1, 1, beta + 1, t)
                t -= mp.jacobi(n, 0, beta, t) / dP
            dP = (n + beta + 1) / mp.mpf(2) * mp.jacobi(n - 1, 1, beta + 1, t)
            weight = mp.mpf(2) ** d / ((1 - t * t) * dP * dP)
            assert abs(x - t) <= 2.0**-52
            assert abs(w - weight) <= 2.0**-46 * weight
    assert np.all(np.diff(xs) > 0.0)
    nodes = gr._gauss_nodes(n, d)
    assert np.array_equal(nodes[0], xs) and np.array_equal(nodes[1], ws)
    assert all(np.array_equal(a, b) for a, b in zip(nodes[2:], np.polynomial.legendre.leggauss(n)))


@pytest.mark.parametrize("a", [0.95, 1.0, 1.35, 2.0, 12.0])
def test_panel_kernel_matches_the_kernel(a):
    # the angle of each panel plus the offset of each node, by the addition
    # theorem: within 1.1e-14 of the envelope of the kernel at z = theta +
    # phi, less the rounding of that sum, which _hankel_panels never forms
    rng = np.random.default_rng(int(10 * a))
    tiers = gr._hankel_tiers(a - 1.0)
    turn = 2.0 * math.pi * rng.uniform(8.0, 12.0, 3)
    h = 0.05
    phi = np.outer(turn, rng.uniform(0.0, h, 7))
    theta = np.outer(turn, h * np.arange(200, 260))
    z = theta[:, None, :] + phi[:, :, None]
    got = np.concatenate([gr._hankel_panels(a, t, theta, phi) for t in tiers], axis=1)
    want = np.concatenate([gr._kernel(a, 0.5 * z)] * len(tiers), axis=1)
    envelope = math.gamma(a) / math.sqrt(math.pi) * (0.5 * z) ** (0.5 - a)
    envelope = np.concatenate([envelope] * len(tiers), axis=1)
    zz = np.concatenate([z] * len(tiers), axis=1)
    assert np.all(np.abs(got - want) <= envelope * (1.1e-14 + 2.0**-52 * zz))
    assert np.all(zz >= tiers[-1].start)


@pytest.mark.parametrize("d", [344.0, 400.0])
def test_transforms_past_the_gamma_function_of_the_doubles(d):
    # Gamma(d/2) and r^{d-1} pass the doubles from d = 344, the transform
    # pi^{d/2} e^{-pi^2 p^2} of e^{-r^2} does not: both routes give it
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    ps = [0.0, 0.3, 1.0]
    with mp.workdps(30):
        want = np.array([float(mp.pi ** (d / 2) * mp.exp(-(mp.pi * p) ** 2)) for p in ps])
    values, errors = gr.ft_quadrature_many(f, ps, d)
    assert np.all(np.abs(values - want) <= errors)
    res = tr.ft_quadrature(f, 0.3, d)
    assert abs(res.value - want[1]) <= res.error


def test_transforms_refuse_a_dimension_past_the_doubles():
    # at d = 1e4 the constant 2 pi^{d/2} / Gamma(d/2) is below the doubles;
    # at d = 200 and rate 0.05 the measure c R^{d-1} is past them (both
    # routes raised OverflowError)
    for rate, d, says in [(1.0, 1e4, "constant .* below the doubles at d = 10000.0"),
                          (0.05, 200.0, "measure .* past the doubles at d = 200.0")]:
        f = tr.Sampled(lambda r: math.exp(-rate * r * r), decay_hint=(1.0, rate))
        with pytest.raises(DomainError, match=says):
            gr.ft_quadrature_many(f, [0.0, 1.0], d)
        with pytest.raises(DomainError, match=says):
            tr.ft_quadrature(f, 1.0, d)


def test_shared_grid_rejects_bad_input():
    for bad in (-0.1, math.nan, math.inf, -math.inf):  # the nonnegative rule of errors._real
        with pytest.raises(DomainError, match=f"p must be finite and nonnegative, got {bad!r}$"):
            gr.ft_quadrature_many(GAUSS, [0.5, bad, 1.0], 2.0)
    nan = tr.Sampled(lambda r: math.nan, decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError):
        gr.ft_quadrature_many(nan, [0.0, 1.0], 2.0)
    with pytest.raises(TypeError, match="GaussPoly or Sampled"):
        gr.ft_quadrature_many(lambda r: math.exp(-r * r), [0.0, 1.0], 2.0)
    values, errors = gr.ft_quadrature_many(GAUSS, [], 2.0)
    assert values.size == errors.size == 0
    with pytest.raises(DomainError, match="dimension parameter must be finite and positive, got 0.0$"):
        gr.ft_quadrature_many(GAUSS, [], 0.0)
    with pytest.raises(DomainError, match="takes d >="):
        gr.ft_quadrature_many(GAUSS, [], 1e-13)


def test_shared_grid_refuses_a_transform_that_overflows():
    # every profile value is finite, their transform at p = 0 is not;
    # numpy's overflow warning is an error in this suite
    huge = tr.Sampled(lambda r: 1e308 * math.exp(-r * r), decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError, match="transformed profile is inf at p = 0.0"):
        gr.ft_quadrature_many(huge, [0.0, 1.0], 2.0)


def test_shared_grid_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(tr, "_REL_TOL", 1e-16)
    monkeypatch.setattr(tr, "_ABS_TOL", 1e-30)
    with pytest.raises(ToleranceNotMet):
        gr.ft_quadrature_many(GAUSS, [0.5, 1.0], 3.0)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("p", [1e80, 1e155, 1e200])
def test_gausspoly_is_zero_where_its_powers_overflow(k, p):
    # r^2 passes the doubles from r ~ 1.3e154, r^{2k} earlier; the Gaussian
    # wins, and numpy's overflow and invalid warnings are errors here
    f = tr.GaussPoly(((1.0, k, 1.0),))
    assert tr.ft_closed(f, p, 2.0) == 0.0
    assert f.eval(p) == 0.0
    assert f.eval(np.array([1.0, p])).tolist() == [f.eval(1.0), 0.0]


def test_gausspoly_keeps_its_values_where_nothing_overflows():
    f = tr.GaussPoly(((1.0, 2, 1.0), (-0.5, 1, 0.3)))
    r = np.array([0.0, 0.5, 3.0, 40.0])
    want = [1.0 * x**4 * math.exp(-x * x) - 0.5 * x**2 * math.exp(-0.3 * x * x)
            for x in r.tolist()]
    assert f.eval(r).tolist() == pytest.approx(want, rel=1e-15, abs=0.0)
