"""Dimensionally continued radial transform and its kernel."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

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


def test_gausspoly_eval_vectorized():
    f = tr.GaussPoly(((2.0, 1, 0.5),))
    r = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(f.eval(r), 2.0 * r**2 * np.exp(-0.5 * r**2))


def test_gausspoly_validation():
    with pytest.raises(DomainError):
        tr.GaussPoly(((1.0, 0, -1.0),))
    with pytest.raises(DomainError):
        tr.GaussPoly(((1.0, -2, 1.0),))


def test_sampled_eval_gives_the_profile_bit_for_bit():
    def fn(r):
        return math.exp(-r * r) * math.cos(3.0 * r)

    f = tr.Sampled(fn, decay_hint=(1.0, 1.0))
    r = np.random.default_rng(4).uniform(0.0, 6.0, 3000)
    assert np.array_equal(f.eval(r), np.array([fn(float(x)) for x in r]))
    assert f.eval(r.reshape(60, 50)).shape == (60, 50)
    assert f.eval(0.25) == fn(0.25) and isinstance(f.eval(0.25), float)
    assert f.eval(np.float32(0.5)) == fn(0.5)


@pytest.mark.parametrize("bad", [1.0 + 2.0j, np.complex128(1.0 + 2.0j), "a", [1.0]],
                         ids=["complex", "numpy-complex", "text", "list"])
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
                                  (0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)])
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
    with pytest.raises(DomainError):
        tr.ft_closed(GAUSS, 0.5, 0.5)
    val = tr.ft_gausspoly(GAUSS, 0.5, experimental_dim=True).eval(0.5)
    assert math.isfinite(val)
    with pytest.raises(DomainError):
        tr.ft_gausspoly(GAUSS, 0.0, experimental_dim=True)


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        tr.ft_quadrature(GAUSS, -0.1, 2.0)


def test_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(tr, "_REL_TOL", 1e-16)
    monkeypatch.setattr(tr, "_ABS_TOL", 1e-30)
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature(GAUSS, 0.5, 3.0)


def test_quadrature_refuses_an_error_above_tolerance(monkeypatch):
    # the integral converges, but a radial tail of 1e-6 is left out
    monkeypatch.setattr(tr, "_radial_tail", lambda f, R, d: 1e-6)
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


@pytest.mark.parametrize("a", [0.5, 0.95, 1.0, 1.25, 2.0, 7.5, 20.0, 64.0, 200.0])
def test_incomplete_gamma_matches_mpmath(a):
    # log Q(a, x) from its series below x = a + 1 and its continued fraction
    # above, x from a/20 to 12 a + 60: within 64 ulps of a |log x| + x + 1,
    # the size of log(x^a e^-x) whose rounding both carry (near x = a + 1
    # at a < 1, 1 - P cancels and the fraction converges slowly)
    x = np.concatenate([a * np.geomspace(0.05, 12.0, 40),
                        [a, a + 1.0 - 1e-9, a + 1.0, a + 40.0, a + 60.0]])
    for v in x.tolist():
        with mp.workdps(40):
            want = float(mp.log(mp.gammainc(a, v, mp.inf, regularized=True)))
        got = tr._log_gammaincc(a, v, math.lgamma(a))
        assert abs(got - want) <= 64 * 2.0**-53 * (a * abs(math.log(v)) + v + 1.0)
    assert tr._log_gammaincc(a, 0.0, math.lgamma(a)) == 0.0


@pytest.mark.parametrize("a", [0.5, 0.95, 1.25, 2.0, 7.5, 20.0, 64.0, 200.0])
@pytest.mark.parametrize("q", [0.999, 0.5, 1e-3, 1e-13, 1e-30, 1e-300])
def test_inverse_incomplete_gamma_matches_mpmath(a, q):
    # the x it returns has log Q(a, x) within 2^-48 (a |log x| + x + 1) of
    # log q: the rounding of log Q, a few times over
    x = tr._gammainccinv(a, math.log(q))
    with mp.workdps(40):
        back = float(mp.log(mp.gammainc(a, x, mp.inf, regularized=True)))
    assert abs(back - math.log(q)) <= 2.0**-48 * (a * abs(math.log(x)) + x + 1.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(d=st.floats(1.0, 400.0),
       terms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(0, 3), st.floats(1e-2, 1e2)),
                      min_size=1, max_size=3),
       sampled=st.booleans(),
       budget=st.floats(1e-200, 1e3))
def test_radius_meets_any_tail_budget(d, terms, sampled, budget):
    # the tail bound at the radius chosen for a budget is below it, for
    # Gaussian-polynomial envelopes and decay hints alike, at any dimension
    # up to 400 (where Gamma(d/2) and the whole integral pass the doubles)
    if sampled:
        c, _, alpha = terms[0]
        f = tr.Sampled(math.exp, decay_hint=(c, alpha))
    else:
        f = tr.GaussPoly(tuple(terms))
    R = tr._choose_r_max(f, d, budget)
    assert 0.0 < R < math.inf
    assert tr._radial_tail(f, R, d) < budget


def test_choosing_the_radius_takes_microseconds():
    # budget of a shared grid at d = 2.7: one Halley step from the
    # asymptotic first guess (best of 200 calls; scipy's gammainccinv took
    # 8 us a call, the inverse here 8-13 us on a 2-core Xeon)
    import time

    f = tr.Sampled(math.exp, decay_hint=(1.0, 1.0))
    budget = 0.1 * tr._ABS_TOL / tr._prefactor(2.7)[0]
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
    values, errors = tr.ft_quadrature_many(_as_sampled(g), ps, d)
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
        tr.ft_quadrature_many(f, [0.0, 0.5], 2.5)


CUSP = tr.Sampled(lambda r: math.exp(-r ** 3), decay_hint=(1.2, 1.0))


@pytest.mark.parametrize("d", [1.9, 2.0, 2.5, 3.5])
def test_shared_grid_matches_adaptive_oracle(d):
    # the cusp has no closed form; ft_quadrature is the independent route.
    # At non-integer d the kernel at 12.0 is mostly the Hankel expansion.
    ps = [0.0, 0.7, 3.1, 12.0]
    values, errors = tr.ft_quadrature_many(CUSP, ps, d)
    for p, v, e in zip(ps, values, errors):
        want = tr.ft_quadrature(CUSP, p, d)
        assert abs(v - want.value) <= e + want.error


def test_adaptive_oracle_never_reaches_the_shared_grid_kernel(monkeypatch):
    # ft_quadrature stays on hyp0f1 and special.jv, so it checks the
    # Hankel expansion and the recurrence of the shared grid instead of
    # sharing them
    def refuse(*args):
        raise AssertionError("ft_quadrature called the shared-grid kernel")

    monkeypatch.setattr(tr, "_kernel", refuse)
    monkeypatch.setattr(tr, "_hankel", refuse)
    monkeypatch.setattr(tr, "_near_kernel", refuse)
    monkeypatch.setattr(tr, "_miller_norms", refuse)
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
    tr.ft_quadrature_many(f, ps[-1:], 2.5)
    alone = len(calls)
    calls.clear()
    tr.ft_quadrature_many(f, ps, 2.5)
    assert len(calls) == alone == len(set(calls))


@pytest.mark.parametrize("a", [0.5, 0.75, 1.0, 1.35, 1.5, 2.0, 2.35])
def test_vectorised_kernel_matches_scalar_across_series_switch(a):
    # z = x^2 straddles the series switch of hyp0f1 (z = 25), the least
    # Hankel start of _kernel (2x = 22, z = 121) and the start at order a - 1
    z0 = (0.5 * tr._hankel_start(a - 1.0)) ** 2
    z = np.array([0.0, 1e-3, 0.5, 7.0, 24.0, 24.99, 25.01, 26.0, 120.0, 120.99, 121.0,
                  121.01, 122.0, z0 * (1 - 1e-9), z0, z0 * (1 + 1e-9), 400.0, 4e4])
    assert tr._SERIES_SWITCH == 25.0
    assert tr._HANKEL_SWITCH == 22.0
    got = tr._kernel(a, np.sqrt(z))
    want = [tr.hyp0f1(a, -zz) for zz in z]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_hankel_start_follows_the_order():
    # the least start wherever 18 terms already meet 2^-53 there (and where
    # the expansion ends, at half-integer order), later at higher order.
    # Past |nu| = 18.5, where DLMF 10.17(iii) stops bounding the remainder
    # of 18 terms by the first omitted one, the terms grow with the order
    # and the start stays finite, where no term exceeds _HANKEL_LARGEST
    assert tr._hankel_start(-0.5) == tr._hankel_start(0.5) == tr._hankel_start(11.5) == 22.0
    assert 22.0 < tr._hankel_start(0.25) == tr._hankel_start(-0.25) < 23.0
    assert tr._hankel_start(7.0) < tr._hankel_start(11.0) < tr._hankel_start(18.0)
    assert math.isfinite(tr._hankel_start(18.5))
    for nu in (19.0, 23.0, 31.0, 62.0, 199.0):
        tier = tr._hankel_tiers(nu)[0]
        terms = 2 * len(tier.even)
        assert tier.start == tr._hankel_start(nu) < math.inf
        assert terms >= nu - 0.5 and terms > tr._HANKEL_TERMS
        assert max(map(abs, tier.even + tier.odd)) <= tr._HANKEL_LARGEST * (1 + 1e-12)
    assert tr._hankel_start(23.0) < tr._hankel_start(62.0) < tr._hankel_start(199.0)


def test_hankel_tiers_take_fewer_terms_further_out():
    # at d = 2: 18 terms from the start, 12 from 2x = 50 and 8 from 200
    tiers = tr._hankel_tiers(0.0)
    assert [t.start for t in tiers][1:] == [50.0, 200.0]
    assert [2 * len(t.even) for t in tiers] == [18, 12, 8]
    # a tier is kept only where it saves terms
    assert len(tr._hankel_tiers(18.0)) == 1


@pytest.mark.parametrize("d", [1.0, 1.5, 1.9, 2.0, 2.5, 2.7, 3.0, 3.5, 3.9, 4.2, 8.0,
                               16.0, 24.0, 24.5, 25.0, 38.0, 40.0])
def test_kernel_matches_mpmath_hyp0f1(d):
    # from just below the least Hankel start, and from just below the start
    # at this order, up to x = pi p R, the largest kernel argument of a
    # shared grid for p = 64, with R the radius the grid takes for the cusp.
    # The error is measured against the kernel envelope
    # Gamma(a)/sqrt(pi) x^{1/2-a}: within 1.1e-14 of it, or no worse than
    # special.jv where that itself misses the bar (past d = 30, between the
    # turning point and the Hankel start; d = 40 is all special.jv).  At
    # d = 2, special.j0 is within 1e-15 of the envelope below x = 12; above,
    # its argument reduction errs like the rounding of x itself, so it is
    # held to the 2 eps x^{1/2} per entry that the rounding floor of
    # ft_quadrature_many budgets for the phase (3.1e-14 of the envelope at
    # x = 390 is a quarter of that).
    a = 0.5 * d
    starts = [0.5 * tr._HANKEL_SWITCH, 0.5 * min(tr._hankel_start(a - 1.0), 200.0)]
    prefactor = 2.0 * math.pi**a / math.gamma(a)
    top = math.pi * 64 * tr._choose_r_max(CUSP, d, 1e-13 / prefactor)
    x = np.concatenate([x0 + np.linspace(-0.05, 0.05, 11) for x0 in starts]
                       + [np.geomspace(starts[0] + 0.1, top, 50)])
    got = tr._kernel(a, x)
    with mp.workdps(40):
        want = np.array([float(mp.hyp0f1(a, -mp.mpf(v) ** 2)) for v in x.tolist()])
    envelope = math.gamma(a) / math.sqrt(math.pi) * x ** (0.5 - a)
    if d == 2.0:
        allowed = np.maximum(1.1e-14 * envelope, 2.0 * 2.0**-52 * np.sqrt(x))
    else:
        jv = math.gamma(a) * x ** (1.0 - a) * special.jv(a - 1.0, 2.0 * x)
        allowed = np.maximum(1.1e-14 * envelope, np.abs(jv - want))
    assert np.all(np.abs(got - want) <= allowed)


NEAR_DIMS = [1.0, 1.3, 1.5, 1.9, 2.5, 2.7, 3.5, 4.2, 8.0, 16.0, 24.0, 24.5, 30.0, 38.0, 39.0,
             40.0, 48.0, 64.0]


def _near_scale(a, x, want):
    """What a kernel entry's error is measured against below the Hankel
    start: the envelope Gamma(a)/sqrt(pi) x^{1/2-a}, or |value| where that
    is larger, and never more than 1, which bounds |0F1(a; -x^2)| (DLMF
    10.14.4): below the turning point the envelope is far above the value."""
    with np.errstate(divide="ignore"):
        envelope = math.gamma(a) / math.sqrt(math.pi) * x ** (0.5 - a)
    return np.minimum(np.maximum(envelope, np.abs(want)), 1.0)


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
    end = 0.5 * tr._hankel_start(a - 1.0)
    rng = np.random.default_rng(int(10 * d))
    x = np.concatenate([[0.0, 1e-8, 1.0 - 1e-9, 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-9,
                         np.nextafter(end, 0.0)], rng.uniform(0.0, end, 80)])
    want = _hyp0f1_40_digits(a, x)
    allowed = 1.1e-14 * _near_scale(a, x, want)
    if d > 30.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            jv = np.where(x == 0.0, 1.0, math.gamma(a) * x ** (1.0 - a) * special.jv(a - 1.0, 2.0 * x))
        allowed = np.maximum(allowed, np.abs(jv - want))
    assert np.all(np.abs(tr._kernel(a, x) - want) <= allowed)
    small = x <= 2.0
    assert np.all(np.abs(tr._kernel(a, x[small]) - want[small]) <= allowed[small])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended long double to see truncation below the rounding")
@pytest.mark.parametrize("d", NEAR_DIMS)
def test_recurrence_start_index_has_converged(d, monkeypatch):
    # one more entry 21 above the largest z of a chunk raises its start index
    # by at least 20; no other entry moves by more than 2^-52 of its scale.
    # Run in long double, so the difference is the truncation of the lower
    # start, not the rounding of two runs
    starts = []
    norms = tr._miller_norms

    def recording_norms(mu, top):
        starts.append(2 * top)
        return norms(mu, top)

    monkeypatch.setattr(tr, "_miller_norms", recording_norms)
    a = 0.5 * d
    end = 0.5 * tr._hankel_start(a - 1.0)
    rng = np.random.default_rng(int(10 * d))
    x = np.concatenate([[np.nextafter(1.0, 2.0), np.nextafter(end, 0.0)],
                        rng.uniform(1.0, end, 80)]).astype(np.longdouble)
    alone = tr._near_kernel(a, x)
    raised = tr._near_kernel(a, np.append(x, end + 10.5))[:-1]
    assert starts[1] >= starts[0] + 20
    scale = _near_scale(a, x.astype(np.float64), alone.astype(np.float64))
    assert np.all(np.abs(raised - alone) <= 2.0**-52 * scale)


def test_recurrence_mixing_the_ends_of_the_near_region_stays_finite():
    # at d = 39 the start index of a chunk reaching the Hankel start (2x near
    # 104) is 190, and the recurrence values at z just above 2 grow by about
    # 190! from it: they must stay finite and normal, with no numpy warning
    a = 19.5
    end = 0.5 * tr._hankel_start(a - 1.0)
    x = np.array([np.nextafter(1.0, 2.0), 1.0 + 1e-6, 1.5, 0.25 * end, np.nextafter(end, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tr._kernel(a, x)
    want = _hyp0f1_40_digits(a, x)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1.1e-14 * _near_scale(a, x, want))


@pytest.mark.parametrize("d", [1.5, 1.9, 2.7, 3.5, 8.0])
def test_shared_grid_never_calls_jv(d, monkeypatch):
    # below the Hankel start the shared grid runs the series and Miller's
    # recurrence on numpy; special.jv is left to hyp0f1 and d > 39
    def refuse(*args):
        raise AssertionError("the shared grid called special.jv")

    near = []
    near_kernel = tr._near_kernel

    def recording_near(a, x):
        near.append(x.size)
        return near_kernel(a, x)

    monkeypatch.setattr(special, "jv", refuse)
    monkeypatch.setattr(tr, "_near_kernel", recording_near)
    values, errors = tr.ft_quadrature_many(CUSP, [0.0, 0.7, 3.1, 12.0], d)
    assert np.all(np.isfinite(values)) and sum(near) > 0


def test_shared_grid_kernel_memory_is_bounded():
    # traced peak of the 4096-radius grid; 32.5 MiB was the peak with
    # special.jv on the whole axis and 2^20-entry chunks
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    ps = np.sqrt(np.arange(4096.0))
    tr.ft_quadrature_many(f, ps[:2], 2.5)  # imports scipy outside the trace
    tracemalloc.start()
    try:
        tr.ft_quadrature_many(f, ps, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32.5 * 2**20


@pytest.mark.parametrize("n", [10, 14])
@pytest.mark.parametrize("d", [1.5, 2.0, 2.7, 8.0, 24.0, 39.0, 64.0])
def test_gauss_jacobi_rule_matches_mpmath(n, d):
    # nodes: Newton on P_n^(0, d-1) at 30 digits from ours; weights
    # 2^d / ((1 - x^2) P_n'(x)^2).  Within 2^-52 on the nodes, and 2^-46
    # relative on the weights (plain Golub-Welsch missed the smallest
    # weight at d = 39 by 5e-10)
    beta = d - 1.0
    xs, ws = tr._gauss_jacobi(n, beta)
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
    nodes = tr._gauss_nodes(n, d)
    assert np.array_equal(nodes[0], xs) and np.array_equal(nodes[1], ws)
    assert all(np.array_equal(a, b) for a, b in zip(nodes[2:], np.polynomial.legendre.leggauss(n)))


@pytest.mark.parametrize("a", [0.95, 1.0, 1.35, 2.0, 12.0])
def test_panel_kernel_matches_the_kernel(a):
    # the angle of each panel plus the offset of each node, by the addition
    # theorem: within 1.1e-14 of the envelope of the kernel at z = theta +
    # phi, less the rounding of that sum, which _hankel_panels never forms
    rng = np.random.default_rng(int(10 * a))
    tiers = tr._hankel_tiers(a - 1.0)
    turn = 2.0 * math.pi * rng.uniform(8.0, 12.0, 3)
    h = 0.05
    phi = np.outer(turn, rng.uniform(0.0, h, 7))
    theta = np.outer(turn, h * np.arange(200, 260))
    z = theta[:, None, :] + phi[:, :, None]
    got = np.concatenate([tr._hankel_panels(a, t, theta, phi) for t in tiers], axis=1)
    want = np.concatenate([tr._hankel(a, 0.5 * z, t) for t in tiers], axis=1)
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
    values, errors = tr.ft_quadrature_many(f, ps, d)
    assert np.all(np.abs(values - want) <= errors)
    res = tr.ft_quadrature(f, 0.3, d)
    assert abs(res.value - want[1]) <= res.error


def test_transforms_refuse_a_dimension_past_the_doubles():
    # at d = 1e4 the constant 2 pi^{d/2} / Gamma(d/2) is below the doubles
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError, match="below the doubles"):
        tr.ft_quadrature_many(f, [0.0, 1.0], 1e4)
    with pytest.raises(DomainError, match="below the doubles"):
        tr.ft_quadrature(f, 1.0, 1e4)


def test_shared_grid_rejects_bad_input():
    with pytest.raises(DomainError):
        tr.ft_quadrature_many(GAUSS, [0.5, -0.1], 2.0)
    nan = tr.Sampled(lambda r: math.nan, decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError):
        tr.ft_quadrature_many(nan, [0.0, 1.0], 2.0)
    values, errors = tr.ft_quadrature_many(GAUSS, [], 2.0)
    assert values.size == errors.size == 0


def test_shared_grid_refuses_a_transform_that_overflows():
    # every profile value is finite, their transform at p = 0 is not;
    # numpy's overflow warning is an error in this suite
    huge = tr.Sampled(lambda r: 1e308 * math.exp(-r * r), decay_hint=(1.0, 1.0))
    with pytest.raises(DomainError, match="transformed profile is inf at p = 0.0"):
        tr.ft_quadrature_many(huge, [0.0, 1.0], 2.0)


def test_shared_grid_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(tr, "_REL_TOL", 1e-16)
    monkeypatch.setattr(tr, "_ABS_TOL", 1e-30)
    with pytest.raises(ToleranceNotMet):
        tr.ft_quadrature_many(GAUSS, [0.5, 1.0], 3.0)


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
