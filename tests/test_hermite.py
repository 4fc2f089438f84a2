"""Hermite functions and Gaussian expansion coefficients."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from thetasum import hermite as hm
from thetasum.errors import DomainError, ToleranceNotMet


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


@pytest.mark.parametrize("n", [0, 1, 2, 8, 150])
def test_far_points_give_zero_without_a_warning(n):
    # e^{-x^2/2} underflows there: x * h_0 was inf * 0 = NaN at +-inf and
    # +-10**400, and x * x overflowed at +-1e200 (warnings are errors here)
    far = [math.inf, -math.inf, 1e200, -1e200, 10**400, -10**400]
    for x in far:
        v = hm.hermite_h(n, x)
        assert v == 0.0 and isinstance(v, float), x
    near = np.array([-3.0, -0.5, 0.0, 0.7, 2.5])
    mixed = hm.hermite_h(n, [near[0], *far, *near[1:]])
    assert np.array_equal(mixed[1:1 + len(far)], np.zeros(len(far)))
    assert np.array_equal(np.delete(mixed, range(1, 1 + len(far))), hm.hermite_h(n, near))


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


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("call", [
    lambda n: hm.hermite_h(n, 0.3),
    lambda n: hm.gaussian_hermite_coeff(1.0, n),
    lambda n: hm.hermite_coeff_quadrature(lambda x: math.exp(-x * x), n),
], ids=["hermite_h", "closed", "quadrature"])
def test_orders_and_grid_sizes_must_be_integers(call, n):
    # hermite_h(2.5, x) was hermite_h(2, x), and True was read as 1
    with pytest.raises(DomainError, match="must be an integer >= "):
        call(n)


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
    for bad in (True, "1"):  # both were read as alpha = 1
        with pytest.raises(DomainError, match="alpha must be a real number"):
            hm.gaussian_hermite_coeff(bad, 2)
    with pytest.raises(DomainError):
        hm.gaussian_hermite_coeff(1.0, -2)


def test_log_space_survives_large_order():
    # naive (2m)!/m! overflows past m ~ 85
    v = hm.gaussian_hermite_coeff(0.3, 240)
    assert math.isfinite(v)


def test_quadrature_tolerance_surface():
    # 500 radians per unit outruns the 400-panel cap on [-15, 15]
    with pytest.raises(ToleranceNotMet, match=r"quadrature error \S+ above requested 1\.000e-11$"):
        hm.hermite_coeff_quadrature(lambda x: math.cos(500.0 * x) * math.exp(-0.01 * x * x), 4)


_GAUSS = lambda x: math.exp(-x * x)


@pytest.mark.parametrize("f", [
    lambda x: float("nan") if x > 1.0 else 1.0,
    lambda x: math.inf,
    lambda x: complex(math.exp(-x * x)),
    lambda x: np.complex128(math.exp(-x * x)),
], ids=["profile-nan", "profile-inf", "profile-complex", "profile-numpy-complex"])
def test_quadrature_rejects_bad_input(f):
    with pytest.raises(DomainError, match="at x = "):
        hm.hermite_coeff_quadrature(f, 2)


def test_quadrature_has_no_interval_keyword():
    # the interval is always [-x_max, x_max], x_max = sqrt(2n + 1) + 12
    with pytest.raises(TypeError, match="x_max"):
        hm.hermite_coeff_quadrature(_GAUSS, 2, x_max=6.0)


def test_quadrature_rules_are_made_once_and_read_only(monkeypatch):
    hm.hermite_coeff_quadrature(_GAUSS, 2)
    made = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", made.append)
    hm.hermite_coeff_quadrature(_GAUSS, 3)
    assert made == []
    assert not any(a.flags.writeable for a in hm._rules())


def test_quadrature_has_no_tolerance_keyword():
    # the error met is always hermite._ABS_TOL = 1e-11
    with pytest.raises(TypeError, match="abs_tol"):
        hm.hermite_coeff_quadrature(_GAUSS, 2, abs_tol=1e-12)


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


def test_quadrature_returns_at_the_panel_cap_within_its_error(monkeypatch):
    # a constant of 2000: the rounding floor 2^-50 sum |f h_0|, about 3e-12,
    # keeps the total above a tenth of 1e-11, so the panels are bisected to
    # the cap, and the total, within 1e-11 there, is returned
    rounds = []
    panel_sums = hm._panel_sums

    def counted(f, n, lo, hi):
        assert lo.size <= hm._PANEL_CAP  # no round passes the cap
        rounds.append(lo.size)
        return panel_sums(f, n, lo, hi)

    monkeypatch.setattr(hm, "_panel_sums", counted)
    got = hm.hermite_coeff_quadrature(lambda x: 2000.0, 0)
    assert abs(got - 2000.0 * hm.gaussian_hermite_coeff(0.0, 0)) <= 1e-11
    assert len(rounds) > 1 and sum(rounds) - rounds[0] > hm._PANEL_CAP // 2


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
