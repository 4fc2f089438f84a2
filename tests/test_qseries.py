"""Series arithmetic on the shared exponent grid."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thetasum import qseries as qs
from thetasum.errors import (
    CoefficientOverflow,
    DomainError,
    NegativeExponent,
    OffsetMismatch,
    ZeroLeadingCoefficient,
)

from conftest import lattice_counts


def theta2_series(L: int) -> qs.QSeries:
    coeffs = [0.0] * (4 * L + 1)
    l = 1
    while l * l - l <= L:
        coeffs[4 * (l * l - l)] = 2.0
        l += 1
    return qs.QSeries(4, 1, coeffs)


def theta3_series(L: int) -> qs.QSeries:
    coeffs = [0.0] * (L + 1)
    coeffs[0] = 1.0
    l = 1
    while l * l <= L:
        coeffs[l * l] = 2.0
        l += 1
    return qs.QSeries(1, 0, coeffs)


def test_canonical_form_compacts_grid():
    # indices 0,4,8 with V=4 share a factor of 4 with the offset
    a = qs.QSeries(4, 0, [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0])
    assert a.denom_V == 1
    assert a.offset_A == 0
    assert list(a.coeffs) == [1.0, 2.0, 3.0]


def _compacted_index_by_index(V, off, coeffs):
    """Reference compaction: the grid gcd taken one nonzero index at a time."""
    g = V
    for idx in np.flatnonzero(coeffs):
        g = math.gcd(g, int(idx))
    if float(off).is_integer():
        g = math.gcd(g, int(off))
    return V // g, off / g, coeffs[::g]


@pytest.mark.parametrize("V,off,stride", [
    (2, 0.4, 2),   # the dual of theta3(q)^1.2 theta4(q^2)^0.8: theta2(q^{1/2}) on V = 2
    (6, 4, 4),
    (12, 6, 6),
    (4, 0, 3),
    (8, 2.5, 8),
])
def test_compaction_when_every_index_shares_the_grid_factor(V, off, stride):
    coeffs = np.zeros(4097)
    coeffs[::stride] = np.arange(1.0, coeffs[::stride].size + 1)
    a = qs.QSeries(V, off, coeffs)
    want_V, want_off, want_coeffs = _compacted_index_by_index(V, off, coeffs)
    assert (a.denom_V, a.offset_A) == (want_V, want_off)
    assert np.array_equal(a.coeffs, want_coeffs)


def test_leading_zeros_move_into_offset():
    a = qs.QSeries(2, 0, [0.0, 0.0, 0.0, 5.0, 7.0])
    assert a.offset_exponent() == 1.5
    assert a.coeffs[0] == 5.0


def test_fraction_offset_is_carried_as_float():
    a = qs.QSeries(1, Fraction(1, 4), [2.0, 3.0])
    assert a.denom_V == 1
    assert type(a.offset_A) is float and a.offset_A == 0.25
    assert list(a.coeffs) == [2.0, 3.0]
    assert qs.QSeries(1, Fraction(6, 3), [2.0]).offset_A == 2.0


def test_immutability():
    a = theta3_series(4)
    with pytest.raises(AttributeError):
        a.denom_V = 7
    with pytest.raises(ValueError):
        a.coeffs[0] = 99.0


def test_theta2_canonical_grid():
    a = theta2_series(20)
    assert a.denom_V == 4
    assert a.offset_A == 1
    # exponents (4(l^2-l)+1)/4
    assert a.offset_exponent() == 0.25
    assert a.coeff(0) == 2.0
    assert a.coeff(8) == 2.0


def test_rescale_theta2_half():
    a = qs.rescale(theta2_series(20), Fraction(1, 2))
    assert a.denom_V == 8
    assert a.offset_exponent() == 0.125


def test_rescale_roundtrip_is_identity():
    a = theta2_series(30)
    b = qs.rescale(qs.rescale(a, Fraction(2, 3)), Fraction(3, 2))
    assert b == a


def test_mul_matches_two_square_counts():
    # theta2(q)^2 = sum over odd x,y of q^((x^2+y^2)/4): grid V=2, offset 1
    a = theta2_series(40)
    prod = qs.mul(a, a)
    assert prod.denom_V == 2
    assert prod.offset_A == 1
    assert prod.offset_exponent() == 0.5
    want = {0: 4.0, 4: 8.0, 8: 4.0, 12: 8.0}
    for idx, val in want.items():
        assert prod.coeff(idx) == val
    for idx in (1, 2, 3, 5, 6, 7, 9, 10, 11):
        assert prod.coeff(idx) == 0.0


def test_lincomb_matches_even_lattice():
    # (theta3^2 + theta4^2)/2 counts vectors with even coordinate sum
    L = 30
    t3 = theta3_series(L)
    coeffs = [0.0] * (L + 1)
    coeffs[0] = 1.0
    l = 1
    while l * l <= L:
        coeffs[l * l] = 2.0 * (-1.0) ** l
        l += 1
    t4 = qs.QSeries(1, 0, coeffs)
    dd = qs.lincomb([(0.5, qs.mul(t3, t3)), (0.5, qs.mul(t4, t4))])

    from conftest import even_sum_counts
    want = even_sum_counts(2, 20)
    for l in range(21):
        assert dd.coeff(l) == pytest.approx(want[l], abs=1e-12)


def test_lincomb_rejects_misaligned_float_offsets():
    a = qs.QSeries(1, math.sqrt(2), [1.0, 1.0])
    b = qs.QSeries(1, math.sqrt(3), [1.0, 1.0])
    with pytest.raises(OffsetMismatch):
        qs.lincomb([(1.0, a), (1.0, b)])


def test_float_offsets_combine_when_equal():
    off = math.sqrt(2)
    a = qs.QSeries(1, off, [1.0, 2.0])
    b = qs.QSeries(1, off, [3.0, 4.0])
    c = qs.lincomb([(1.0, a), (1.0, b)])
    assert c.offset_exponent() == pytest.approx(off)
    assert list(c.coeffs) == [4.0, 6.0]


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.5), (0.5, 1.7), (0.3, 1.7)])
def test_pow_addition_law(alpha, beta):
    a = theta3_series(24)
    left = qs.mul(qs.pow_real(a, alpha), qs.pow_real(a, beta))
    right = qs.pow_real(a, alpha + beta)
    n = min(len(left.coeffs), len(right.coeffs))
    np.testing.assert_allclose(left.coeffs[:n], right.coeffs[:n], atol=1e-10)


def test_pow_integer_matches_repeated_mul():
    a = theta3_series(24)
    cube = qs.mul(qs.mul(a, a), a)
    p = qs.pow_real(a, 3.0)
    n = min(len(cube.coeffs), len(p.coeffs))
    np.testing.assert_allclose(p.coeffs[:n], cube.coeffs[:n], atol=1e-12)


def test_pow_half_frozen_values():
    # Exact-rational recurrence gives 1, 1, -1/2, 1/2, 3/8, -1/8, 3/16,
    # -7/16, 67/128, 27/128, 49/256, -41/256, -121/1024.
    root = qs.pow_real(theta3_series(12), 0.5)
    want = [1.0, 1.0, -0.5, 0.5, 0.375, -0.125, 0.1875, -0.4375,
            0.5234375, 0.2109375, 0.19140625, -0.16015625, -0.1181640625]
    np.testing.assert_allclose(root.coeffs[:13], want, atol=1e-13)


def test_pow_half_squares_back():
    a = theta3_series(16)
    sq = qs.mul(qs.pow_real(a, 0.5), qs.pow_real(a, 0.5))
    np.testing.assert_allclose(sq.coeffs[:17], a.coeffs[:17], atol=1e-12)


def test_pow_zero_gives_unit():
    one = qs.pow_real(theta3_series(8), 0.0)
    assert (one.denom_V, one.offset_A) == (1, 0.0)
    assert one.coeffs[0] == 1.0 and not np.any(one.coeffs[1:])


def test_pow_fractional_offset_scales_exactly():
    # (q^{1/4} f)^{1/2} = q^{1/8} f^{1/2}
    a = theta2_series(20)
    r = qs.pow_real(a, 0.5)
    assert r.offset_exponent() == pytest.approx(0.125, abs=0)


def test_pow_rejects_negative_exponent_with_nonunit():
    with pytest.raises(NegativeExponent):
        qs.pow_real(theta3_series(8), -1.0)


def test_pow_rejects_zero_leading_coefficient():
    z = qs.QSeries(1, 0, [0.0])
    with pytest.raises(ZeroLeadingCoefficient):
        qs.pow_real(z, 0.5)


def test_overflow_detected():
    with pytest.raises(CoefficientOverflow):
        qs.QSeries(1, 0, [1.0, float("inf")])


def test_unit_identity_under_mul():
    a = theta2_series(20)
    one = qs.pow_real(a, 0.0)
    assert qs.mul(a, one) == a
    assert qs.mul(one, a) == a


def test_truncation_respects_least_reliable_factor():
    a = theta3_series(9)
    prod = qs.mul(a, a)
    assert prod.reliable_exponent() <= 9.0 + 1e-12


def test_evaluate_theta3_at_exp_minus_pi():
    # sum 2 q^(l^2) + 1 at q = e^-pi equals pi^(1/4)/Gamma(3/4)
    a = theta3_series(64)
    res = qs.evaluate(a, math.exp(-math.pi))
    assert abs(res.value - 1.0864348112133080) <= max(res.tail, 1e-15)
    assert res.tail < 1e-15


def test_evaluate_tail_is_honest():
    a = theta3_series(16)  # short truncation, fat tail at q close to 1
    q = 0.7
    res = qs.evaluate(a, q)
    exact = 1.0 + 2.0 * sum(q ** (l * l) for l in range(1, 60))
    assert abs(res.value - exact) <= res.tail


@pytest.mark.parametrize("offset", [-1.0, math.nan, math.inf])
def test_offset_must_be_finite_and_nonnegative(offset):
    # a NaN or infinite offset was stored as it came
    with pytest.raises(DomainError, match="offset_A must be finite and nonnegative"):
        qs.QSeries(1, offset, [1.0])


@pytest.mark.parametrize("V", [True, 0, 2.0, "2"])
def test_denominator_must_be_an_integer_of_at_least_one(V):
    # True was read as 1
    with pytest.raises(DomainError, match="denom_V must be an integer >= 1"):
        qs.QSeries(V, 0.0, [1.0])


def test_evaluate_domain():
    a = theta3_series(9)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            qs.evaluate(a, bad)


def test_mul_against_lattice_oracle():
    L = 25
    t3 = theta3_series(L)
    sq = qs.mul(t3, t3)
    want = lattice_counts(2, L)
    for l in range(L + 1):
        assert sq.coeff(l) == pytest.approx(want[l], abs=1e-12)
