"""Both sides of the summation identity and the verification report."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thetasum import qseries as qs
from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr
from thetasum.errors import CoefficientOverflow, DomainError, ToleranceNotMet

from conftest import even_sum_counts, lattice_counts

GAUSS = tr.GaussPoly(((1.0, 0, 1.0),))


def test_lhs_equals_series_evaluation():
    # for f = e^{-alpha r^2} the shell sum is the series at q = e^{-alpha}
    spec = th.preset("zd", 3)
    alpha = 1.3
    f = tr.GaussPoly(((1.0, 0, alpha),))
    left = sm.lhs_sum(spec, f, 1e-12)
    series = th.build(spec, left.L_used)
    val = qs.evaluate(series, math.exp(-alpha))
    assert left.value == pytest.approx(val.value, abs=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_lhs_matches_direct_lattice_sum(d):
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.5, 2, 2.0)))
    left = sm.lhs_sum(th.preset("zd", d), f, 1e-12)
    counts = lattice_counts(d, 40)
    direct = sum(counts[l] * f.eval(math.sqrt(l)) for l in range(41))
    assert left.value == pytest.approx(direct, abs=1e-12)


def test_lhs_even_sum_lattice(d=3):
    f = GAUSS
    left = sm.lhs_sum(th.preset("dd", d), f, 1e-12)
    counts = even_sum_counts(d, 40)
    direct = sum(counts[l] * math.exp(-l) for l in range(41))
    assert left.value == pytest.approx(direct, abs=1e-12)


def test_rhs_z3_gaussian_formula():
    # dual side for the cubic lattice: pi^{3/2} sum r_3(l) e^{-pi^2 l}
    right = sm.rhs_sum(th.preset("zd", 3), GAUSS, 1e-12)
    counts = lattice_counts(3, 6)
    want = math.pi ** 1.5 * sum(
        counts[l] * math.exp(-math.pi * math.pi * l) for l in range(7)
    )
    assert right.value == pytest.approx(want, abs=1e-13)
    assert right.value == pytest.approx(5.570056245595389, abs=1e-13)


def test_identity_balances_for_cubic_lattice():
    report = sm.verify(th.preset("zd", 3), GAUSS, tol=1e-10)
    assert report.passed
    assert report.residual < 1e-12
    assert report.lhs == pytest.approx(5.570056245595389, abs=1e-12)


@pytest.mark.parametrize("d", [1.5, 2.5, 4.2])
def test_identity_balances_off_integer_dimension(d):
    fs = [
        tr.GaussPoly(((1.0, 0, 1.0),)),
        tr.GaussPoly(((1.0, 2, 1.0),)),
        tr.GaussPoly(((1.0, 0, 1.0), (0.3, 4, 2.0))),
    ]
    for f in fs:
        report = sm.verify(th.preset("zd", d), f, tol=1e-10)
        assert report.passed, (d, f)
        assert report.residual < 1e-9


@pytest.mark.parametrize("name,d", [("dd", 2.4), ("dd", 3.0),
                                    ("theta4d", 2.0), ("theta4d", 2.7)])
def test_identity_balances_for_preset_families(name, d):
    report = sm.verify(th.preset(name, d), GAUSS, tol=1e-10)
    assert report.passed
    assert report.residual < 1e-9


def test_identity_balances_for_mixed_scales():
    spec = th.ThetaSpec(
        terms=((1.0, (th.ThetaFactor(3, 1.2, th.Fraction(1)),
                      th.ThetaFactor(4, 0.8, th.Fraction(3)))),),
        dim_d=2.0,
    )
    report = sm.verify(spec, GAUSS, tol=1e-10)
    assert report.passed
    assert report.residual < 1e-9


@pytest.mark.parametrize("name", ["zd", "dd", "theta4d"])
@pytest.mark.parametrize("d", [2.4, 2.5, 3.3])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_wide_gaussian_verifies_at_noninteger_dimension(name, d, tol):
    # alpha = 0.04 needs shells out to l ~ 1000-2000, far past the order
    # where a power recurrence on the theta series keeps any digits
    f = tr.GaussPoly(((1.0, 0, 0.04),))
    report = sm.verify(th.preset(name, d), f, tol=tol)
    assert report.passed
    assert report.residual < tol


@pytest.mark.parametrize("side", [
    lambda spec, f: sm.verify(spec, f),
    lambda spec, f: sm.rhs_sum(spec, f, 1e-10),
], ids=["verify", "rhs_sum"])
def test_non_finite_profile_fails_fast(side):
    f = tr.Sampled(lambda r: math.nan, decay_hint=(1.0, 1.0))
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        side(th.preset("zd", 2), f)
    assert time.perf_counter() - t0 < 1.0


def test_sampled_profile_agrees_with_closed_route():
    spec = th.preset("zd", 2.5)
    closed = sm.verify(spec, GAUSS, tol=1e-10)
    sampled = sm.verify(
        spec,
        tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0)),
        tol=1e-8,
    )
    assert sampled.passed
    assert sampled.rhs == pytest.approx(closed.rhs, abs=1e-8)


def test_cusp_profile_verifies(monkeypatch):
    # e^{-r^3} decays faster than any Gaussian but its transform only
    # decays polynomially, so the dual sum needs thousands of shells
    blocks = []
    kernel = tr._kernel

    def recording_kernel(a, x):
        blocks.append(x.size)
        return kernel(a, x)

    monkeypatch.setattr(tr, "_kernel", recording_kernel)
    f = tr.Sampled(lambda r: math.exp(-r ** 3), decay_hint=(1.2, 1.0))
    t0 = time.perf_counter()
    report = sm.verify(th.preset("zd", 2), f, tol=2e-5)
    assert time.perf_counter() - t0 < 3.0
    assert report.passed
    assert report.residual < 1e-5
    assert report.residual <= 10.0 * report.tail_rhs  # heuristic stayed honest
    # thousands of radii share one grid per doubling, in bounded chunks
    assert report.L_star_used == 2048
    assert sum(blocks) > 2 * tr._KERNEL_CHUNK
    assert max(blocks) <= tr._KERNEL_CHUNK


@pytest.mark.parametrize("name,d,a,b,hint", [
    ("dd", 3.5, 1.31, 0.51, (1.01, 0.655)),
    ("theta4d", 2.7, 3.7, 0.0, (1.0, 3.7)),
])
def test_sampled_dual_sum_stops_at_transform_noise_floor(name, d, a, b, hint):
    # past the first order the dual terms of these fast-decaying profiles
    # are rounding noise of the transform, and two noise windows have a
    # decay ratio near one; without the noise-floor stop the theta4d case
    # doubles to its order cap and raises ToleranceNotMet there
    spec = th.preset(name, d)
    f = tr.Sampled(lambda r: math.exp(-a * r * r) * (1.0 + b * r * r), decay_hint=hint)
    t0 = time.perf_counter()
    report = sm.verify(spec, f, tol=1e-8)
    assert time.perf_counter() - t0 < 1.0
    assert report.passed
    assert report.residual < 1e-8
    assert report.L_star_used == 32


def test_sampled_dual_side_transforms_each_shell_radius_once(monkeypatch):
    # the radii the quadrature sees are the dual shells' own, bit for bit,
    # each transformed at the first doubling that lists it and never again
    seen = []
    many = tr.ft_quadrature_many

    def recording_many(f, ps, d):
        seen.extend(ps)
        return many(f, ps, d)

    monkeypatch.setattr(tr, "ft_quadrature_many", recording_many)
    spec = th.preset("dd", 2.4131)
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    report = sm.verify(spec, f, tol=1e-8)
    listing = th.shells(th.dual(spec), report.L_star_used)
    radii = np.sqrt(listing.A[listing.N != 0.0]).tolist()
    assert len(seen) == len(set(seen))
    assert set(seen) == set(radii)


def test_sampled_theta4d_dual_side_matches_the_closed_route():
    # the dual of theta4^d is theta2^d, whose exponents start at d/4; a
    # transform at a rounded radius cost this sum two digits
    spec = th.preset("theta4d", 2.7)
    sampled = tr.Sampled(lambda r: math.exp(-3.6 * r * r), decay_hint=(1.01, 1.8))
    closed = tr.GaussPoly(((1.0, 0, 3.6),))
    got = sm.verify(spec, sampled, tol=1e-8).rhs
    want = sm.verify(spec, closed, tol=1e-8).rhs
    assert abs(got - want) <= 1e-13


def test_tails_enter_pass_rule():
    report = sm.verify(th.preset("zd", 3), GAUSS, tol=1e-10)
    assert report.tail_lhs >= 0.0 and report.tail_rhs >= 0.0
    assert report.error_budget > 0.0  # rounding floor keeps it nonzero
    assert report.residual <= report.tol + 10.0 * (
        report.tail_lhs + report.tail_rhs + report.error_budget
    )


def test_report_json_keys_are_stable():
    report = sm.verify(th.preset("zd", 2), GAUSS, tol=1e-10)
    data = report.to_json_dict()
    assert set(data) == {"lhs", "rhs", "residual", "L_used", "L_star_used",
                         "tail_lhs", "tail_rhs", "pass"}
    assert data["pass"] is True


def test_per_term_table_on_request():
    report = sm.verify(th.preset("zd", 2), GAUSS, tol=1e-10, with_table=True)
    assert report.per_term_table is not None
    sides = {row["side"] for row in report.per_term_table}
    assert sides == {"lhs", "rhs"}
    row = report.per_term_table[0]
    assert set(row) == {"side", "l", "A", "N", "term"}


def test_per_term_table_of_sampled_profile_matches_closed_route():
    spec = th.preset("zd", 2.5)
    sampled = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    rows = sm.verify(spec, sampled, tol=1e-8, with_table=True).per_term_table
    want = sm.verify(spec, GAUSS, tol=1e-8, with_table=True).per_term_table
    assert len(rows) == len(want)
    assert {row["side"] for row in rows} == {"lhs", "rhs"}
    for got, ref in zip(rows, want):
        assert (got["side"], got["l"], got["A"], got["N"]) == (
            ref["side"], ref["l"], ref["A"], ref["N"])
        assert got["term"] == pytest.approx(ref["term"], rel=1e-10, abs=1e-12)


def test_per_term_table_adds_no_build_or_transform(monkeypatch):
    # the table is cut from the shells both sides summed
    calls = {"build": 0, "transform": 0}
    coeffs, many = th._TermBuilder.coeffs, tr.ft_quadrature_many

    def counted_coeffs(self, L):
        calls["build"] += 1
        return coeffs(self, L)

    def counted_many(*args, **kwargs):
        calls["transform"] += 1
        return many(*args, **kwargs)

    monkeypatch.setattr(th._TermBuilder, "coeffs", counted_coeffs)
    monkeypatch.setattr(tr, "ft_quadrature_many", counted_many)
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    counts = []
    for with_table in (False, True):
        th._clear_builders()  # else the second call finds every side cached
        calls.update(build=0, transform=0)
        report = sm.verify(th.preset("zd", 2.5), f, tol=1e-8, with_table=with_table)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["build"] > 0 and counts[0]["transform"] > 0
    assert {row["side"] for row in report.per_term_table} == {"lhs", "rhs"}


def test_dual_builds_store_few_more_entries_than_nonzero_shells(monkeypatch):
    # the theta2^d term of the dual of dd at d = 4.113 has offset d/4; summed
    # on a grid common to both terms it would take 4000 times the entries
    spec = th.preset("dd", 4.113)
    f = tr.GaussPoly(((1.0, 2, 11.33), (-0.31, 0, 13.52)))
    built, evaluated = [], []
    coeffs, evaluate = th._TermBuilder.coeffs, tr.GaussPoly.eval

    def recording_coeffs(self, L):
        out = coeffs(self, L)
        built.append(((self.offset + self.g * np.flatnonzero(out)) / self.D, out.size))
        return out

    def recording_eval(self, r):
        evaluated.append(np.size(r))
        return evaluate(self, r)

    monkeypatch.setattr(th._TermBuilder, "coeffs", recording_coeffs)
    monkeypatch.setattr(tr.GaussPoly, "eval", recording_eval)
    report = sm.verify(spec, f, tol=1e-10)
    assert report.passed
    assert all(stored <= 4 * nonzero.size for nonzero, stored in built)
    # both sides build their two terms at each order; every distinct radius
    # of each order is evaluated once, and nothing else.  theta3^d and
    # theta4^d share their exponents, so the direct side evaluates half its
    # shells.
    pairs = [np.concatenate([built[i][0], built[i + 1][0]]) for i in range(0, len(built), 2)]
    assert sum(evaluated) == sum(np.unique(A).size for A in pairs)
    assert sum(evaluated) < sum(A.size for A in pairs)


def test_profile_is_evaluated_once_per_distinct_radius():
    # theta3^d and theta4^d have nonzero shells at the same exponents
    radii = []

    def f(r):
        radii.append(r)
        return math.exp(-r * r)

    left = sm.lhs_sum(th.preset("dd", 2.4), tr.Sampled(f, decay_hint=(1.0, 1.0)), 1e-8)
    assert left.L_used == 32
    assert len(radii) == len(set(radii)) == 33
    assert left.shells[1].size == 66


def test_verify_computes_each_recurrence_index_once(monkeypatch):
    # zd is self-dual: both sides of verify grow one theta3^d builder, and a
    # repeated verify of the spec finds it grown far enough
    grown = []
    grow = th._TermBuilder._grow

    def recording_grow(self, N):
        grown.append((id(self), self.b.size - 1, N))
        grow(self, N)

    monkeypatch.setattr(th._TermBuilder, "_grow", recording_grow)
    report = sm.verify(th.preset("zd", 2.5), GAUSS, tol=1e-10)
    assert report.passed and report.L_used > 32
    assert len({who for who, _, _ in grown}) == 1
    assert [old for _, old, _ in grown[1:]] == [new for _, _, new in grown[:-1]]
    assert sum(new - old for _, old, new in grown) == max(new for _, _, new in grown)
    grown.clear()
    assert sm.verify(th.preset("zd", 2.5), GAUSS, tol=1e-10) == report
    assert grown == []


def test_verify_builds_a_shared_dual_term_once(monkeypatch):
    # dd has theta3^d and theta4^d, its dual theta3^d and theta2^d
    made = []
    init = th._TermBuilder.__init__

    def recording_init(self, factors):
        made.append(tuple(factors))
        init(self, factors)

    monkeypatch.setattr(th._TermBuilder, "__init__", recording_init)
    spec = th.preset("dd", 2.4)
    assert sm.verify(spec, GAUSS, tol=1e-10).passed
    theta3 = spec.terms[0][1]
    assert made.count(theta3) == 1
    assert sorted(fs[0].kind for fs in made) == [2, 3, 4]
    # lhs_sum then rhs_sum share it through the cache too
    th._clear_builders()
    made.clear()
    sm.lhs_sum(spec, GAUSS, 1e-10)
    sm.rhs_sum(spec, GAUSS, 1e-10)
    assert made.count(theta3) == 1
    assert sorted(fs[0].kind for fs in made) == [2, 3, 4]


def test_report_table_absent_by_default():
    report = sm.verify(th.preset("zd", 2), GAUSS, tol=1e-10)
    assert report.per_term_table is None


def test_l_cap_refuses_slow_decay():
    # alpha = 0.01 needs thousands of shells at this tolerance
    f = tr.GaussPoly(((1.0, 0, 0.01),))
    with pytest.raises(ToleranceNotMet):
        sm.lhs_sum(th.preset("zd", 3), f, 1e-12, L_cap=64)


def test_verify_propagates_cap():
    f = tr.GaussPoly(((1.0, 0, 0.01),))
    with pytest.raises(ToleranceNotMet):
        sm.verify(th.preset("zd", 3), f, tol=1e-12, L_cap=64)


BAD_TOLS = [0.0, -1.0, math.nan, math.inf, True, "1e-10", None, 1j]


def _no_build(factors):
    raise AssertionError("made a term builder")


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("side", ["verify", "lhs_sum", "rhs_sum"])
def test_bad_tol_raises_before_any_build(monkeypatch, side, tol):
    monkeypatch.setattr(th, "_TermBuilder", _no_build)
    with pytest.raises(DomainError, match="tol"):
        getattr(sm, side)(th.preset("zd", 2), GAUSS, tol)


@pytest.mark.parametrize("L_cap", [0, -8])
@pytest.mark.parametrize("side", ["verify", "lhs_sum", "rhs_sum"])
def test_order_cap_below_one_raises_before_any_build(monkeypatch, side, L_cap):
    monkeypatch.setattr(th, "_TermBuilder", _no_build)
    with pytest.raises(DomainError, match="L_cap"):
        getattr(sm, side)(th.preset("zd", 2), GAUSS, 1e-10, L_cap=L_cap)


@pytest.mark.parametrize("L_cap", [100.5, 64.0, True, "64"])
@pytest.mark.parametrize("side", ["verify", "lhs_sum", "rhs_sum"])
def test_non_integer_order_cap_raises_before_any_build(monkeypatch, side, L_cap):
    # 100.5 would be floored to 100 and True read as 1
    monkeypatch.setattr(th, "_TermBuilder", _no_build)
    with pytest.raises(DomainError, match="L_cap must be an integer"):
        getattr(sm, side)(th.preset("zd", 2), GAUSS, 1e-10, L_cap=L_cap)


def test_small_order_cap_bounds_every_order(monkeypatch):
    # the doubling starts at min(32, L_cap), so a cap below 32 caps too;
    # dd at d = 2.417 has a theta2^d dual term with offset d/4
    orders = []
    coeffs = th._TermBuilder.coeffs

    def recording_coeffs(self, L):
        orders.append(L)
        return coeffs(self, L)

    monkeypatch.setattr(th._TermBuilder, "coeffs", recording_coeffs)
    f = tr.GaussPoly(((1.0, 0, 4.0),))
    for name, d in (("zd", 2), ("dd", 2.417), ("theta4d", 3.3)):
        orders.clear()
        with pytest.raises(ToleranceNotMet, match="order cap 4"):
            sm.verify(th.preset(name, d), f, tol=1e-6, L_cap=4)
        assert max(orders) <= 4
        orders.clear()
        report = sm.verify(th.preset(name, d), f, tol=1e-6, L_cap=16)
        assert report.passed
        assert max(report.L_used, report.L_star_used) <= 16
        assert max(orders) <= 16


@pytest.mark.parametrize("name,d", [("dd", 3.2707), ("dd", 2.4131), ("theta4d", 2.7183)])
def test_dimension_to_four_decimals_verifies(name, d):
    # the theta2^d term of the dual has offset d/4; for dd it shares no grid
    # of denominator <= 4096 with the theta3^d term, so each term is summed
    # on its own grid
    report = sm.verify(th.preset(name, d), GAUSS, tol=1e-10)
    assert report.passed
    assert report.residual < 1e-12


@pytest.mark.parametrize("name,d", [("zd", 3.0), ("dd", 2.4131), ("theta4d", 3.3)])
def test_zero_coefficients_add_no_tail(name, d):
    # a spec term with coefficient 0 has no nonzero shell, and a profile
    # term with c = 0 no envelope: the report is the one without them
    spec = th.preset(name, d)
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.3, 2, 2.0)))
    report = sm.verify(spec, f, tol=1e-10)
    assert report.passed and math.isfinite(report.error_budget)
    zero_term = (0.0, (th.ThetaFactor(2, d, Fraction(1)),))
    with_zero_term = th.ThetaSpec(terms=spec.terms + (zero_term,), dim_d=d)
    assert sm.verify(with_zero_term, f, tol=1e-10) == report
    with_zero_c = tr.GaussPoly(((1.0, 0, 1.0), (0.0, 4, 0.5), (0.3, 2, 2.0)))
    assert sm.verify(spec, with_zero_c, tol=1e-10) == report


@pytest.mark.parametrize("C,n,A0,h,alpha", [
    (1.0, 150.0, 1025.0, 1.0, 1.0),     # A0^n overflows
    (1e300, 3.0, 4097.0, 1.0, 0.01),    # C A0^n overflows
    (4.0, 1300.0, 8193.0, 0.25, 1.5),   # A0^n far past the doubles
])
def test_poly_gauss_tail_bounds_the_sum_where_a_power_overflows(C, n, A0, h, alpha):
    import mpmath as mp

    mp.mp.dps = 30
    term = lambda j: C * (A0 + j * h) ** n * mp.exp(-alpha * (A0 + j * h))
    true = mp.nsum(term, [0, mp.inf])
    tail = sm._poly_gauss_tail(math.log(C), n, A0, h, alpha)
    assert math.isfinite(tail)
    assert true <= tail <= 1.5 * true


def test_poly_gauss_tail_is_inf_where_the_ratio_reaches_one():
    assert sm._poly_gauss_tail(0.0, 1e9, 33.0, 1.0, 1.0) == math.inf


_TINY = 2.0**-1022  # the least normal double


@settings(derandomize=True, deadline=None, max_examples=60)
@example(log_C=0.0, n=10.0, A0=100.0, h=1.0, alpha=0.099)    # log ratio 5e-4
@example(log_C=709.0, n=0.0, A0=1.0, h=0.25, alpha=1e-3)    # only the quotient overflows
@example(log_C=700.0, n=0.0, A0=1.0, h=0.25, alpha=1e-3)    # 4e307
@given(log_C=st.floats(-50.0, 720.0), n=st.floats(0.0, 1300.0), A0=st.floats(1.0, 1e4),
       h=st.sampled_from([0.25, 0.5, 1.0, 2.0]), alpha=st.floats(1e-3, 20.0))
def test_poly_gauss_tail_bounds_the_sum_and_is_inf_only_past_the_doubles(log_C, n, A0, h, alpha):
    # the true sum is e^{log_C - alpha A0} h^n Phi(e^{-alpha h}, -n, A0/h),
    # with Phi the Lerch transcendent; eps_x is the rounding of the
    # exponent log C + n log A0 - alpha A0 in doubles, eps_r that of the log
    # ratio, and eps_b their effect on the bound
    import mpmath as mp

    with mp.workdps(20):
        tail = sm._poly_gauss_tail(log_C, n, A0, h, alpha)
        eps = 2.0**-52
        eps_x = 8 * eps * (abs(log_C) + n * math.log(A0) + alpha * A0 + 1.0)
        eps_r = 8 * eps * (n * math.log1p(h / A0) + alpha * h)
        log_r = n * mp.log1p(mp.mpf(h) / A0) - alpha * h
        if abs(log_r) <= eps_r:
            return  # the ratio is 1 within the rounding of its log
        if log_r > 0:
            assert tail == math.inf
            return
        bound = mp.exp(log_C + n * mp.log(A0) - alpha * A0) / -mp.expm1(log_r)
        eps_b = eps_x + eps_r / -log_r
        if bound > (1 + eps_b) * sys.float_info.max:
            assert tail == math.inf
            return
        if bound >= (1 - eps_b) * sys.float_info.max:
            return  # at the largest double within rounding
        assert math.isfinite(tail)
        if bound < (1 - eps_b) * _TINY:
            assert 0.0 <= tail <= _TINY  # below the normal doubles only its size is asked
            return
        assert abs(tail - bound) <= eps_b * bound
        true = (mp.exp(log_C - alpha * A0) * mp.mpf(h) ** n
                * mp.lerchphi(mp.exp(-alpha * h), -n, mp.mpf(A0) / h))
        assert tail >= (1 - eps_x) * true


def test_coeff_growth_takes_overflowing_powers_in_logs():
    A = np.array([1.0, 2.0, 1e4])
    N = np.array([300.0, 1e10, 1e200])
    log_C = th._coeff_growth(A, N, 150.0)
    # 1e4^150 is past the doubles; its ratio 1e-400 is far below the others
    assert log_C == pytest.approx(math.log(4.0 * max(300.0, 1e10 / 2.0**150)), rel=1e-13)
    # C itself is past the doubles, its log is not
    log_C = th._coeff_growth(np.array([1.0]), np.array([-1e308]), 3.0)
    assert log_C == pytest.approx(math.log(4.0) + math.log(1e308), rel=1e-15)


def test_verify_refuses_a_spec_coefficient_that_overflows_the_shells():
    factors = (th.ThetaFactor(3, 3.0, Fraction(1)),)
    spec = th.ThetaSpec(terms=((1e306, factors),), dim_d=3.0)
    with pytest.raises(CoefficientOverflow):
        sm.verify(spec, GAUSS, tol=1e-10)


def test_verify_passes_at_large_dimension_and_huge_coefficient():
    # the majorant's powers overflow there: the tail is taken in logs
    report = sm.verify(th.preset("zd", 150), GAUSS, tol=1e-10)
    assert report.passed and report.L_used == 2048
    assert math.isfinite(report.error_budget)
    factors = (th.ThetaFactor(3, 3.0, Fraction(1)),)
    spec = th.ThetaSpec(terms=((1e300, factors),), dim_d=3.0)
    # from amplitude 1e7 on, C (about 1e301) times it is past the doubles,
    # each shell term and both sums are not: the tail and the rounding
    # floor, whose addends are scaled before they are summed, are finite
    for amplitude, rate, orders in ((1.0, 1.0, (1024, 128)), (1e7, 1.0, (1024, 128)),
                                    (3e7, 1.0, (1024, 128)), (2e6, 0.2, (4096, 32))):
        report = sm.verify(spec, tr.GaussPoly(((amplitude, 0, rate),)), tol=1e-10)
        assert report.passed and (report.L_used, report.L_star_used) == orders
        assert math.isfinite(report.tail_lhs) and math.isfinite(report.error_budget)


def test_order_cap_and_table_are_keyword_only():
    # a stale positional settings argument must not land in L_cap
    with pytest.raises(TypeError):
        sm.verify(th.preset("zd", 2), GAUSS, 1e-10, 4096)
    with pytest.raises(TypeError):
        sm.rhs_sum(th.preset("zd", 2), GAUSS, 1e-10, 4096)


def test_verify_refuses_a_shell_term_that_overflows():
    # 1e300 times a profile of amplitude 1e8 is no finite double, though
    # each factor is; numpy's overflow warning is an error in this suite
    factors = (th.ThetaFactor(3, 3.0, Fraction(1)),)
    spec = th.ThetaSpec(terms=((1e300, factors),), dim_d=3.0)
    with pytest.raises(CoefficientOverflow, match=r"overflows at r = 1\.0"):
        sm.verify(spec, tr.GaussPoly(((1e8, 0, 1.0),)), tol=1e-10)


# theta3(q)^1.7 theta4(q^3)^0.8: its dual has a theta2(q^{1/3})^0.8 factor
MIXED_SCALE_3 = th.ThetaSpec(terms=((1.0, (th.ThetaFactor(3, 1.7, Fraction(1)),
                                           th.ThetaFactor(4, 0.8, Fraction(3)))),), dim_d=2.5)


def _remainder(spec, f, L):
    """sum |N_l f(sqrt(A_l))| over the points of a listing at 4L that the
    listing at L did not reach, up to exponent 4L."""
    summed = th.shells(spec, L)
    last = np.array([summed.l[summed.term == i].max() for i in range(len(spec.terms))])
    wide = th.shells(spec, 4 * L)
    past = (wide.l > last[wide.term]) & (wide.A <= 4 * L)
    return math.fsum(np.abs(wide.N[past] * f.eval(np.sqrt(wide.A[past]))))


@pytest.mark.parametrize("spec", [
    th.preset("dd", 2.4131), th.preset("dd", 3.3),
    th.preset("theta4d", 2.4131), th.preset("theta4d", 3.3), MIXED_SCALE_3,
], ids=["dd-2.4131", "dd-3.3", "theta4d-2.4131", "theta4d-3.3", "mixed-scale-3"])
@pytest.mark.parametrize("f", [
    tr.GaussPoly(((1.0, 0, 1.0), (0.3, 2, 2.0))),
    tr.GaussPoly(((1.0, 2, 20.0),)),  # slow transform: the dual side stops at 128
], ids=["gauss-mix", "rate-20"])
def test_tail_bounds_the_remainder_at_the_order_used(spec, f):
    # each side's tail at the order L it stopped at, on each term's own grid,
    # is at least what it left out
    left = sm.lhs_sum(spec, f, 1e-10)
    right = sm.rhs_sum(spec, f, 1e-10)
    fhat = tr.ft_gausspoly(f, spec.dim_d)
    for side, side_spec, g in ((left, spec, f), (right, th.dual(spec), fhat)):
        true = _remainder(side_spec, g, side.L_used)
        assert 0.0 < true <= side.tail


@pytest.mark.parametrize("spec", [MIXED_SCALE_3, th.preset("dd", 2.4131),
                                  th.preset("theta4d", 3.3)],
                         ids=["mixed-scale-3", "dd-2.4131", "theta4d-3.3"])
def test_orders_used_never_exceed_the_cap(spec):
    # the dual side doubles 32, 64, then stops at the cap 100: L_star_used
    # counts that order, not the points of a grid finer than 1 (the dual of
    # mixed-scale-3 has a theta2(q^{1/3}) factor, three points per unit)
    f = tr.GaussPoly(((1.0, 2, 20.0),))
    report = sm.verify(spec, f, tol=1e-10, L_cap=100)
    assert (report.L_used, report.L_star_used) == (32, 100)
    report = sm.verify(spec, f, tol=1e-10)
    assert (report.L_used, report.L_star_used) == (32, 128)


def test_majorant_refuses_a_profile_it_cannot_bound(monkeypatch):
    with pytest.raises(TypeError, match="GaussPoly or Sampled"):
        sm._majorant(lambda r: math.exp(-r * r), 2.0)
    monkeypatch.setattr(th, "_TermBuilder", _no_build)
    with pytest.raises(TypeError, match="GaussPoly or Sampled"):
        sm.lhs_sum(th.preset("zd", 2), lambda r: math.exp(-r * r), 1e-10)


def _decay_windows(near, far):
    """_measured_decay on 64 unit shells to exponent 64: the near window
    (56, 64] holds ``near`` per shell, the far window (48, 56] ``far``."""
    A = np.arange(1.0, 65.0)
    terms = np.where(A > 56.0, near, np.where(A > 48.0, far, 1.0))
    side = th.Side(A, A, np.ones(A.size), np.sqrt(A), None, (1.0,), (64.0,), (None,))
    return sm._measured_decay(side, terms, np.zeros(A.size))


def test_measured_decay_takes_ten_far_windows_when_the_near_one_is_empty():
    assert _decay_windows(0.0, 1e-9) == (10.0 * 8e-9, False)


@pytest.mark.parametrize("near,far", [(1e-9, 1e-9), (2e-9, 1e-9)])
def test_measured_decay_is_infinite_where_the_windows_do_not_shrink(near, far):
    assert _decay_windows(near, far) == (math.inf, False)


def test_gauss_nodes_are_made_once_per_order_and_dimension(monkeypatch):
    # each doubling of the dual side runs two composite rules at d = 2.5
    tr._gauss_nodes.cache_clear()
    made = []
    jacobi = tr._gauss_jacobi

    def counted(n, beta):
        made.append((n, beta))
        return jacobi(n, beta)

    monkeypatch.setattr(tr, "_gauss_jacobi", counted)
    f = tr.Sampled(lambda r: math.exp(-1.3 * r * r), decay_hint=(1.0, 1.3))
    reports = []
    for _ in range(2):
        th._clear_builders()
        reports.append(sm.verify(th.preset("dd", 2.5), f, tol=1e-8))
    assert reports[0] == reports[1] and reports[0].passed
    assert sorted(made) == [(10, 1.5), (14, 1.5)]
    for column in tr._gauss_nodes(10, 2.5):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0
