"""Both sides of the summation identity and the verification report."""

import math
import time

import pytest

from thetasum import qseries as qs
from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr
from thetasum.errors import DomainError, ToleranceNotMet

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
    assert report.L_star_used == th.build(th.dual(spec), 32).trunc_L


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


def test_per_term_table_uses_caller_settings():
    # a tolerance the transform cannot reach must reach the table too
    f = tr.Sampled(lambda r: math.exp(-r * r), decay_hint=(1.0, 1.0))
    settings = tr.TransformSettings(rel_tol=1e-16, abs_tol=1e-30)
    with pytest.raises(ToleranceNotMet):
        sm._term_table(th.preset("zd", 2), f, settings)


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
