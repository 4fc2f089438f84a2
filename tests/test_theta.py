"""Theta factors, spec algebra, duals, and the modular relation."""

import functools
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from thetasum import qseries as qs
from thetasum import theta as th
from thetasum.errors import (CoefficientOverflow, DomainError, InvalidSpec, OffsetMismatch,
                             ToleranceNotMet)

from conftest import even_sum_counts, lattice_counts, signed_counts


def test_theta_series_kind3_counts_squares():
    a = th.theta_series(3, 36)
    assert a.denom_V == 1 and a.offset_A == 0
    for l in range(37):
        want = 2.0 if math.isqrt(l) ** 2 == l and l > 0 else (1.0 if l == 0 else 0.0)
        assert a.coeff(l) == want


def test_theta_series_kind4_signs():
    a = th.theta_series(4, 36)
    assert a.coeff(0) == 1.0
    assert a.coeff(1) == -2.0
    assert a.coeff(4) == 2.0
    assert a.coeff(9) == -2.0


def test_theta_series_kind2_grid():
    a = th.theta_series(2, 20)
    assert a.denom_V == 4
    assert a.offset_exponent() == 0.25
    # q^{1/4}(2 + 2 q^2 + 2 q^6 + ...)
    assert a.coeff(0) == 2.0
    assert a.coeff(8) == 2.0
    assert a.coeff(24) == 2.0


def test_theta_series_rejects_bad_kind():
    with pytest.raises(DomainError):
        th.theta_series(1, 10)


# each function that takes a kind, on its own
KIND_READERS = pytest.mark.parametrize("call", [
    lambda kind: th.theta_series(kind, 4).coeffs,
    lambda kind: th.theta_eval_product(kind, 0.5),
    lambda kind: th.jacobi_residual(kind, 1.0),
], ids=["theta_series", "theta_eval_product", "jacobi_residual"])


@pytest.mark.parametrize("kind", [1, 3.0, np.float64(3.0), True, "3", None],
                         ids=["1", "float", "numpy-float", "bool", "string", "None"])
@KIND_READERS
def test_every_kind_reader_refuses_what_is_no_kind(call, kind):
    # 3.0 and np.float64(3.0) were looked up by value and returned theta3
    with pytest.raises(DomainError, match=re.escape(f"kind must be 2, 3 or 4, got {kind!r}")):
        call(kind)


@KIND_READERS
def test_every_kind_reader_takes_a_numpy_integer(call):
    assert np.array_equal(call(np.int64(3)), call(3))


def test_log_weights_are_derived_from_the_kind_rows():
    # the hand-written table the rows replaced
    assert {kind: w.tolist() for kind, w in th._LOG_W.items()} == {
        2: [[-3, 1], [-3, 1]], 3: [[-1, -1], [-2, 2]], 4: [[-1, -1], [-2, -2]]}


@pytest.mark.parametrize("L", [2.7, 2.0, True, "4"])
@pytest.mark.parametrize("call", [
    lambda L: th.theta_series(3, L),
    lambda L: th.build(th.preset("zd", 2), L),
    lambda L: th.shells(th.preset("zd", 2), L),
    lambda L: th.side(th.preset("zd", 2), L),
    lambda L: th.coeff_table(th.preset("zd", 2), L),
], ids=["theta_series", "build", "shells", "side", "coeff_table"])
def test_an_order_that_is_not_an_integer_is_refused(call, L):
    # these were floored, read True as 1, or crashed inside numpy (build at 2.7)
    with pytest.raises(DomainError, match="order must be an integer >= 0"):
        call(L)


@pytest.mark.parametrize("kind", [2, 3, 4])
@pytest.mark.parametrize("q", [0.02, 0.1, 0.3, 0.5])
def test_product_form_matches_series(kind, q):
    # mpmath sums the series of theta_kind(q), q the nome, to 30 digits
    with mp.workdps(30):
        want = mp.jtheta(kind, 0, q)
    assert abs(float(want) - th.theta_eval_product(kind, q)) <= 1e-13


def test_product_form_at_zero():
    assert th.theta_eval_product(3, 0.0) == 1.0
    assert th.theta_eval_product(4, 0.0) == 1.0
    assert th.theta_eval_product(2, 0.0) == 0.0


def test_product_form_domain():
    with pytest.raises(DomainError):
        th.theta_eval_product(3, 1.0)
    with pytest.raises(DomainError):
        th.theta_eval_product(3, -0.1)
    for q in (True, "0.5"):  # "0.5" gave theta3(0.5)
        with pytest.raises(DomainError, match="q must be a real number"):
            th.theta_eval_product(3, q)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zd_preset_counts_lattice_vectors(d):
    A, N = th.coeff_table(th.preset("zd", d), 30)
    want = lattice_counts(d, 30)
    assert np.array_equal(A, np.arange(31))
    for l in range(31):
        assert N[l] == pytest.approx(want[l], abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_dd_preset_counts_even_sum_vectors(d):
    A, N = th.coeff_table(th.preset("dd", d), 24)
    want = even_sum_counts(d, 24)
    assert np.array_equal(A, np.arange(25))
    for l in range(25):
        assert N[l] == pytest.approx(want[l], abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_theta4d_preset_matches_signed_counts(d):
    A, N = th.coeff_table(th.preset("theta4d", d), 24)
    want = signed_counts(d, 24)
    assert np.array_equal(A, np.arange(25))
    for l in range(25):
        assert N[l] == pytest.approx(want[l], abs=1e-10)


def test_coeff_table_integer_scale_mix():
    # theta3(q) * theta3(q^2) counts x^2 + 2 y^2
    spec = th.ThetaSpec(
        terms=((1.0, (th.ThetaFactor(3, 1.0, Fraction(1)),
                      th.ThetaFactor(3, 1.0, Fraction(2)))),),
        dim_d=2.0,
    )
    A, N = th.coeff_table(spec, 20)
    want = [0] * 21
    for x in range(-5, 6):
        for y in range(-4, 5):
            n = x * x + 2 * y * y
            if n <= 20:
                want[n] += 1
    assert np.array_equal(A, np.arange(21))
    for l in range(21):
        assert N[l] == pytest.approx(want[l], abs=1e-10)


C5_SPEC = th.ThetaSpec(
    terms=((1.0, (th.ThetaFactor(3, 1.2, Fraction(1)),
                  th.ThetaFactor(4, 0.8, Fraction(3)))),),
    dim_d=2.0,
)


THREE_FACTOR_SPEC = th.ThetaSpec(
    terms=((0.5, (th.ThetaFactor(3, 0.5, Fraction(1)),
                  th.ThetaFactor(4, 0.7, Fraction(2)),
                  th.ThetaFactor(2, 1.3, Fraction(1, 2)))),
           (-0.25, (th.ThetaFactor(2, 2.0, Fraction(3)),
                    th.ThetaFactor(3, 0.5, Fraction(1, 3)))),),
    dim_d=2.5,
)


def _power_and_product_build(spec, L):
    """Reference route: each factor by Miller's power recurrence, then products."""
    pieces = []
    for coeff, factors in spec.terms:
        term = None
        for f in factors:
            s = th.theta_series(f.kind, max(1, math.ceil(L / f.scale)))
            s = qs.pow_real(qs.rescale(s, f.scale), f.power)
            term = s if term is None else qs.mul(term, s)
        pieces.append((coeff, term))
    return qs.lincomb(pieces)


# by_term: the terms of the spec lie on no common grid, so build refuses it whole
@pytest.mark.parametrize("spec,by_term", [
    (th.preset("zd", 2.5), False),
    (th.preset("dd", 2.4), False),
    (th.preset("theta4d", 3.3), False),
    (th.dual(th.preset("dd", 2.4)), True),
    (th.dual(th.preset("theta4d", 3.3)), False),
    (th.dual(th.preset("dd", 2.417)), True),       # offset d/4 on a 4000x finer grid
    (th.dual(th.preset("theta4d", math.pi)), False),  # float offset
    (C5_SPEC, False),
    (th.dual(C5_SPEC), False),
    (THREE_FACTOR_SPEC, True),
], ids=["zd", "dd", "theta4d", "dual-dd", "dual-theta4d", "dual-dd-fold",
        "dual-theta4d-float", "c5", "dual-c5", "three-factor"])
@pytest.mark.parametrize("L", [1, 5, 16])
def test_build_keeps_grid_of_power_and_product_route(spec, by_term, L):
    if not by_term:
        new = th.build(spec, L)
        ref = _power_and_product_build(spec, L)
        assert (new.denom_V, new.trunc_L) == (ref.denom_V, ref.trunc_L)
        assert type(new.offset_A) is type(ref.offset_A)
        assert new.offset_A == pytest.approx(ref.offset_A, rel=1e-15)
        scale = np.maximum.accumulate(np.abs(ref.coeffs))
        assert np.all(np.abs(new.coeffs - ref.coeffs) <= 1e-12 * scale)
        return
    with pytest.raises(OffsetMismatch):
        th.build(spec, L)
    for term in spec.terms:
        one_term = th.ThetaSpec(terms=(term,), dim_d=spec.dim_d)
        new = th.build(one_term, L)
        ref = _power_and_product_build(one_term, L)
        # a lone term may sit on a coarser grid than the product route's
        # (three-factor's second term: V = 3 here, V = 6 there), never a finer one
        assert ref.denom_V % new.denom_V == 0
        assert new.offset_exponent() == pytest.approx(ref.offset_exponent(), rel=1e-15)
        assert new.reliable_exponent() == pytest.approx(ref.reliable_exponent(), rel=1e-15)
        diff = qs.lincomb([(1.0, new), (-1.0, ref)])
        at = np.searchsorted(ref.exponents(), diff.exponents() + 1e-9) - 1
        scale = np.maximum.accumulate(np.abs(ref.coeffs))[at]
        assert np.all(np.abs(diff.coeffs) <= 1e-12 * scale)


@pytest.mark.parametrize("spec", [
    th.preset("zd", 2.5),
    th.preset("theta4d", 3.3),
    th.dual(th.preset("dd", 2.4131)),  # theta2^d term with a float offset
    THREE_FACTOR_SPEC,
], ids=["zd", "theta4d", "dual-dd-float", "three-factor"])
def test_grown_term_equals_one_step_build(spec):
    # a term grown by doubling its order is bit-identical to a fresh build
    for coeff, factors in spec.terms:
        term = th._TermBuilder(factors)
        L = 32
        while L <= 4096:
            grown = term.coeffs(L)
            fresh = th._TermBuilder(factors).coeffs(L)
            assert grown.size == fresh.size == term.top(L) // term.g + 1
            assert np.array_equal(grown, fresh)
            L *= 2


def test_coeff_table_refuses_an_overflowing_coefficient():
    # numpy's overflow warning is an error in this suite: only the finite check speaks
    spec = th.ThetaSpec(terms=((1e308, (th.ThetaFactor(3, 8.0, Fraction(1)),)),), dim_d=8.0)
    with pytest.raises(CoefficientOverflow):
        th.coeff_table(spec, 4)
    with pytest.raises(CoefficientOverflow):
        th.shells(spec, 4)


def test_coeff_table_refuses_two_coefficients_that_add_to_an_overflow():
    factors = (th.ThetaFactor(3, 2.0, Fraction(1)),)
    spec = th.ThetaSpec(terms=((2.5e307, factors), (2.5e307, factors)), dim_d=2.0)
    assert np.all(np.isfinite(th.shells(spec, 1).N))  # 1e308 at q^1 in each term
    with pytest.raises(CoefficientOverflow):
        th.coeff_table(spec, 1)


def test_an_overflowing_recurrence_raises_coefficient_overflow_alone():
    # the exp recurrence of dd at d = 500 leaves the doubles before index 512
    with pytest.raises(CoefficientOverflow):
        th.coeff_table(th.preset("dd", 500), 512)


@pytest.mark.parametrize("spec", [
    th.preset("zd", 2.5),
    th.preset("dd", 3.3),
    th.dual(th.preset("dd", 2.4131)),  # theta2^d term with a float offset
    THREE_FACTOR_SPEC,
], ids=["zd", "dd", "dual-dd-float", "mixed-scale"])
def test_shells_are_each_terms_series_sorted_by_exponent(spec):
    L = 256
    listing = th.shells(spec, L)
    # stable by exponent: A never falls, and a tie keeps the terms' order
    assert np.all(np.diff(listing.A) >= 0)
    tie = np.diff(listing.A) == 0
    assert np.all(np.diff(listing.term)[tie] >= 0)
    for i, (coeff, factors) in enumerate(spec.terms):
        # each term on the grid its recurrence runs on: (offset + g j)/D
        term = th._builder(factors)
        b = term.coeffs(L)
        j = np.arange(b.size)
        mine = listing.term == i
        assert np.all(np.diff(listing.A[mine]) > 0)  # in the order of j
        assert np.array_equal(listing.A[mine], (term.offset + term.g * j) / term.D)
        assert np.array_equal(listing.N[mine], coeff * term.prefactor * b)
        assert listing.step[i] == term.g / term.D
        assert listing.top[i] == listing.A[mine][-1]  # the last computed point


def test_coeff_table_merges_offsets_that_differ_by_rounding():
    # theta2^d and theta2^p theta2^(d-p) start at d/4 and p/4 + (d-p)/4,
    # 1 ulp apart here; they are one row, the two terms' coefficients added.
    # Both step by 2, and no row lies between.
    d, p = 3.7566, 1.6392
    spec = th.ThetaSpec(terms=((1.0, (th.ThetaFactor(2, d, Fraction(1)),)),
                               (1.0, (th.ThetaFactor(2, p, Fraction(1)),
                                      th.ThetaFactor(2, d - p, Fraction(1))))), dim_d=d)
    A, N = th.coeff_table(spec, 8)
    (A1, N1), (A2, N2) = (th.coeff_table(th.ThetaSpec(terms=(term,), dim_d=d), 8)
                          for term in spec.terms)
    assert A.size == A1.size == A2.size == 4
    assert A1[0] != A2[0] and np.allclose(A1, A2, rtol=0, atol=1e-12)
    # a row takes the lesser exponent of its points, which come sorted
    assert np.array_equal(A, np.minimum(A1, A2))
    assert np.allclose(np.diff(A), 2.0, rtol=0, atol=1e-12)
    assert np.array_equal(N, N1 + N2)
    want, scale = _oracle_coeffs(spec, A)
    assert np.all(np.abs(N - want) <= 1e-11 * scale)


def test_term_builder_serves_a_lower_order_from_its_prefix():
    term = th._TermBuilder(th.preset("zd", 2.5).terms[0][1])
    high = term.coeffs(256)
    low = term.coeffs(64)
    assert np.array_equal(low, th.coeff_table(th.preset("zd", 2.5), 64)[1])
    assert np.array_equal(high[:65], low)


_BITS = 200


@functools.lru_cache(maxsize=None)
def _mp_factor_power(kind: int, power: float, n: int) -> tuple[int, ...]:
    """P^power to x^n, rounded to integers in units of 2^-_BITS.

    P is theta3 or theta4, or theta2(q) / (2 q^{1/4}) in x = q^2, whose
    nonzero coefficients sit at the triangular numbers.  Miller's recurrence
    runs over the few nonzero a_k at 70 digits, which absorbs its ~1e36
    amplification at these orders.
    """
    if kind == 2:
        nz = [(l * (l + 1) // 2, 1) for l in range(1, math.isqrt(2 * n) + 1)]
    else:
        nz = [(l * l, 2 * (-1 if kind == 4 else 1) ** l)
              for l in range(1, math.isqrt(n) + 1)]
    nz = [(k, a) for k, a in nz if k <= n]
    with mp.workdps(70):
        alpha = mp.mpf(power)
        b = [mp.mpf(1)]
        for m in range(1, n + 1):
            b.append(mp.fsum(((alpha + 1) * k - m) * a * b[m - k]
                             for k, a in nz if k <= m) / m)
        return tuple(int(mp.nint(x * 2**_BITS)) for x in b)


def _oracle_coeffs(spec, A):
    """Coefficients of spec at the sorted exponents A, and their running magnitude."""
    want = np.zeros(A.size)
    mag = np.zeros(A.size)
    for coeff, factors in spec.terms:
        steps = [f.scale * (2 if f.kind == 2 else 1) for f in factors]
        D = math.lcm(*(st.denominator for st in steps))
        x0 = math.fsum(f.power * f.scale / 4 for f in factors if f.kind == 2)
        n = math.floor((A[-1] - x0) * D + 1e-9)
        g = math.gcd(*(int(st * D) for st in steps))  # the term's points: every g-th
        prod = np.zeros(n + 1, dtype=object)
        prod[0] = 1 << _BITS
        for f, st in zip(factors, steps):
            k = int(st * D)
            fac = np.array(_mp_factor_power(f.kind, f.power, n // k), dtype=object)
            out = np.zeros(n + 1, dtype=object)
            for i in np.flatnonzero(prod):
                m = (n - i) // k + 1
                out[i:i + k * m:k] += prod[i] * fac[:m]
            prod = out >> _BITS
        c = coeff * 2.0 ** math.fsum(f.power for f in factors if f.kind == 2)
        assert not any(v for i, v in enumerate(prod) if i % g)  # nothing between them
        exps = x0 + np.arange(0, n + 1, g) / D
        idx = np.searchsorted(A, exps - 1e-7)
        assert idx[-1] < A.size and np.all(np.abs(A[idx] - exps) < 1e-7)
        vals = c * np.array([v / 2**_BITS for v in prod[::g]])
        want[idx] += vals
        mag[idx] += np.abs(vals)
    return want, np.maximum.accumulate(mag)


@pytest.mark.parametrize("spec", [
    th.preset("zd", 2.5),
    th.preset("dd", 2.4),
    th.preset("theta4d", 3.3),
    # the theta2^d term of a dual of dd lies on no common grid with theta3^d
    th.dual(th.preset("dd", 2.4)),
    th.dual(th.preset("dd", 2.417)),
    th.dual(th.preset("theta4d", 3.3)),
    C5_SPEC,
    th.dual(C5_SPEC),
    # below d = 1, where the spec took no d before
    *(th.preset(name, d) for d in (0.1, 0.3, 0.7) for name in th.PRESETS),
    *(th.dual(th.preset("dd", d)) for d in (0.1, 0.3, 0.7)),
], ids=["zd", "dd", "theta4d", "dual-dd", "dual-dd-fold", "dual-theta4d", "c5", "dual-c5",
        *(f"{name}-{d}" for d in (0.1, 0.3, 0.7) for name in th.PRESETS),
        *(f"dual-dd-{d}" for d in (0.1, 0.3, 0.7))])
def test_coeff_table_matches_mpmath_oracle_at_order_1024(spec):
    A, N = th.coeff_table(spec, 1024)
    want, scale = _oracle_coeffs(spec, A)
    assert np.all(np.abs(N - want) <= 1e-11 * scale)


@pytest.mark.parametrize("name,counts", [("zd", lattice_counts),
                                         ("dd", even_sum_counts),
                                         ("theta4d", signed_counts)])
@pytest.mark.parametrize("d,L", [(3, 1024), (2, 4096)])
def test_coeff_table_matches_lattice_counts_at_high_order(name, counts, d, L):
    A, N = th.coeff_table(th.preset(name, d), L)
    want = np.array(counts(d, L), dtype=np.float64)
    scale = np.maximum.accumulate(np.abs(want))
    assert np.array_equal(A, np.arange(L + 1))
    assert np.all(np.abs(N - want) <= 1e-11 * scale)


def test_coeff_table_noninteger_dimension_runs():
    A, N = th.coeff_table(th.preset("zd", 2.5), 12)
    # first shells: 1, then 2 * 2.5 = 5 at q^1
    assert A[:2].tolist() == [0.0, 1.0]
    assert N[0] == pytest.approx(1.0)
    assert N[1] == pytest.approx(5.0)


def test_spec_power_sum_must_match_dimension():
    with pytest.raises(InvalidSpec):
        th.ThetaSpec(
            terms=((1.0, (th.ThetaFactor(3, 2.0, Fraction(1)),)),),
            dim_d=3.0,
        )


def test_spec_takes_every_dim_above_zero():
    # one rule for the dimension: d > 0, beyond the power-sum tolerance
    for name in th.PRESETS:
        assert th.preset(name, 0.5).dim_d == 0.5
    three = th.ThetaFactor(3, 0.0, Fraction(1))
    for d in (0.0, -1.0):
        with pytest.raises(InvalidSpec, match=r"dim_d must be finite and positive"):
            th.ThetaSpec(terms=((1.0, (three,)),), dim_d=d)
    with pytest.raises(InvalidSpec, match=r"dim_d must be > 1e-12, the power-sum tolerance"):
        th.ThetaSpec(terms=((1.0, (three,)),), dim_d=th._POWER_SUM_TOL)
    with pytest.raises(InvalidSpec, match=r"dim_d must be finite and positive, got -2.0"):
        th.ThetaSpec(terms=((1.0, (th.ThetaFactor(3, 2.0, Fraction(1)),)),), dim_d=-2.0)


def test_spec_of_zero_powers_is_refused_where_the_power_sum_check_cannot_see_it():
    # powers summing to 0 pass the 1e-12 power-sum check against d <= 1e-12;
    # such a spec would reach the builders with no positive power
    zero = ((1.0, (th.ThetaFactor(3, 0.0, Fraction(1)),)),)
    with pytest.raises(InvalidSpec, match="dim_d must be >"):
        th.ThetaSpec(zero, dim_d=5e-13)
    with pytest.raises(InvalidSpec, match="factor powers sum to 0.0"):
        th.ThetaSpec(zero, dim_d=2e-12)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_dimension(d):
    # a NaN dim_d compares False against every power-sum and range check
    with pytest.raises(InvalidSpec, match="finite"):
        th.ThetaSpec(terms=((1.0, (th.ThetaFactor(3, 2.0, Fraction(1)),)),), dim_d=d)


def test_from_json_rejects_non_finite_dimension():
    data = th.preset("zd", 2).to_json_dict()
    data["dim_d"] = math.nan
    with pytest.raises(InvalidSpec, match="finite"):
        th.ThetaSpec.from_json_dict(data)
    text = th.preset("zd", 2).to_json().replace('"dim_d": 2.0', '"dim_d": NaN')
    with pytest.raises(InvalidSpec, match="finite"):
        th.ThetaSpec.from_json(text)


def test_every_spec_is_accepted_at_dim_one():
    # d = 1 is no endpoint: dd and theta4d are taken there as zd is
    for d in (1, 1 - 1e-12, 1.000000000001):
        for name in th.PRESETS:
            assert th.preset(name, d).dim_d == d
    assert not hasattr(th.ThetaSpec, "is_zd_form")


def test_preset_unknown_name():
    with pytest.raises(InvalidSpec):
        th.preset("e8", 2.0)


def test_dual_swaps_kinds_and_keeps_dim():
    spec = th.preset("dd", 2.4)
    dspec = th.dual(spec)
    kinds = sorted(f.kind for _, factors in dspec.terms for f in factors)
    assert kinds == [2, 3]
    assert dspec.dim_d == 2.4
    for coeff, _ in dspec.terms:
        assert coeff == 0.5  # unit scales leave coefficients alone


def test_dual_inverts_scales_and_rescales_coeff():
    spec = th.ThetaSpec(
        terms=((1.0, (th.ThetaFactor(3, 1.2, Fraction(1)),
                      th.ThetaFactor(4, 0.8, Fraction(3)))),),
        dim_d=2.0,
    )
    dspec = th.dual(spec)
    (coeff, factors), = dspec.terms
    by_kind = {f.kind: f for f in factors}
    assert by_kind[3].scale == Fraction(1)
    assert by_kind[2].scale == Fraction(1, 3)
    assert coeff == pytest.approx(3.0 ** -0.4, rel=1e-15)


@pytest.mark.parametrize("name,d", [("zd", 3.0), ("dd", 2.4), ("theta4d", 2.7)])
def test_dual_is_an_involution(name, d):
    spec = th.preset(name, d)
    back = th.dual(th.dual(spec))
    assert back.dim_d == spec.dim_d
    for (c1, f1), (c2, f2) in zip(back.terms, spec.terms):
        assert c1 == c2  # scale factors cancel exactly, not approximately
        assert f1 == f2


def test_json_roundtrip_is_bit_identical():
    spec = th.ThetaSpec(
        terms=((0.5, (th.ThetaFactor(3, 1.2, Fraction(1)),
                      th.ThetaFactor(4, 0.8, Fraction(1, 3)))),
               (-0.25, (th.ThetaFactor(2, 2.0, Fraction(7, 2)),))),
        dim_d=2.0,
    )
    back = th.ThetaSpec.from_json(spec.to_json())
    assert back == spec
    assert back.terms[0][1][1].scale == Fraction(1, 3)


@pytest.mark.parametrize("kind", [4, np.int64(4), np.int8(4)])
def test_factor_kind_is_stored_as_a_plain_int(kind):
    factor = th.ThetaFactor(kind, 2.0, Fraction(1))
    assert type(factor.kind) is int and factor.kind == 4
    spec = th.ThetaSpec(terms=((1.0, (factor,)),), dim_d=2.0)
    assert th.ThetaSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("kind", [3.0, np.float64(3.0), True, False, "3", None, 1])
def test_factor_rejects_a_kind_that_is_not_an_integer_of_two_to_four(kind):
    with pytest.raises(InvalidSpec, match="kind"):
        th.ThetaFactor(kind, 2.0, Fraction(1))


@pytest.mark.parametrize("kind", ["3.0", "true", '"3"'])
def test_from_json_rejects_a_kind_that_is_not_an_integer(kind):
    factor = f'{{"kind": {kind}, "power": 2.0, "scale": [1, 1]}}'
    text = f'{{"dim_d": 2.0, "terms": [{{"coeff": 1.0, "factors": [{factor}]}}]}}'
    with pytest.raises(InvalidSpec, match="kind"):
        th.ThetaSpec.from_json(text)


@pytest.mark.parametrize("where,value", [
    ("coeff", "1.0"), ("coeff", True), ("power", "2.0"), ("power", False),
    ("dim_d", "2.0"), ("dim_d", True), ("scale", [True, 1]), ("scale", [1, "2"]),
])
def test_from_json_rejects_strings_and_bools_for_numbers(where, value):
    # the integer scale is checked as JSON; the real fields by the constructors
    data = th.preset("zd", 2).to_json_dict()
    if where == "dim_d":
        data["dim_d"] = value
    elif where == "coeff":
        data["terms"][0]["coeff"] = value
    else:
        data["terms"][0]["factors"][0][where] = value
    says = {"coeff": "term coefficient must be a real number", "power": "power must be a real number",
            "dim_d": "dim_d must be a real number", "scale": "scale must be a JSON integer"}[where]
    with pytest.raises(InvalidSpec, match=says):
        th.ThetaSpec.from_json_dict(data)


def test_from_json_takes_integers_as_numbers():
    text = '{"dim_d": 2, "terms": [{"coeff": 1, "factors": [{"kind": 3, "power": 2, "scale": [1, 1]}]}]}'
    assert th.ThetaSpec.from_json(text) == th.preset("zd", 2.0)


def test_from_json_rejects_malformed():
    with pytest.raises(InvalidSpec):
        th.ThetaSpec.from_json("{}")
    with pytest.raises(InvalidSpec):
        th.ThetaSpec.from_json("not json")
    with pytest.raises(InvalidSpec):
        th.ThetaSpec.from_json('{"dim_d": 2.0, "terms": [{"coeff": 1.0}]}')


@pytest.mark.parametrize("kind", [2, 3, 4])
@pytest.mark.parametrize("t", [0.5, 0.8, 1.0, 1.6, 2.0])
def test_jacobi_residual_small(kind, t):
    assert th.jacobi_residual(kind, t) < 1e-12


def test_jacobi_residual_rejects_nonpositive_t():
    with pytest.raises(DomainError):
        th.jacobi_residual(3, 0.0)
    for t in (True, "1.0"):  # "1.0" gave a residual of 0.0
        with pytest.raises(DomainError, match="t must be a real number"):
            th.jacobi_residual(3, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_jacobi_residual_refuses_a_t_that_is_not_finite(t):
    with pytest.raises(DomainError, match=f"t must be finite and positive, got {t!r}"):
        th.jacobi_residual(3, t)


@pytest.mark.parametrize("t", [1e17, 1e-20, 1e16, 5e-17])
def test_jacobi_residual_names_a_t_whose_q_reaches_1(t):
    # at 1e17 and 1e-20 one q rounds to 1, at 1e16 and 5e-17 it needs more
    # factors than the cap: either way t is out of the products' reach
    with pytest.raises(ToleranceNotMet, match=re.escape(f"at t = {t!r}")):
        th.jacobi_residual(2, t)


def test_jacobi_residual_rejects_bad_kind():
    with pytest.raises(DomainError):
        th.jacobi_residual(5, 1.0)


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_product_form_refuses_to_truncate(kind):
    # q = e^{-pi/2e4} needs about 125000 factors, above the cap
    with pytest.raises(ToleranceNotMet):
        th.theta_eval_product(kind, math.exp(-math.pi / 2e4))
    with pytest.raises(ToleranceNotMet):
        th.jacobi_residual(kind, 2e4)


@pytest.mark.parametrize("kind", [2, 3])
def test_product_form_survives_its_dip_below_the_smallest_double(kind):
    # at t = 1.6e4 the running product falls under 1e-308 before the later
    # factors lift it back to theta(e^{-pi/t}) = sqrt(t) (1 + O(e^{-pi t}))
    t = 1.6e4
    assert th.theta_eval_product(kind, math.exp(-math.pi / t)) == pytest.approx(
        math.sqrt(t), rel=1e-10)
    assert th.jacobi_residual(kind, t) < 1e-9 * math.sqrt(t)


def test_theta_values_at_exp_minus_pi():
    # self-dual point: kind 2 and kind 4 coincide, kind 3 is the classical value
    q = math.exp(-math.pi)
    v2 = qs.evaluate(th.theta_series(2, 200), q).value
    v4 = qs.evaluate(th.theta_series(4, 200), q).value
    assert v2 == pytest.approx(0.9135791381561168, abs=1e-14)
    assert v4 == pytest.approx(0.9135791381561168, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_coeff_bound_majorizes_counts(d):
    counts = lattice_counts(d, 60)
    for l in range(1, 61):
        assert counts[l] <= th.coeff_bound(d, l)


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
def test_coeff_bound_refuses_a_dimension_that_is_not_finite_and_positive(d):
    with pytest.raises(DomainError, match="d must be finite and positive"):
        th.coeff_bound(d, 3)


def test_coeff_bound_grows_subexponentially():
    # log bound is o(l): ratio at successive doublings shrinks
    r1 = math.log(th.coeff_bound(3, 50)) / 50
    r2 = math.log(th.coeff_bound(3, 100)) / 100
    r3 = math.log(th.coeff_bound(3, 200)) / 200
    assert r1 > r2 > r3
