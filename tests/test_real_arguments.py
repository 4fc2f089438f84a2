"""Every public real argument goes through ``errors._number``: a bool or a
numeric string is refused with the one message, and an int or a numpy float
is taken as the float it equals, an int past the doubles as the infinity of
its sign.  Evaluation points go through ``errors._points`` and rational
scales through ``errors._scale``, which refuse the same values."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from thetasum import _grid as gr
from thetasum import errors
from thetasum import hermite as hm
from thetasum import qseries as qs
from thetasum import spec as sp
from thetasum import summation as sm
from thetasum import transform as tr
from thetasum.errors import CoefficientOverflow, DomainError, InvalidSpec, NegativeExponent

GAUSS = tr.GaussPoly(((1.0, 0, 1.0),))
SQUARE = sp.ThetaFactor(3, 2.0, Fraction(1))
SERIES = qs.QSeries(1, 0.0, [1.0, 2.0, 0.5])

# argument -> (the call with v in its place, a value it takes that is an
# integer, or None where the value must lie strictly between two integers)
NEW = {
    "GaussPoly c": (lambda v: tr.GaussPoly(((v, 0, 1.0),)), 2),
    "GaussPoly alpha": (lambda v: tr.GaussPoly(((1.0, 0, v),)), 2),
    "ThetaFactor power": (lambda v: sp.ThetaFactor(3, v, Fraction(1)), 2),
    "ThetaSpec coeff": (lambda v: sp.ThetaSpec(((v, (SQUARE,)),), 2.0), 2),
    "ThetaSpec dim_d": (lambda v: sp.ThetaSpec(((1.0, (SQUARE,)),), v), 2),
    "coeff_bound d": (lambda v: sp.coeff_bound(v, 3), 2),
    "coeff_bound l": (lambda v: sp.coeff_bound(2.0, v), 3),
    "hyp0f1 a": (lambda v: tr.hyp0f1(v, -1.0), 2),
    "hyp0f1 z": (lambda v: tr.hyp0f1(2.0, v), -3),
    "QSeries offset_A": (lambda v: qs.QSeries(1, v, [1.0, 2.0]), 1),
    "lincomb c": (lambda v: qs.lincomb([(v, SERIES)]), 2),
    "pow_real alpha": (lambda v: qs.pow_real(SERIES, v), 2),
    "evaluate q": (lambda v: qs.evaluate(SERIES, v), None),
}

EARLIER = {
    "ft_gausspoly d": lambda v: tr.ft_gausspoly(GAUSS, v),
    "ft_closed p": lambda v: tr.ft_closed(GAUSS, v, 2.5),
    "ft_closed d": lambda v: tr.ft_closed(GAUSS, 0.5, v),
    "laplacian_d d": lambda v: tr.laplacian_d(GAUSS, v),
    "eigen_residual p": lambda v: tr.eigen_residual(GAUSS, v, 2.5),
    "eigen_residual d": lambda v: tr.eigen_residual(GAUSS, 0.5, v),
    "ft_quadrature p": lambda v: tr.ft_quadrature(GAUSS, v, 2.5),
    "ft_quadrature d": lambda v: tr.ft_quadrature(GAUSS, 0.5, v),
    "ft_quadrature_many d": lambda v: gr.ft_quadrature_many(GAUSS, [0.5], v),
    "gaussian_hermite_coeff alpha": lambda v: hm.gaussian_hermite_coeff(v, 2),
    "theta_eval_product q": lambda v: sp.theta_eval_product(3, v),
    "jacobi_residual t": lambda v: sp.jacobi_residual(3, v),
    "verify tol": lambda v: sm.verify(sp.preset("zd", 2.0), GAUSS, tol=v),
    "lhs_sum tol": lambda v: sm.lhs_sum(sp.preset("zd", 2.0), GAUSS, v),
    "rhs_sum tol": lambda v: sm.rhs_sum(sp.preset("zd", 2.0), GAUSS, v),
}

CALLS = {**{name: call for name, (call, _) in NEW.items()}, **EARLIER}


@pytest.mark.parametrize("value", [True, "2.5"], ids=["bool", "string"])
@pytest.mark.parametrize("name", CALLS)
def test_every_real_argument_refuses_a_bool_and_a_numeric_string(name, value):
    # the spec layer raises InvalidSpec, every other layer DomainError
    error = InvalidSpec if name.startswith("Theta") else DomainError
    with pytest.raises(error, match=f"must be a real number, got {value!r}"):
        CALLS[name](value)


@pytest.mark.parametrize("name", NEW)
def test_every_real_argument_takes_an_int_and_a_numpy_float(name):
    call, whole = NEW[name]
    x = 0.5 if whole is None else float(whole)
    want = call(x)
    for value in (np.float64(x), np.float32(x)) + (() if whole is None else (whole, np.int64(whole))):
        assert call(value) == want, value


# argument -> its error at 10**400 and -10**400, where not the layer's own
PAST_THE_DOUBLES = {
    "lincomb c": (CoefficientOverflow, CoefficientOverflow),
    "pow_real alpha": (DomainError, NegativeExponent),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("name", CALLS)
def test_every_real_argument_refuses_an_int_past_the_doubles_in_its_own_words(name, sign):
    # each raised a raw OverflowError from float(); now each refuses it as
    # it refuses the infinity of its sign
    layer = InvalidSpec if name.startswith("Theta") else DomainError
    error = PAST_THE_DOUBLES.get(name, (layer, layer))[sign < 0]
    for value in (sign * 10**400, sign * math.inf):
        with pytest.raises(error) as refused:
            CALLS[name](value)
        assert type(refused.value) is error, value


SAMPLED = tr.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))

# evaluation point -> the call with the points v in their place
POINTS = {
    "GaussPoly.eval r": GAUSS.eval,
    "Sampled.eval r": SAMPLED.eval,
    "hermite_h x": lambda v: hm.hermite_h(2, v),
    "ft_quadrature_many p": lambda v: gr.ft_quadrature_many(GAUSS, v, 2.0),
}


@pytest.mark.parametrize("value", [True, "2.5"], ids=["bool", "string"])
@pytest.mark.parametrize("name", POINTS)
def test_every_evaluation_point_refuses_a_bool_and_a_numeric_string(name, value):
    # hermite_h(2, "2.5") gave 0.2684, GaussPoly.eval("0.5") 0.7788
    for points in (value, [0.5, value], [[0.5], [value]]):
        with pytest.raises(DomainError, match=f"must be a real number, got {value!r}$"):
            POINTS[name](points)


def _outcome(call, points):
    """What call gives at points: its result's repr, or its error's type and text."""
    try:
        return repr(np.asarray(call(points)))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("name", POINTS)
def test_every_evaluation_point_takes_an_int_past_the_doubles_as_infinity(name, sign):
    # a raw OverflowError before, alone or in a list
    call, big, inf = POINTS[name], sign * 10**400, sign * math.inf
    for points, same in ((big, inf), ([0.5, big], [0.5, inf]), ([[big], [0.5]], [[inf], [0.5]])):
        assert _outcome(call, points) == _outcome(call, same), points


@pytest.mark.parametrize("array", [np.array([True]), np.array(["0.5"]), np.array([0.5 + 0j]),
                                   np.array([0.5], dtype=object)],
                         ids=["bool", "string", "complex", "object"])
@pytest.mark.parametrize("name", POINTS)
def test_every_evaluation_point_refuses_an_array_that_is_not_real(name, array):
    with pytest.raises(DomainError, match=f"must be a real number, got a {array.dtype} array$"):
        POINTS[name](array)


@pytest.mark.parametrize("name", POINTS)
def test_every_evaluation_point_takes_arrays_ints_and_numpy_floats(name):
    call = POINTS[name]
    want = np.asarray(call(np.array([0.0, 0.5, 2.0])))
    for points in ([0.0, 0.5, 2.0], [0, 0.5, 2], (np.float32(0.0), np.float64(0.5), np.int64(2)),
                   np.array([0.0, 0.5, 2.0], dtype=np.float32)):
        assert np.array_equal(np.asarray(call(points)), want), points
    want = np.asarray(call(np.array([0.0, 1.0, 2.0])))
    for points in (np.array([0, 1, 2]), np.array([0, 1, 2], dtype=np.uint8), [0, 1, 2]):
        assert np.array_equal(np.asarray(call(points)), want), points


def test_a_float64_array_of_points_is_not_copied():
    points = np.array([[0.5, 1.0], [2.0, 3.0]])
    assert errors._points(points, "r") is points
    assert errors._points(points, "r", "nonnegative") is points


# scale -> (the call with v in its place, the error it raises)
SCALES = {
    "ThetaFactor scale": (lambda v: sp.ThetaFactor(3, 2.0, v), InvalidSpec),
    "rescale s": (lambda v: qs.rescale(SERIES, v), DomainError),
}


@pytest.mark.parametrize("value", [True, "1/2", "0.5"], ids=["bool", "fraction-string", "string"])
@pytest.mark.parametrize("name", SCALES)
def test_every_scale_refuses_a_bool_and_a_string(name, value):
    # ThetaFactor(3, 2.0, "1/2") built scale 1/2, ThetaFactor(3, 2.0, True) scale 1
    call, error = SCALES[name]
    with pytest.raises(error, match=f"scale must be a real number, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, 0.0, 0, Fraction(-1, 2)],
                         ids=["nan", "inf", "-inf", "negative", "zero", "int-zero", "negative-fraction"])
@pytest.mark.parametrize("name", SCALES)
def test_every_scale_refuses_what_is_not_finite_and_positive(name, value):
    # a NaN scale raised a raw ValueError, an infinite one a raw OverflowError
    call, error = SCALES[name]
    with pytest.raises(error, match=re.escape(f"scale must be finite and positive, got {value!r}") + "$"):
        call(value)


@pytest.mark.parametrize("name", SCALES)
def test_every_scale_takes_fractions_ints_and_exact_floats(name):
    call, _ = SCALES[name]
    half, two = call(Fraction(1, 2)), call(Fraction(2))
    assert call(0.5) == call(np.float64(0.5)) == call(np.float32(0.5)) == half
    assert call(2) == call(np.int64(2)) == call(2.0) == two
    if name == "ThetaFactor scale":
        for value in (0.5, np.int64(2), np.float32(0.5)):
            scale = call(value).scale
            assert type(scale) is Fraction and type(scale.numerator) is int, value
