"""Every public real argument goes through ``errors._number``: a bool or a
numeric string is refused with the one message, and an int or a numpy float
is taken as the float it equals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thetasum import _grid as gr
from thetasum import hermite as hm
from thetasum import qseries as qs
from thetasum import spec as sp
from thetasum import summation as sm
from thetasum import transform as tr
from thetasum.errors import DomainError, InvalidSpec

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
    "hermite_coeff_quadrature abs_tol": lambda v: hm.hermite_coeff_quadrature(math.exp, 2, abs_tol=v),
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
