"""The numpy-free spec layer: factor validation, and the names ``theta`` re-exports."""

from fractions import Fraction

import numpy as np
import pytest

from thetasum import spec as sp
from thetasum import theta as th
from thetasum.errors import InvalidSpec


@pytest.mark.parametrize("kind", [np.int64(3), np.int32(4)])
def test_factor_accepts_numpy_integers_and_stores_a_plain_int(kind):
    # numpy registers its integer types as numbers.Integral
    factor = sp.ThetaFactor(kind, 1.5, Fraction(1))
    assert type(factor.kind) is int and factor.kind == int(kind)


@pytest.mark.parametrize("kind", [True, 3.0, "3"])
def test_factor_rejects_a_bool_a_float_and_a_string_kind(kind):
    with pytest.raises(InvalidSpec, match="kind"):
        sp.ThetaFactor(kind, 1.5, Fraction(1))


@pytest.mark.parametrize("name", [
    "ThetaFactor", "ThetaSpec", "_json_number", "PRESETS", "preset", "theta_eval_product",
    "coeff_bound", "dual", "jacobi_residual", "_POWER_SUM_TOL", "_PRODUCT_FACTOR_CAP",
    "KINDS", "_kind",
])
def test_theta_re_exports_the_spec_layer(name):
    assert getattr(th, name) is getattr(sp, name)


def test_dual_is_kept_per_spec():
    spec = sp.preset("dd", 2.4131)
    assert sp.dual(spec) is sp.dual(sp.preset("dd", 2.4131))
