"""The production paths never touch the reference route of ``qseries``.

``mul``, ``pow_real``, ``rescale``, ``evaluate`` and ``theta.theta_series``
are kept only as the independent route the tests compare the product-form
build against.  Here they raise when called, and ``build``, ``verify`` and
the CLI commands must still succeed; the package must not export them.
``verify`` and the CLI commands list each term on the grid its recurrence
runs on, so they must also succeed while ``lincomb`` raises and no
``QSeries`` can be made.
"""

import json
import math

import pytest

import thetasum
from thetasum import cli
from thetasum import qseries as qs
from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr
from thetasum.errors import OffsetMismatch

REFERENCE_ONLY = ("pow_real", "mul", "rescale", "evaluate", "EvalResult", "theta_series")


@pytest.fixture
def no_reference_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a production path called the reference route")

    for name in ("pow_real", "mul", "rescale", "evaluate"):
        monkeypatch.setattr(qs, name, forbidden)
    monkeypatch.setattr(th, "theta_series", forbidden)


@pytest.fixture
def no_fold(no_reference_route, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a production path merged terms onto one grid")

    def no_series(*args, **kwargs):
        raise AssertionError("a production path made a QSeries")

    monkeypatch.setattr(qs, "lincomb", forbidden)
    monkeypatch.setattr(qs.QSeries, "__init__", no_series)


def test_no_fold_catches_a_qseries(no_fold):
    # build is the one caller that makes a QSeries
    with pytest.raises(AssertionError, match="made a QSeries"):
        th.build(th.preset("zd", 2.5), 8)


@pytest.mark.parametrize("name,d", [("zd", 2.5), ("dd", 2.4), ("dd", 2.4131), ("theta4d", 3.3)])
def test_gausspoly_verify_runs_without_it(no_fold, name, d):
    f = tr.GaussPoly(((1.0, 0, 1.0), (0.3, 2, 2.0)))
    assert sm.verify(th.preset(name, d), f, tol=1e-10).passed


def test_sampled_verify_runs_without_it(no_fold):
    f = tr.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))
    assert sm.verify(th.preset("zd", 2), f, tol=1e-8).passed


def test_sampled_verify_of_a_theta2_dual_runs_without_it(no_fold):
    # the dual of dd has a theta2^d term on a step-2 grid
    f = tr.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))
    assert sm.verify(th.preset("dd", 2.4131), f, tol=1e-8).passed


def test_build_of_a_multi_term_theta2_dual_runs_without_it(no_reference_route):
    # the theta2^d term sits d/4 = 0.6 off the theta3^d term's grid
    with pytest.raises(OffsetMismatch):
        th.build(th.dual(th.preset("dd", 2.4)), 64)


@pytest.mark.parametrize("argv", [
    ["theta-coeffs", "--preset", "dd", "--dim", "2.4", "--L", "64"],
    ["verify", "--preset", "dd", "--dim", "2.4131", "--f", "1,0,1"],
    ["dual", "--preset", "theta4d", "--dim", "3"],
])
def test_cli_commands_run_without_it(no_fold, capsys, argv):
    assert cli.main(argv) == 0
    json.loads(capsys.readouterr().out)


def test_package_exports_exist_and_leave_out_the_reference_route():
    for name in thetasum.__all__:
        assert hasattr(thetasum, name), name
    assert not set(REFERENCE_ONLY) & set(thetasum.__all__)
    assert not any(hasattr(thetasum, name) for name in REFERENCE_ONLY)


def test_theta_coeffs_of_a_theta2_dual_runs_without_it(no_fold, capsys, tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(th.dual(th.preset("dd", 2.4131)).to_json())
    assert cli.main(["theta-coeffs", "--spec", str(path), "--L", "64"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 65 + 32
