"""The production paths never touch the reference route of ``qseries``.

``mul``, ``pow_real``, ``rescale``, ``evaluate`` and ``theta.theta_series``
are kept only as the independent route the tests compare the product-form
build against.  Here they raise when called, and ``build``, ``verify`` and
the CLI commands must still succeed.  ``verify`` and the CLI commands list
each term on the grid its recurrence runs on, so they must also succeed
while ``lincomb`` raises and no ``QSeries`` can be made.  The package
exports none of these names, nor ``build``, ``QSeries`` and ``lincomb``:
``coeff_table`` is its listing of a spec's coefficients.  Only the tests of
these names may use them (``test_only_their_own_tests_use_the_reference_names``).
"""

import ast
import json
import math
import re
from pathlib import Path

import pytest

import thetasum
from thetasum import cli
from thetasum import qseries as qs
from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr
from thetasum.errors import OffsetMismatch

REFERENCE_ONLY = ("build", "QSeries", "lincomb", "pow_real", "mul", "rescale", "evaluate",
                  "EvalResult", "theta_series")


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


# test file -> the module-level names (tests, helpers, tables) whose subject
# is a name of REFERENCE_ONLY, and so the only ones that may use it; None
# for a file that is all about them
REFERENCE_USERS = {
    "test_qseries.py": None,
    "test_reference_route.py": None,
    "test_real_arguments.py": {"SERIES", "NEW", "SCALES"},
    "test_theta.py": {
        "test_theta_series_kind3_counts_squares", "test_theta_series_kind4_signs",
        "test_theta_series_kind2_grid", "test_theta_series_rejects_bad_kind", "KIND_READERS",
        "test_an_order_that_is_not_an_integer_is_refused", "test_theta_values_at_exp_minus_pi",
        "_power_and_product_build", "test_build_keeps_grid_of_power_and_product_route",
    },
    "test_cold_start.py": {
        "test_qseries_is_a_leaf_that_build_and_theta_series_import_when_called",
        "test_a_public_name_loads_its_layer_on_first_use",  # theta.build loads qseries
    },
}


def _owners(top: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return ["<module>"]


def _reference_uses(top: ast.stmt) -> set[str]:
    """The REFERENCE_ONLY names a top-level statement uses: as an attribute
    (``th.build``), an import, or an attribute in code held in a string (a
    fresh interpreter's ``thetasum.theta.build(...)``)."""
    in_code = re.compile(r"\.(%s)\b" % "|".join(REFERENCE_ONLY))
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= set(in_code.findall(node.value))
    return names & set(REFERENCE_ONLY)


def test_only_their_own_tests_use_the_reference_names():
    # the names stay as module attributes for their own tests and the traced
    # benchmark; deleting them deletes what REFERENCE_USERS names, no more
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        allowed = REFERENCE_USERS.get(path.name, set())
        if allowed is None:
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        users = {owner for top in body if _reference_uses(top) for owner in _owners(top)}
        assert users <= allowed, (path.name, users - allowed)
        # and each allowance still names a module-level name of its file
        assert allowed <= {owner for top in body for owner in _owners(top)}, path.name
