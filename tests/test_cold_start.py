"""Cold start: each entry point loads only the layers it runs.

``import thetasum`` loads ``errors`` alone and resolves every other public
name on first use; each CLI command imports its own layers, so ``dual`` and
``jacobi-check`` run on the pure-Python ``spec`` without numpy; scipy loads
only on the paths that use it.  The pytest session has imported all of these
already, so each check runs in a fresh interpreter and reports the modules
it ended with.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import thetasum

from conftest import run_fresh


def scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter; the scipy modules it left loaded."""
    proc = run_fresh(
        code + "\nimport sys, json\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# the layers of thetasum each command loads, as ``python -m thetasum`` runs it;
# numpy loads with any layer past ``spec``
CLI_LAYERS = {
    ("dual", "--preset", "theta4d", "--dim", "3"): {"cli", "errors", "spec"},
    ("jacobi-check",): {"cli", "errors", "spec"},
    ("theta-coeffs", "--preset", "dd", "--dim", "2.4", "--L", "64"):
        {"cli", "errors", "spec", "theta"},
    ("transform", "--f", "1,0,1", "--dim", "2.5"): {"cli", "errors", "spec", "transform"},
    ("verify", "--preset", "zd", "--dim", "2.5", "--f", "1,0,1;0.5,1,2"):
        {"cli", "errors", "spec", "theta", "transform", "summation"},
    ("hermite-demo", "--n-max", "4"): {"cli", "errors", "spec", "hermite"},
}
NUMPY_FREE = {"cli", "errors", "spec"}


def run_cli_fresh(argv) -> tuple[int, set[str], bool]:
    """``python -m thetasum ARGV`` in a fresh interpreter: its exit code, the
    thetasum layers it loaded and whether it loaded numpy."""
    proc = run_fresh(
        "import json, runpy, sys\n"
        f"sys.argv = ['thetasum', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('thetasum', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stdout.flush()\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    layers = {m.split(".")[1] for m in modules if m.startswith("thetasum.")} - {"__main__"}
    return code, layers, "numpy" in modules


def test_import_loads_errors_alone_and_no_numpy():
    proc = run_fresh("import sys, json, thetasum\n"
                     "print(json.dumps(sorted(m for m in sys.modules"
                     " if m.startswith(('thetasum', 'numpy')))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["thetasum", "thetasum.errors"]


@pytest.mark.parametrize("argv", list(CLI_LAYERS), ids=lambda argv: argv[0])
def test_each_command_loads_only_its_layers(argv):
    code, layers, numpy = run_cli_fresh(argv)
    assert code == 0
    assert layers == CLI_LAYERS[argv]
    assert "_grid" not in layers  # no command transforms a Sampled profile
    assert numpy == (layers != NUMPY_FREE)


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["frobnicate"], 2),                        # an argparse usage error
    (["dual", "--spec", "missing.json"], 2),    # InvalidSpec
    (["jacobi-check", "--t", "1e20"], 3),       # ToleranceNotMet: e^(-pi/t) rounds to 1
], ids=["help", "usage-error", "missing-spec", "t-past-the-product"])
def test_help_and_errors_keep_their_exit_codes_without_numpy(argv, code):
    assert run_cli_fresh(argv) == (code, NUMPY_FREE, False)


def test_a_public_name_loads_its_layer_on_first_use():
    # looking up coeff_table loads theta alone, and neither a verify nor a
    # table loads qseries; the unexported theta.build does, when called
    proc = run_fresh(
        "import sys, json, thetasum\n"
        "seen = []\n"
        "for name in ('dual', 'coeff_table', 'verify'):\n"
        "    getattr(thetasum, name)\n"
        "    seen.append(sorted(m for m in sys.modules if m.startswith('thetasum.')))\n"
        "thetasum.verify(thetasum.preset('zd', 2.5), thetasum.GaussPoly(((1.0, 0, 1.0),)))\n"
        "thetasum.coeff_table(thetasum.preset('dd', 2.4), 16)\n"
        "seen.append(sorted(m for m in sys.modules if m.startswith('thetasum.')))\n"
        "thetasum.theta.build(thetasum.preset('zd', 2.5), 16)\n"
        "seen.append(sorted(m for m in sys.modules if m.startswith('thetasum.')))\n"
        "print(json.dumps(seen))"
    )
    assert proc.returncode == 0, proc.stderr
    after_dual, after_table, after_verify, after_calls, after_a_build = json.loads(proc.stdout)
    assert after_dual == ["thetasum.errors", "thetasum.spec"]
    assert after_table == ["thetasum.errors", "thetasum.spec", "thetasum.theta"]
    assert set(after_verify) - set(after_table) == {"thetasum.summation",
                                                    "thetasum.transform"}
    assert after_calls == after_verify
    assert set(after_a_build) - set(after_calls) == {"thetasum.qseries"}


def test_only_a_sampled_verify_loads_the_shared_grid():
    # the closed form serves a GaussPoly verify; a Sampled one loads the
    # grid of ft_quadrature_many on its dual side
    proc = run_fresh(
        "import json, math, sys\n"
        "import thetasum as ts\n"
        "loaded = []\n"
        "for f in (ts.GaussPoly(((1.0, 0, 1.0),)),\n"
        "          ts.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))):\n"
        "    assert ts.verify(ts.preset('zd', 2.5), f, tol=1e-8).passed\n"
        "    loaded.append('thetasum._grid' in sys.modules)\n"
        "print(json.dumps(loaded))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]


def test_the_shared_grid_depends_on_transform_one_way():
    # _grid imports transform for the radius, tail and tolerances both
    # quadrature routes share; transform never imports _grid
    tree = ast.parse((Path(thetasum.__file__).parent / "transform.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or "", *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    assert not any("_grid" in name for name in names)
    assert thetasum.ft_quadrature_many is importlib.import_module("thetasum._grid").ft_quadrature_many


def test_qseries_is_a_leaf_that_build_and_theta_series_import_when_called():
    # no module imports qseries at load time: theta.build and
    # theta.theta_series import it inside, and the exponent slack it shares
    # with coeff_table is assigned once, in spec
    imports, slack = set(), set()
    for path in Path(thetasum.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(t, "id", None) == "_OFFSET_TOL" for t in targets):
                    slack.add(path.stem)
                continue
            else:
                continue
            if any("qseries" in name.split(".") for name in names):
                owner = [fn.name for fn in scopes if fn.lineno <= node.lineno <= fn.end_lineno]
                imports.add((path.stem, owner[-1] if owner else "<module>"))
    assert imports == {("theta", "build"), ("theta", "theta_series")}
    assert slack == {"spec"}


@pytest.mark.parametrize("name", thetasum.__all__)
def test_each_public_name_is_its_module_attribute(name):
    obj = getattr(thetasum, name)
    module = importlib.import_module(obj.__module__)
    assert getattr(module, name) is obj


def test_dir_and_star_import_list_every_public_name():
    assert set(thetasum.__all__) <= set(dir(thetasum))
    namespace = {}
    exec("from thetasum import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(thetasum.__all__)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        thetasum.no_such_name
    assert not hasattr(thetasum, "spec_of_nothing")
    for retired in ("gaussian_span_fit", "FitResult", "IllConditioned", "build", "QSeries",
                    "lincomb"):
        with pytest.raises(AttributeError, match=retired):
            getattr(thetasum, retired)
        assert retired not in thetasum.__all__


def test_import_loads_no_scipy():
    assert scipy_modules_after("import thetasum") == []


def test_every_cli_command_loads_no_scipy():
    code = """
import contextlib, io
from thetasum import cli
commands = [
    ["theta-coeffs", "--preset", "dd", "--dim", "2.4", "--L", "64"],
    ["verify", "--preset", "zd", "--dim", "2.5", "--f", "1,0,1;0.5,1,2"],
    ["dual", "--preset", "theta4d", "--dim", "3"],
    ["transform", "--f", "1,0,1", "--dim", "2.5"],
    ["jacobi-check"],
    ["hermite-demo", "--n-max", "4"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
"""
    assert scipy_modules_after(code) == []


def test_sampled_verify_loads_no_scipy():
    # the shared grid (nodes, tail, kernel) runs on numpy and math alone;
    # scipy serves only the adaptive oracle ft_quadrature and hyp0f1
    code = """
import math
import numpy as np
import thetasum as ts
from thetasum import _grid as gr
f = ts.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))
for d in (1.9, 2, 2.7, 3.5):
    assert ts.verify(ts.preset("zd", d), f, tol=1e-8).passed
values, errors = gr.ft_quadrature_many(f, [0.0, 0.5, 1.0], 45)
assert np.all(np.isfinite(values))
"""
    assert scipy_modules_after(code) == []


def test_hermite_demo_still_gives_its_table():
    proc = run_fresh("import sys\nfrom thetasum import cli\n"
                     "sys.exit(cli.main(['hermite-demo', '--n-max', '4']))")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["n"] for row in rows] == [0, 1, 2, 3, 4]
    assert all(row["abs_diff"] < 1e-10 for row in rows)
    assert scipy_modules_after(
        "from thetasum import cli\n"
        "assert cli.main(['hermite-demo', '--n-max', '4']) == 0") == []


def _scipy_users(module: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of every import of ``module`` or of a
    module below it, or attribute access of its name, in the package."""
    found = set()
    for path in Path(thetasum.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if any(name == module or name.startswith(module + ".") for name in names):
                owner = [name for name, fn in scopes
                         if fn.lineno <= node.lineno <= fn.end_lineno]
                found.add((path.stem, owner[-1] if owner else "<module>"))
    return found


def test_the_shared_grid_reads_its_setup_and_tolerances_alone_from_transform():
    # the d, radius, tail and measure of both quadrature routes come from
    # one place, transform._radial_setup
    tree = ast.parse((Path(thetasum.__file__).parent / "_grid.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "tr"}
    assert read == {"_radial_setup", "_ABS_TOL", "_REL_TOL", "RadialFunction"}
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "transform"
                   for node in ast.walk(tree))


def _label(node):
    """A constant's value or a name's identifier, as a call argument."""
    return node.value if isinstance(node, ast.Constant) else getattr(node, "id", None)


def _converts_a_parameter(call, params) -> bool:
    """call is Fraction(p), math.isfinite(p), np.isfinite(p) or
    np.asarray(p, dtype=np.float64), with p a parameter of its function."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if not (call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in params):
        return False
    return name in ("Fraction", "isfinite") or name == "asarray" and any(
        kw.arg == "dtype" and getattr(kw.value, "attr", None) == "float64" for kw in call.keywords)


def test_each_input_decision_has_one_owner():
    # errors._whole checks every order, degree and count: no function floors
    # a parameter with int() (coeff_bound floors build's float exponents,
    # after errors._number); errors._profile_values alone refuses a profile
    # value and words its message, Sampled.eval and the Hermite quadrature
    # call it with their own labels, and hermite keeps no check of its own;
    # transform alone tells the two profile types apart.  errors._points
    # alone turns evaluation points into doubles and errors._scale alone
    # makes a rational scale: no function outside errors calls Fraction,
    # math.isfinite, np.isfinite or np.asarray(..., dtype=np.float64) on a
    # parameter of its own, except QSeries on its coefficient array, whose
    # rules (one dimension, not empty, CoefficientOverflow) are not a sign rule
    casts, valued, message, both, own = set(), set(), set(), set(), set()
    callers = {"_profile_values": set(), "_points": set(), "_scale": set()}
    for path in Path(thetasum.__file__).parent.glob("*.py"):
        tested = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
                calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)]
                if any(isinstance(call.func, ast.Name) and call.func.id == "int" and call.args
                       and isinstance(call.args[0], ast.Name) and call.args[0].id in params
                       for call in calls):
                    casts.add((path.stem, node.name))
                if any(getattr(call.func, "attr", None) == "iscomplexobj" for call in calls):
                    valued.add((path.stem, node.name))
                if path.stem != "errors" and any(_converts_a_parameter(call, params) for call in calls):
                    own.add((path.stem, node.name))
            elif isinstance(node, ast.JoinedStr):
                parts = {part.value for part in node.values if isinstance(part, ast.Constant)}
                if {" is ", " at "} <= parts:
                    message.add(path.stem)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in callers:
                    skip = 2 if node.func.id == "_profile_values" else 1
                    callers[node.func.id].add((path.stem, *map(_label, node.args[skip:])))
                elif node.func.id == "isinstance" and len(node.args) == 2:
                    tested |= {getattr(t, "id", getattr(t, "attr", None)) for t in ast.walk(node.args[1])}
        if {"GaussPoly", "Sampled"} <= tested:
            both.add(path.stem)
    assert casts == {("spec", "coeff_bound")}
    assert valued == {("errors", "_profile_values")}
    assert message == {"errors"}
    assert callers["_profile_values"] == {("transform", "radial profile", "r"), ("hermite", "profile", "x")}
    assert callers["_points"] == {("transform", "r"), ("hermite", "x"), ("_grid", "p", "nonnegative")}
    assert callers["_scale"] == {("spec", "scale", "InvalidSpec"), ("qseries", "scale")}
    assert own == {("qseries", "__init__")}
    assert both == {"transform"}


def _is_int_literal(node) -> bool:
    """An integer constant, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_int_literal, node.elts))
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_spec_alone_tells_the_theta_kinds_apart():
    # spec.KINDS is the one table of the theta kinds: no other module
    # compares a kind with an integer or writes a table keyed by 2, 3 and 4
    found = set()
    for path in Path(thetasum.__file__).parent.glob("*.py"):
        if path.stem == "spec":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(getattr(side, "id", getattr(side, "attr", None)) == "kind" for side in sides)
                        and any(map(_is_int_literal, sides))):
                    found.add((path.stem, node.lineno))
            elif isinstance(node, ast.Dict):
                if {2, 3, 4} <= {key.value for key in node.keys if isinstance(key, ast.Constant)}:
                    found.add((path.stem, node.lineno))
    assert found == set()


def test_scipy_integrate_is_imported_only_by_ft_quadrature():
    assert _scipy_users("scipy.integrate") == {("transform", "ft_quadrature")}


def test_scipy_is_imported_only_by_the_adaptive_oracle():
    # ft_quadrature and hyp0f1 are the independent cross-check of the
    # shared grid; nothing else in the package may reach scipy
    assert _scipy_users("scipy") == {("transform", "ft_quadrature"), ("transform", "hyp0f1")}
