"""Cold start: scipy loads only on the paths that use it.

The pytest session has imported scipy already, so each check runs in a
fresh interpreter and reports the scipy modules it ended with.
"""

import ast
import json
from pathlib import Path

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
from thetasum import transform as tr
f = ts.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))
for d in (1.9, 2, 2.7, 3.5):
    assert ts.verify(ts.preset("zd", d), f, tol=1e-8).passed
values, errors = tr.ft_quadrature_many(f, [0.0, 0.5, 1.0], 45)
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


def test_scipy_integrate_is_imported_only_by_ft_quadrature():
    assert _scipy_users("scipy.integrate") == {("transform", "ft_quadrature")}


def test_scipy_is_imported_only_by_the_adaptive_oracle():
    # ft_quadrature and hyp0f1 are the independent cross-check of the
    # shared grid; nothing else in the package may reach scipy
    assert _scipy_users("scipy") == {("transform", "ft_quadrature"), ("transform", "hyp0f1")}
