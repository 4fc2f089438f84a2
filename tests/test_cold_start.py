"""Cold start: scipy loads only on the paths that use it.

The pytest session has imported scipy already, so each check runs in a
fresh interpreter and reports the scipy modules it ended with.
"""

import json

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


def test_closed_form_cli_commands_load_no_scipy():
    code = """
import contextlib, io
from thetasum import cli
commands = [
    ["theta-coeffs", "--preset", "dd", "--dim", "2.4", "--L", "64"],
    ["verify", "--preset", "zd", "--dim", "2.5", "--f", "1,0,1;0.5,1,2"],
    ["dual", "--preset", "theta4d", "--dim", "3"],
    ["transform", "--f", "1,0,1", "--dim", "2.5"],
    ["jacobi-check"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
"""
    assert scipy_modules_after(code) == []


def test_sampled_verify_loads_special_but_not_integrate():
    code = """
import math
import thetasum as ts
f = ts.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0))
assert ts.verify(ts.preset("zd", 2), f, tol=1e-8).passed
"""
    loaded = scipy_modules_after(code)
    assert "scipy.special" in loaded
    assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                   for m in loaded)


def test_hermite_demo_still_gives_its_table():
    proc = run_fresh("import sys\nfrom thetasum import cli\n"
                     "sys.exit(cli.main(['hermite-demo', '--n-max', '4']))")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["n"] for row in rows] == [0, 1, 2, 3, 4]
    assert all(row["abs_diff"] < 1e-10 for row in rows)
