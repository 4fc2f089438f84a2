"""Command line interface: output formats, exit codes, determinism."""

import json

import pytest

from thetasum import cli
from thetasum import errors
from thetasum import theta as th


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_coeffs_csv_exact(capsys):
    code, out, _ = run(capsys, [
        "theta-coeffs", "--preset", "zd", "--dim", "2", "--L", "5",
        "--format", "csv",
    ])
    assert code == 0
    assert out == (
        "l,A_l,N_l\n"
        "0,0.0,1.0\n"
        "1,1.0,4.0\n"
        "2,2.0,4.0\n"
        "3,3.0,0.0\n"
        "4,4.0,4.0\n"
        "5,5.0,8.0\n"
    )


def test_theta_coeffs_json_shape(capsys):
    code, out, _ = run(capsys, [
        "theta-coeffs", "--preset", "dd", "--dim", "3", "--L", "4",
    ])
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"l": 0, "A_l": 0.0, "N_l": 1.0}
    assert all(set(r) == {"l", "A_l", "N_l"} for r in rows)


def test_theta_coeffs_from_spec_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(th.preset("zd", 2).to_json())
    code, out, _ = run(capsys, [
        "theta-coeffs", "--spec", str(path), "--L", "3", "--format", "csv",
    ])
    assert code == 0
    assert out.splitlines()[1] == "0,0.0,1.0"


def test_dual_roundtrips_through_cli(capsys):
    code, out, _ = run(capsys, ["dual", "--preset", "dd", "--dim", "2.4"])
    assert code == 0
    dspec = th.ThetaSpec.from_json(out)
    assert th.dual(dspec) == th.preset("dd", 2.4)


def test_transform_table(capsys):
    code, out, _ = run(capsys, [
        "transform", "--f", "1,0,3.141592653589793", "--dim", "2",
        "--p", "0,1", "--format", "csv",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,value"
    # e^{-pi r^2} is self-reciprocal: values 1 and e^{-pi}
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(lines[2].split(",")[1]) == pytest.approx(0.0432139182637722, abs=1e-12)


def test_verify_pass_report(capsys):
    code, out, err = run(capsys, [
        "verify", "--preset", "zd", "--dim", "3", "--f", "1,0,1", "--tol", "1e-10",
    ])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"lhs", "rhs", "residual", "L_used", "L_star_used",
                           "tail_lhs", "tail_rhs", "pass"}
    assert report["pass"] is True
    assert "PASS" in err


def test_verify_output_is_byte_deterministic(capsys):
    argv = ["verify", "--preset", "dd", "--dim", "2.4", "--f", "1,0,1;0.3,2,2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify", "--preset", "zd", "--dim", "2", "--f", "1,0,1",
        "--out", str(path),
    ])
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["pass"] is True


def test_jacobi_check_csv(capsys):
    code, out, _ = run(capsys, ["jacobi-check", "--t", "1.0", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,t,residual"
    assert len(lines) == 4  # three kinds at one t
    assert all(float(line.split(",")[2]) < 1e-12 for line in lines[1:])


def test_hermite_demo(capsys):
    code, out, _ = run(capsys, ["hermite-demo", "--alpha", "1.0", "--n-max", "4"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(row["abs_diff"] < 1e-10 for row in rows)


def test_missing_spec_is_usage_error(capsys):
    code, _, err = run(capsys, ["theta-coeffs"])
    assert code == 2
    assert "spec" in err or "preset" in err


def test_preset_without_dim_is_usage_error(capsys):
    code, _, _ = run(capsys, ["verify", "--preset", "zd", "--f", "1,0,1"])
    assert code == 2


def test_malformed_profile_is_usage_error(capsys):
    code, _, _ = run(capsys, [
        "verify", "--preset", "zd", "--dim", "2", "--f", "1,x,1"])
    assert code == 2
    code, _, _ = run(capsys, [
        "verify", "--preset", "zd", "--dim", "2", "--f", "1,0"])
    assert code == 2


def test_unreadable_spec_file_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, [
        "theta-coeffs", "--spec", str(tmp_path / "missing.json")])
    assert code == 2


def test_non_finite_dim_in_spec_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(th.preset("zd", 2).to_json().replace('"dim_d": 2.0', '"dim_d": NaN'))
    code, out, err = run(capsys, ["verify", "--spec", str(path), "--f", "1,0,1"])
    assert code == 2
    assert out == "" and "dim_d must be finite" in err


def test_dim_below_one_is_usage_error_without_flag(capsys):
    code, _, _ = run(capsys, [
        "transform", "--f", "1,0,1", "--dim", "0.5"])
    assert code == 2
    code, _, _ = run(capsys, [
        "transform", "--f", "1,0,1", "--dim", "0.5", "--experimental-dim"])
    assert code == 0


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, [
        "verify", "--preset", "zd", "--dim", "3", "--f", "1,0,0.01",
        "--tol", "1e-12", "--L-cap", "64",
    ])
    assert code == 3
    assert "error" in err


def test_order_cap_below_first_order_exit_code(capsys):
    code, out, err = run(capsys, [
        "verify", "--preset", "zd", "--dim", "2", "--f", "1,0,1",
        "--tol", "1e-8", "--L-cap", "4",
    ])
    assert code == 3
    assert out == ""
    assert "order cap 4" in err


def test_verify_dd_at_four_decimal_dimension(capsys):
    code, out, _ = run(capsys, [
        "verify", "--preset", "dd", "--dim", "3.2707", "--f", "1,0,1"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus"])
    assert info.value.code == 2


def test_verify_fail_exit_code(capsys, monkeypatch):
    # force a FAIL by shrinking the allowance to zero
    import thetasum.summation as sm
    real = sm.verify

    def strict(spec, f, **kw):
        kw["tol"] = 1e-18
        return real(spec, f, **kw)

    monkeypatch.setattr(sm, "_PASS_MULTIPLIER", 0.0)
    monkeypatch.setattr(sm, "verify", strict)
    code, out, err = run(capsys, [
        "verify", "--preset", "zd", "--dim", "3", "--f", "1,0,1"])
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "FAIL" in err


@pytest.mark.parametrize("cls", errors.ThetasumError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_every_package_error_has_its_exit_code(capsys, monkeypatch, cls):
    error = cls("boom", 1e20) if cls is errors.IllConditioned else cls("boom")

    def fail(spec, L):
        raise error

    monkeypatch.setattr(th, "build", fail)
    code, out, err = run(capsys, ["theta-coeffs", "--preset", "zd", "--dim", "2"])
    assert code == (3 if cls is errors.ToleranceNotMet else 2)
    assert out == ""
    assert err == "error: boom\n"


@pytest.mark.parametrize("extra", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--L-cap", "0"], ["--L-cap", "-4"],
], ids=lambda extra: " ".join(extra))
def test_verify_rejects_bad_tol_or_cap_before_building(capsys, monkeypatch, extra):
    def no_build(spec, L):
        raise AssertionError("built a series")

    monkeypatch.setattr(th, "build", no_build)
    code, out, err = run(capsys, [
        "verify", "--preset", "zd", "--dim", "2", "--f", "1,0,1", *extra])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("radii", ["-1", "nan", "inf", "0,1,-0.5", "-1,nan,inf"])
def test_transform_rejects_bad_radii(capsys, radii):
    code, out, err = run(capsys, [
        "transform", "--f", "1,0,1", "--dim", "2", f"--p={radii}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_hermite_demo_rejects_negative_order(capsys):
    code, out, err = run(capsys, ["hermite-demo", "--n-max", "-2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_jacobi_check_refuses_unconverged_product(capsys):
    code, out, err = run(capsys, ["jacobi-check", "--t", "2e4"])
    assert code == 3
    assert out == ""
    assert "has not converged" in err
