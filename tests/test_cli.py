"""Command line interface: output formats, exit codes, determinism."""

import json
import math
import re
from fractions import Fraction

import pytest

from thetasum import cli
from thetasum import errors
from thetasum import summation as sm
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


def _dual_spec_file(tmp_path, name, d):
    path = tmp_path / "dual.json"
    path.write_text(th.dual(th.preset(name, d)).to_json())
    return str(path)


def test_theta_coeffs_csv_of_a_theta2_dual(capsys, tmp_path):
    # 0.5 theta3^2 on the integers plus 0.5 theta2^2 = 2 q^{1/2} (1 + 2 q^2 + ...)
    # on every second half-integer, the grid of its recurrence: no row at 1.5 or 3.5
    code, out, _ = run(capsys, [
        "theta-coeffs", "--spec", _dual_spec_file(tmp_path, "dd", 2), "--L", "4",
        "--format", "csv",
    ])
    assert code == 0
    assert out == (
        "l,A_l,N_l\n"
        "0,0.0,0.5\n"
        "1,0.5,2.0\n"
        "2,1.0,2.0\n"
        "3,2.0,2.0\n"
        "4,2.5,4.0\n"
        "5,3.0,0.0\n"
        "6,4.0,2.0\n"
    )


def test_theta_coeffs_lists_the_union_of_two_denominators(capsys, tmp_path):
    # theta3(q^{1/2})^2 on the halves plus theta3(q^{1/3})^2 on the thirds:
    # no row for a sixth that neither term has
    spec = th.ThetaSpec(terms=((1.0, (th.ThetaFactor(3, 2.0, Fraction(1, 2)),)),
                               (1.0, (th.ThetaFactor(3, 2.0, Fraction(1, 3)),))), dim_d=2.0)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    code, out, _ = run(capsys, [
        "theta-coeffs", "--spec", str(path), "--L", "2", "--format", "csv"])
    assert code == 0
    assert out == (
        "l,A_l,N_l\n"
        "0,0.0,2.0\n"
        "1,0.3333333333333333,4.0\n"
        "2,0.5,4.0\n"
        "3,0.6666666666666666,4.0\n"
        "4,1.0,4.0\n"
        "5,1.3333333333333333,4.0\n"
        "6,1.5,0.0\n"
        "7,1.6666666666666667,8.0\n"
        "8,2.0,4.0\n"
    )


def test_theta_coeffs_lists_each_term_on_its_own_grid(capsys, tmp_path):
    # the theta2^d term sits d/4 = 0.603275 off the integers, on no common grid,
    # and steps by 2
    code, out, _ = run(capsys, [
        "theta-coeffs", "--spec", _dual_spec_file(tmp_path, "dd", 2.4131), "--L", "64",
    ])
    assert code == 0
    rows = json.loads(out)
    assert [r["l"] for r in rows] == list(range(65 + 32))
    A = [r["A_l"] for r in rows]
    assert A == sorted([float(l) for l in range(65)] + [0.603275 + 2 * j for j in range(32)])
    assert rows[0]["N_l"] == 0.5 and rows[1]["N_l"] != 0.0


def test_theta_coeffs_rejects_a_negative_order(capsys):
    code, out, err = run(capsys, ["theta-coeffs", "--preset", "zd", "--dim", "2", "--L", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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


@pytest.mark.parametrize("where,key,value,says", [
    ("factor", "scale", [1e400, 1], "scale must be a JSON integer, got inf"),
    ("factor", "scale", [1, 0], "malformed spec JSON"),
    ("factor", "scale", [1.5, 1], "scale must be a JSON integer, got 1.5"),
    ("factor", "scale", [1.0, 1], "scale must be a JSON integer, got 1.0"),
    ("factor", "kind", 3.7, "kind must be 2, 3 or 4, got 3.7"),
    ("factor", "kind", 3.0, "kind must be 2, 3 or 4, got 3.0"),
    ("spec", "terms", [], "spec without terms"),
    ("term", "factors", [], "term without factors"),
    ("term", "coeff", math.nan, "term coefficient must be finite, got nan"),
    ("term", "coeff", math.inf, "term coefficient must be finite, got inf"),
    ("factor", "power", -3.0, "power must be finite and nonnegative, got -3.0"),
    ("factor", "scale", [-1, 1], "scale must be finite and positive, got Fraction(-1, 1)"),
    ("factor", "scale", [0, 1], "scale must be finite and positive, got Fraction(0, 1)"),
], ids=["scale-overflow", "scale-zero-denominator", "scale-not-whole", "scale-float",
        "kind-not-whole", "kind-float", "no-terms", "no-factors", "coeff-nan", "coeff-inf",
        "power-negative", "scale-negative", "scale-zero"])
def test_bad_number_in_spec_file_is_usage_error(capsys, tmp_path, where, key, value, says):
    data = th.preset("zd", 2).to_json_dict()
    term = data["terms"][0]
    {"spec": data, "term": term, "factor": term["factors"][0]}[where][key] = value
    with pytest.raises(errors.InvalidSpec, match=re.escape(says)):
        th.ThetaSpec.from_json_dict(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
    code, out, err = run(capsys, ["theta-coeffs", "--spec", str(path)])
    assert code == 2
    assert out == "" and err.startswith("error: ") and says in err


@pytest.mark.parametrize("argv", [
    ["dual", "--preset", "dd", "--dim", "2"],
    ["theta-coeffs", "--preset", "dd", "--dim", "2"],
    ["verify", "--preset", "dd", "--dim", "2", "--f", "1,0,1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, where):
    out_path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, [*argv, "--out", str(out_path)])
    assert code == 2
    assert out == "" and err.startswith("error: cannot write --out file")


def test_non_finite_dim_in_spec_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(th.preset("zd", 2).to_json().replace('"dim_d": 2.0', '"dim_d": NaN'))
    code, out, err = run(capsys, ["verify", "--spec", str(path), "--f", "1,0,1"])
    assert code == 2
    assert out == "" and "dim_d must be finite" in err


def test_dim_below_one_transforms_and_the_old_flag_is_a_usage_error(capsys):
    code, out, _ = run(capsys, ["transform", "--f", "1,0,1", "--dim", "0.5", "--p", "0.5"])
    assert code == 0
    want = math.pi**0.25 * math.exp(-(math.pi * 0.5) ** 2)
    assert json.loads(out)[0]["value"] == pytest.approx(want, rel=1e-14)
    for dim in ("0", "-1"):
        code, out, err = run(capsys, ["transform", "--f", "1,0,1", "--dim", dim])
        says = f"dimension parameter must be finite and positive, got {float(dim)!r}"
        assert code == 2 and out == "" and says in err
    code, out, err = run(capsys, ["verify", "--preset", "dd", "--dim", "0.5", "--f", "1,0,1"])
    assert code == 0 and json.loads(out)["pass"] is True
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "--f", "1,0,1", "--dim", "0.5", "--experimental-dim"])
    assert exc.value.code == 2
    assert "--experimental-dim" in capsys.readouterr().err


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


def test_preset_names_are_listed_once_in_theta(capsys):
    for name in th.PRESETS:
        th.preset(name, 2.0)
    with pytest.raises(errors.InvalidSpec, match=r"'e8d' \(expected zd, dd or theta4d\)$"):
        th.preset("e8d", 2.0)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--preset", "e8d", "--dim", "2", "--f", "1,0,1"])
    assert info.value.code == 2
    assert "(choose from 'zd', 'dd', 'theta4d')" in capsys.readouterr().err


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
    error = cls("boom")

    def fail(spec, L):
        raise error

    monkeypatch.setattr(th, "coeff_table", fail)
    code, out, err = run(capsys, ["theta-coeffs", "--preset", "zd", "--dim", "2"])
    assert code == (3 if cls is errors.ToleranceNotMet else 2)
    assert out == ""
    assert err == "error: boom\n"


@pytest.mark.parametrize("extra", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--tol=-inf"], ["--tol", "1e-400"],
    ["--L-cap", "0"], ["--L-cap", "-4"],
], ids=lambda extra: " ".join(extra))
def test_verify_rejects_bad_tol_or_cap_before_building(capsys, monkeypatch, extra):
    def no_build(factors):
        raise AssertionError("made a term builder")

    monkeypatch.setattr(th, "_TermBuilder", no_build)
    code, out, err = run(capsys, [
        "verify", "--preset", "zd", "--dim", "2", "--f", "1,0,1", *extra])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("tol", ["true", "None", "1j", "1e-10x"])
def test_verify_rejects_a_tol_that_is_not_a_number_before_building(capsys, monkeypatch, tol):
    def no_build(factors):
        raise AssertionError("made a term builder")

    monkeypatch.setattr(th, "_TermBuilder", no_build)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--preset", "zd", "--dim", "2", "--f", "1,0,1", "--tol", tol])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("radii", ["-1", "nan", "inf", "0,1,-0.5", "-1,nan,inf", "0,x", ","])
def test_transform_rejects_bad_radii(capsys, radii):
    code, out, err = run(capsys, [
        "transform", "--f", "1,0,1", "--dim", "2", f"--p={radii}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,says", [
    (["jacobi-check", "--t", "1,two"], "--t expects comma-separated numbers"),
    (["jacobi-check", "--t", ", ,"], "--t expects at least one number"),
    (["verify", "--preset", "zd", "--dim", "2", "--f", ";"], "--f is empty"),
    (["verify", "--preset", "zd", "--dim", "2", "--f", "1,0,-1"], "Gaussian rate must be finite and positive"),
    (["transform", "--dim", "2", "--f", "1,-2,1"], "degree must be an integer >= 0"),
    (["hermite-demo", "--alpha", "-0.5"], "alpha must exceed -1/2, got -0.5"),
    (["hermite-demo", "--alpha", "-3"], "alpha must exceed -1/2, got -3.0"),
    (["hermite-demo", "--alpha", "nan"], "alpha must exceed -1/2, got nan"),
], ids=["t-not-a-number", "t-empty", "f-empty", "f-rate", "f-degree",
        "alpha-minus-half", "alpha-minus-3", "alpha-nan"])
def test_bad_numbers_on_the_command_line_are_usage_errors(capsys, argv, says):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and says in err


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


@pytest.mark.parametrize("t,code,says", [
    ("nan", 2, "error: t must be finite and positive, got nan"),
    ("1e17", 3, "error: at t = 1e+17 the theta argument e^(-pi/t) rounds to 1"),
    ("1e-20", 3, "error: at t = 1e-20 the theta argument e^(-pi t) rounds to 1"),
    ("1e16", 3, "error: at t = 1e+16: theta2 product at q"),
    ("5e-17", 3, "error: at t = 5e-17: theta4 product at q"),
])
def test_jacobi_check_names_t_at_its_ends(capsys, t, code, says):
    got, out, err = run(capsys, ["jacobi-check", "--t", t])
    assert (got, out) == (code, "")
    assert err.startswith(says) and err.count("\n") == 1


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("p", ["1e80", "1e155", "1e200"])
def test_transform_at_huge_radii_prints_zero(capsys, k, p):
    code, out, err = run(capsys, ["transform", "--f", f"1,{k},1", "--dim", "2", "--p", p])
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"p": float(p), "value": 0.0}]


def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch):
    # a table too large to allocate is a resource cap, not a verify FAIL
    def too_large(spec, L):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000001,)")

    monkeypatch.setattr(th, "coeff_table", too_large)
    code, out, err = run(capsys, ["theta-coeffs", "--preset", "theta4d", "--dim", "2",
                                  "--L", "100000000"])
    assert (code, out) == (3, "")
    assert err == "error: out of memory: Unable to allocate 745. GiB for an array " \
                  "with shape (100000001,)\n"


def _zd3_with(coeff=1.0, power=3.0, dim_d=3.0):
    factor = {"kind": 3, "power": power, "scale": [1, 1]}
    return {"dim_d": dim_d, "terms": [{"coeff": coeff, "factors": [factor]}]}


# (argv, spec file or None, exit code): large d and small rates in any
# power, huge spec coefficients, and spec numbers given as strings
EXTREME = {
    "verify-d150": (["verify", "--preset", "zd", "--dim", "150", "--f", "1,0,1"], None, 0),
    "verify-d1e9": (["verify", "--preset", "zd", "--dim", "1e9", "--f", "1,0,1"], None, 2),
    "verify-dd-d700": (["verify", "--preset", "dd", "--dim", "700", "--f", "1,0,1"], None, 2),
    "verify-rate-1e-3": (["verify", "--preset", "zd", "--dim", "3", "--f", "1,0,0.001"], None, 3),
    "verify-coeff-1e300": (["verify", "--f", "1,0,1"], _zd3_with(coeff=1e300), 0),
    "verify-coeff-1e306": (["verify", "--f", "1,0,1"], _zd3_with(coeff=1e306), 2),
    "verify-coeff-1e300-amp-1e8": (["verify", "--f", "1e8,0,1"], _zd3_with(coeff=1e300), 2),
    # C times the amplitude is past the doubles, every shell term is not
    "verify-coeff-1e300-amp-1e7": (["verify", "--f", "1e7,0,1"], _zd3_with(coeff=1e300), 0),
    "verify-coeff-1e300-amp-3e7": (["verify", "--f", "3e7,0,1"], _zd3_with(coeff=1e300), 0),
    "verify-coeff-1e300-amp-2e6-rate-0.2":
        (["verify", "--f", "2e6,0,0.2"], _zd3_with(coeff=1e300), 0),
    # ... and so is the shell sum
    "verify-coeff-1e300-amp-3.3e7": (["verify", "--f", "3.3e7,0,1"], _zd3_with(coeff=1e300), 2),
    "verify-coeff-1e300-amp-5e6-rate-0.2":
        (["verify", "--f", "5e6,0,0.2"], _zd3_with(coeff=1e300), 2),
    "transform-d700-rate-1e-3": (["transform", "--f", "1,0,0.001", "--dim", "700"], None, 2),
    "transform-d1300": (["transform", "--f", "1,0,1", "--dim", "1300"], None, 2),
    "transform-d1e9": (["transform", "--f", "1,0,1", "--dim", "1e9"], None, 2),
    "transform-d150": (["transform", "--f", "1,0,1", "--dim", "150"], None, 0),
    "theta-coeffs-d1e9": (["theta-coeffs", "--preset", "zd", "--dim", "1e9"], None, 0),
    "theta-coeffs-dd-d500": (["theta-coeffs", "--preset", "dd", "--dim", "500", "--L", "512"], None, 2),
    "coeff-string": (["verify", "--f", "1,0,1"], _zd3_with(coeff="1.0"), 2),
    "power-string": (["dual"], _zd3_with(power="3.0"), 2),
    "dim-bool": (["theta-coeffs"], _zd3_with(power=1.0, dim_d=True), 2),  # not read as 1
}


@pytest.mark.parametrize("case", EXTREME, ids=list(EXTREME))
def test_extreme_input_exits_with_its_class_code(capsys, monkeypatch, tmp_path, case):
    argv, spec, want = EXTREME[case]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + ["--spec", str(path)]
    reports = []
    verify = sm.verify

    def recording(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(sm, "verify", recording)
    code, out, err = run(capsys, argv)
    assert code == want, err
    assert "Traceback" not in err and "Warning" not in err
    # a PASS within an infinite error budget would be no check at all
    assert all(math.isfinite(r.error_budget) for r in reports if r.passed)
    if want == 2:
        assert out == "" and err.startswith("error: ")
