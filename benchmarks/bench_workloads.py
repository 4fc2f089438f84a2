"""Seeded workload generators and output checks for the closed-loop benchmark.

Inputs are plain JSON-able dicts drawn from ``random.Random(seed)``, so one
seed always gives byte-identical inputs.

Operations and their outcome classes:

* ``ok``: the program answered, and every value met the oracle within the
  program's own claimed bound;
* ``fail_verdict``: verify said FAIL (the identity always holds);
* ``tolerance_not_met`` / ``domain_error``: the program refused (raised, or
  exited 3 / 2);
* ``other_error``: another thetasum error was raised;
* ``wrong_exit``: the CLI exited with a code its contract does not give;
* ``accuracy_miss``: a value missed the oracle by more than the claimed
  bound (for verify: tol + 10 (tail_lhs + tail_rhs + error_budget); for a
  coefficient table: exactness, taken as 1e-9 relative);
* ``timeout``: the operation ran past OP_TIMEOUT_S and was stopped;
* ``crash``: an exception that is not a thetasum error, death by a signal,
  or output that cannot be parsed.  Only this class makes a run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

# bench_oracles (mpmath) is imported where an output is checked, after the
# timed loop, so that it does not count in an in-process run's peak RSS

WORKLOADS = ("verify", "cli-oneshot")
OUTCOMES = ("ok", "fail_verdict", "tolerance_not_met", "domain_error",
            "other_error", "wrong_exit", "accuracy_miss", "timeout", "crash")
OP_TIMEOUT_S = 30.0       # keeps a run within its time limit if an operation hangs
TABLE_REL_TOL = 1e-9      # coefficient tables claim exact coefficients
VALUE_REL_TOL = 1e-9      # closed-form transform values
JACOBI_REL_TOL = 1e-12    # modular-relation residuals, relative to theta
HERMITE_ABS_TOL = 1e-10   # quadrature route's own abs_tol is 1e-11
DIGITS_CAP = 17.0
FAMILIES = ("zd", "dd", "theta4d", "mixed")


# -- generators ----------------------------------------------------------
#
# Every block is the same design: each position gets a family, a slice of
# each parameter range and a polynomial degree, and the seed only jitters
# values inside their slice.  All blocks thus cost about the same, so a run,
# which always ends with a whole block, has the same mix whatever its length.


def _slice(rng: random.Random, j: int, n: int, lo: float, hi: float,
           log: bool = False, jitter: float = 0.3) -> float:
    """A value near the centre of slice j of n equal slices of [lo, hi].

    ``jitter`` is the share of the slice width the seed moves it across.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    x = a + (b - a) * (j + 0.5 + jitter * (rng.random() - 0.5)) / n
    return math.exp(x) if log else x


def _dim(j: int, n: int, hi: float = 4.2, rng: random.Random | None = None,
         places: int = 4) -> float:
    """A dimension in slice j of n over [1.5, hi].

    Without ``rng``: the centre of the slice on the 0.1 grid, so about one in
    nine values is an integer.  With ``rng``: a seed-drawn value in the slice,
    as a measured dimension would be given, to ``places`` decimals with the
    last one odd and not 5, so that d is exactly k / 10^places in lowest terms.
    That denominator sets how the program treats the offset d/4 of theta2^d
    (in the dual of dd and theta4d), which ``pow_real`` keeps exact only up to
    denominator 4096: at 3 places it folds onto a grid 1000 times finer (a
    series that many times longer); at 4 places it stays a float, and dd
    raises OffsetMismatch because ``lincomb`` cannot align it with theta3^d.
    The workloads keep both as known defects, each on a fixed share of cases.
    """
    if rng is None:
        return round(1.45 + (hi - 1.4) * (j + 0.5) / n, 1)
    x = _slice(rng, j, n, 1.5, hi, jitter=0.8) * 10 ** (places - 1)
    return (math.floor(x) * 10 + rng.choice((1, 3, 7, 9))) / 10 ** places


def _factor(kind: int, power: float, scale: int = 1) -> dict:
    return {"kind": kind, "power": power, "scale": [scale, 1]}


def make_spec(family: str, d: float, variant: int = 0) -> dict:
    """Spec JSON dict (ThetaSpec.to_json_dict layout) of a family at dimension d.

    ``variant`` picks the power and scale of the theta4 factor of a mixed spec.
    """
    if family == "zd":
        terms = [{"coeff": 1.0, "factors": [_factor(3, d)]}]
    elif family == "dd":
        terms = [{"coeff": 0.5, "factors": [_factor(3, d)]},
                 {"coeff": 0.5, "factors": [_factor(4, d)]}]
    elif family == "theta4d":
        terms = [{"coeff": 1.0, "factors": [_factor(4, d)]}]
    else:  # mixed scale, as theta3(q)^1.2 theta4(q^3)^0.8
        p2 = (0.8, 1.2)[variant // 2 % 2] if d >= 1.6 else 0.8
        p1 = round(d - p2, 1)
        terms = [{"coeff": 1.0, "factors": [_factor(3, p1), _factor(4, p2, 2 + variant % 2)]}]
        d = round(p1 + p2, 1)
    return {"dim_d": d, "terms": terms}


def _gauss_cases(rng: random.Random) -> list[dict]:
    """The 64 GaussPoly cases of a verify block (see ``_verify_block``)."""
    n = 16
    cases = []
    for r in range(4):
        for i in range(n):
            alpha = _slice(rng, i, n, 0.05, 20.0, log=True, jitter=0.05)
            gauss = [[1.0, (i + r) % 3, round(alpha, 5)]]
            if (i + r) % 2:  # a slower-decaying second term would move the cost
                a2 = min(20.0, alpha * math.exp(rng.uniform(0.15, 0.2)))
                gauss.append([round(rng.uniform(-0.5, 0.5), 4), (i + r + 1) % 3, round(a2, 5)])
            fine = rng if i // 4 == r else None  # one per alpha slice, 4 per family
            d = _dim((5 * i + 3 * r) % n, n, rng=fine, places=3 + i % 2)
            spec = make_spec(FAMILIES[(i + r) % 4], d, i + r)
            cases.append({"op": "verify", "spec": spec, "profile": {"gauss": gauss},
                          "tol": 1e-10})
    return cases


def _sampled_cases(rng: random.Random) -> list[dict]:
    """The 4 Sampled cases of a verify block (see ``_verify_block``).

    The cusp's transform decays like a power of p, so its verify needs 256
    dual shells at tol 2e-4, about 0.7 s.  Left out because one operation
    can outlast a whole run: mixed specs (over 15 s), d = 4 with b > 0
    (verify runs to its order cap, about 200 s), and d given to 3 or 4
    decimals (theta4d at d = 2.2331 with a = 4.6, b = 0.99 ran past
    OP_TIMEOUT_S).
    """
    n = 3
    cases = []
    for i in range(n):
        a = _slice(rng, i, n, 0.3, 6.0, log=True, jitter=0.05)
        b = round(_slice(rng, 1, 3, 0.0, 1.0, jitter=0.1), 4) if i == 1 else 0.0
        spec = make_spec(("zd", "dd", "theta4d")[i], _dim(2 * i % n, n, hi=3.9))
        cases.append({"op": "verify", "spec": spec,
                      "profile": {"shape": "gauss", "a": round(a, 5), "b": b}, "tol": 1e-8})
    cases.append({"op": "verify", "spec": make_spec("zd", 2.0),
                  "profile": {"shape": "cusp", "s": round(rng.uniform(1.04, 1.06), 4)},
                  "tol": 2e-4})
    return cases


def _verify_block(rng: random.Random) -> list[dict]:
    """68 in-process verify cases: 64 on GaussPoly profiles (closed-form
    transform) and, after every 16 of them, one of 4 on Sampled profiles
    (quadrature transform, about 14% of the traced time).

    GaussPoly: every family on each of 16 log-slices of alpha in [0.05, 20],
    d on 16 slices of [1.5, 4.2] (a quarter of them given to 3 or 4
    decimals, two of each per family), degrees k in {0, 1, 2} and one or two
    terms by rotation.  Sampled: e^{-a r^2} (1 + b r^2) with a on 3
    log-slices of [0.3, 6] (b near 0.5 on the middle one) on zd, dd and
    theta4d, d on 3 slices of [1.5, 3.9] on the 0.1 grid; and one
    e^{-(r/s)^3} cusp on zd at d = 2 (256 dual shells)."""
    cases = _gauss_cases(rng)
    for j, case in enumerate(_sampled_cases(rng)):
        cases.insert(17 * j + 16, case)
    return cases


def _cli_block(rng: random.Random) -> list[dict]:
    """theta-coeffs tables for zd, the mixed spec and theta4d at L on 3
    log-slices of [1024, 4096], then small commands: verify on zd and dd,
    dual of dd and of the mixed spec, transform, jacobi-check, hermite-demo.
    The tables take d on the 0.1 grid, which keeps their oracle's rationals
    small; verify and dual take d to 4 decimals, so the dd verify meets the
    OffsetMismatch defect (see ``_dim``)."""
    cases = [
        {"op": "cli", "cmd": "theta-coeffs", "spec": make_spec(fam, _dim(j, 3), j),
         "L": int(_slice(rng, j, 3, 1024, 4096, log=True))}
        for j, fam in enumerate(("zd", "mixed", "theta4d"))
    ]
    cases += [
        {"op": "cli", "cmd": "verify", "spec": make_spec(fam, _dim(j, 2, rng=rng)),
         "alpha": round(_slice(rng, j, 2, 0.3, 5.0, log=True), 5), "tol": 1e-10}
        for j, fam in enumerate(("zd", "dd"))
    ]
    cases += [
        {"op": "cli", "cmd": "dual", "spec": make_spec(fam, _dim(j, 2, rng=rng), 1)}
        for j, fam in enumerate(("dd", "mixed"))
    ]
    cases += [
        {"op": "cli", "cmd": "transform", "dim": round(rng.uniform(1.5, 4.2), 3),
         "gauss": [[round(rng.uniform(0.2, 2.0), 4), k, round(rng.uniform(0.3, 4.0), 4)]
                   for k in (0, 2)],
         "p": sorted(round(rng.uniform(0.0, 2.5), 4) for _ in range(4))},
        {"op": "cli", "cmd": "jacobi-check",
         "t": sorted(round(rng.uniform(0.3, 3.5), 4) for _ in range(5))},
        {"op": "cli", "cmd": "hermite-demo", "alpha": round(rng.uniform(0.2, 3.0), 4),
         "n_max": 8},
    ]
    return cases


BLOCKS = {"verify": _verify_block, "cli-oneshot": _cli_block}


# seconds one block takes on a 2-core x86 container at the seed commit
BLOCK_SECONDS = {"verify": 11.0, "cli-oneshot": 14.5}


def blocks(workload: str, seed: int, count: int) -> list[list[dict]]:
    """``count`` seed-determined blocks of operation inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return [BLOCKS[workload](rng) for _ in range(count)]


# -- program side ----------------------------------------------------------


@dataclass
class Result:
    """What one operation returned, before it is checked."""

    latency: float
    value: object = None          # VerificationReport, or (returncode, stdout, stderr)
    error: BaseException | None = None


@dataclass
class Checked:
    outcome: str
    digits: float | None = None   # correct significant digits, None without output
    note: str = ""


def _sampled_callable(profile: dict, tracer):
    if profile["shape"] == "gauss":
        a, b = profile["a"], profile["b"]

        def f(r):
            return math.exp(-a * r * r) * (1.0 + b * r * r)
    else:
        s = profile["s"]

        def f(r):
            return math.exp(-(r / s) ** 3)
    if tracer is None:
        return f

    def counted(r):
        tracer.ticks += 1
        return f(r)
    return counted


def _decay_hint(profile: dict) -> tuple[float, float]:
    """(scale, rate) with |f(r)| <= scale e^{-rate r^2}."""
    if profile["shape"] == "cusp":
        # e^{-x^3} <= e^{4/27} e^{-x^2} (maximum of x^2 - x^3 at x = 2/3)
        return (1.2, 1.0 / profile["s"] ** 2)
    a, b = profile["a"], profile["b"]
    c = 0.5 * a  # (1 + b x) e^{-c x} peaks at x = 1/c - 1/b
    peak = (b / c) * math.exp(c / b - 1.0) if b > c else 1.0
    return (1.01 * peak, a - c)


class OpTimeout(Exception):
    """Raised into an in-process operation that ran past OP_TIMEOUT_S."""


class InProcess:
    """Runs verify operations in this process against the imported package."""

    def __init__(self, modules: dict):
        self.th = modules["theta"]
        self.tr = modules["transform"]
        self.sm = modules["summation"]
        self.errors = modules["errors"]

    def prepare(self, case: dict, tracer):
        spec = self.th.ThetaSpec.from_json_dict(case["spec"])
        prof = case["profile"]
        if "gauss" in prof:
            f = self.tr.GaussPoly(tuple(tuple(t) for t in prof["gauss"]))
        else:
            f = self.tr.Sampled(_sampled_callable(prof, tracer), decay_hint=_decay_hint(prof))
        sm, tol = self.sm, case["tol"]
        return lambda: sm.verify(spec, f, tol=tol)

    def classify_error(self, exc: BaseException) -> str:
        E = self.errors
        if isinstance(exc, OpTimeout):
            return "timeout"
        if isinstance(exc, E.ToleranceNotMet):
            return "tolerance_not_met"
        if isinstance(exc, (E.DomainError, E.InvalidSpec)):
            return "domain_error"
        if isinstance(exc, E.ThetasumError):
            return "other_error"
        return "crash"


def _digits(rel_err: float) -> float:
    """Correct significant digits for a relative error, capped at DIGITS_CAP."""
    if not math.isfinite(rel_err):  # a non-finite value: below any finite error
        return -20 * DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0 ** -DIGITS_CAP)))


def shell_sum_oracle(case: dict) -> float:
    import bench_oracles as orc

    prof = case["profile"]
    if "gauss" in prof:
        return orc.gauss_shell_sum(case["spec"], prof["gauss"])
    if prof["shape"] == "gauss":
        gauss = [(1.0, 0, prof["a"]), (prof["b"], 1, prof["a"])]
        return orc.gauss_shell_sum(case["spec"], gauss)
    return orc.cusp_shell_sum(int(case["spec"]["dim_d"]), prof["s"])


def check_report(report, truth: float) -> Checked:
    """Both sides of a verify report against the true shell sum."""
    err = max(abs(report.lhs - truth), abs(report.rhs - truth))
    digits = _digits(err / abs(truth)) if truth else _digits(err)
    if not report.passed:
        return Checked("fail_verdict", digits, f"residual {report.residual:.3e}")
    bound = report.tol + 10.0 * (report.tail_lhs + report.tail_rhs + report.error_budget)
    if not err <= bound:
        return Checked("accuracy_miss", digits, f"error {err:.3e} > bound {bound:.3e}")
    return Checked("ok", digits)


# -- CLI side --------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _preset_of(spec: dict) -> str | None:
    """Preset name when the spec is exactly one of the presets."""
    d = spec["dim_d"]
    for fam in ("zd", "dd", "theta4d"):
        if spec == make_spec(fam, d):
            return fam
    return None


def cli_argv(case: dict, workdir: str, index: int) -> list[str]:
    """Command-line arguments for a CLI case; writes a spec file when needed."""
    cmd = case["cmd"]
    argv = [cmd]
    if "spec" in case:
        fam = _preset_of(case["spec"])
        if fam:
            argv += ["--preset", fam, "--dim", _fmt(case["spec"]["dim_d"])]
        else:
            path = os.path.join(workdir, f"spec-{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case["spec"], fh)
            argv += ["--spec", path]
    if cmd == "theta-coeffs":
        argv += ["--L", str(case["L"])]
    elif cmd == "verify":
        argv += ["--f", f"1,0,{_fmt(case['alpha'])}", "--tol", _fmt(case["tol"])]
    elif cmd == "transform":
        argv += ["--f", ";".join(f"{_fmt(c)},{k},{_fmt(a)}" for c, k, a in case["gauss"]),
                 "--dim", _fmt(case["dim"]), "--p", ",".join(_fmt(p) for p in case["p"])]
    elif cmd == "jacobi-check":
        argv += ["--t", ",".join(_fmt(t) for t in case["t"])]
    elif cmd == "hermite-demo":
        argv += ["--alpha", _fmt(case["alpha"]), "--n-max", str(case["n_max"])]
    return argv


def run_cli(argv: list[str], env: dict, cwd: str, child: list[str] | None
            ) -> tuple[int | None, str, str]:
    """One fresh interpreter: ``python -m thetasum`` or the traced child script.

    The return code is None when the process ran past OP_TIMEOUT_S and was killed.
    """
    head = [sys.executable, "-m", "thetasum"] if child is None else [sys.executable] + child
    try:
        proc = subprocess.run(head + argv, env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr


def _table_check(case: dict, rows: list[dict], cache: dict) -> Checked:
    import bench_oracles as orc

    key = json.dumps([case["spec"], case["L"]], sort_keys=True)
    if key not in cache:
        cache[key] = orc.coeff_oracle(case["spec"], case["L"])
    V, truth, scale = cache[key]
    got: dict[int, float] = {}
    worst = 0.0
    for row in rows:
        x = row["A_l"] * V
        idx = round(x)
        if abs(x - idx) > 1e-6 or idx >= len(truth):
            return Checked("accuracy_miss", -DIGITS_CAP, f"off-grid exponent {row['A_l']}")
        got[idx] = row["N_l"]
    for idx, (t, s) in enumerate(zip(truth, scale)):
        worst = max(worst, abs(got.get(idx, 0.0) - t) / s)
    digits = _digits(worst)
    if worst > TABLE_REL_TOL:
        return Checked("accuracy_miss", digits, f"coefficient rel error {worst:.3e}")
    return Checked("ok", digits)


def _dual_truth(spec: dict) -> dict:
    import bench_oracles as orc

    terms = []
    for c, factors in orc.spec_terms(spec):
        log_det = math.fsum(float(p) * (math.log(s.numerator) - math.log(s.denominator))
                            for _, p, s in factors)
        terms.append({"coeff": c * math.exp(-0.5 * log_det), "factors": [
            {"kind": {2: 4, 3: 3, 4: 2}[k], "power": float(p),
             "scale": [s.denominator, s.numerator]} for k, p, s in factors]})
    return {"dim_d": spec["dim_d"], "terms": terms}


def check_cli(case: dict, rc: int, out: str, err: str, table_cache: dict) -> Checked:
    """Classify one CLI run; ``table_cache`` keeps coefficient oracles by input."""
    import bench_oracles as orc

    cmd = case["cmd"]
    if rc is None:
        return Checked("timeout")
    if rc < 0:
        return Checked("crash", None, f"signal {-rc}")
    if rc == 3:
        return Checked("tolerance_not_met")
    if rc == 2:
        return Checked("domain_error", None, err.strip()[-200:])
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        if rc != 0 and "thetasum.errors" in err:
            return Checked("wrong_exit", None, err.strip().splitlines()[-1])
        return Checked("crash", None, f"exit {rc}, unparseable output")
    if cmd == "verify":
        if rc == 1 and data["pass"] is False:
            outcome = "fail_verdict"
        elif rc != 0 or data["pass"] is not True:
            return Checked("wrong_exit", None, f"exit {rc} with pass={data['pass']}")
        else:
            outcome = "ok"
        truth = orc.gauss_shell_sum(case["spec"], [(1.0, 0, case["alpha"])])
        e = max(abs(data["lhs"] - truth), abs(data["rhs"] - truth))
        # error_budget is not in the CLI report; for these positive sums its
        # rounding floor is 2^-50 (2|lhs| + 2|rhs|)
        floor = 2.0 ** -50 * 2.0 * (abs(data["lhs"]) + abs(data["rhs"]))
        bound = case["tol"] + 10.0 * (data["tail_lhs"] + data["tail_rhs"] + floor)
        if outcome == "ok" and not e <= bound:
            outcome = "accuracy_miss"
        return Checked(outcome, _digits(e / abs(truth)))
    if rc != 0:
        return Checked("wrong_exit", None, f"exit {rc}")
    if cmd == "theta-coeffs":
        return _table_check(case, data, table_cache)
    if cmd == "dual":
        want = _dual_truth(case["spec"])
        worst = 0.0
        same = len(want["terms"]) == len(data["terms"])
        for tw, tg in zip(want["terms"], data["terms"]):
            same = same and tw["factors"] == tg["factors"]
            worst = max(worst, abs(tg["coeff"] - tw["coeff"]) / abs(tw["coeff"]))
        same = same and data["dim_d"] == want["dim_d"]
        ok = same and worst <= VALUE_REL_TOL
        return Checked("ok" if ok else "accuracy_miss", _digits(worst) if same else -DIGITS_CAP)
    if cmd == "transform":
        worst = 0.0
        for row in data:
            t = orc.gauss_transform(case["gauss"], case["dim"], row["p"])
            worst = max(worst, abs(row["value"] - t) / abs(t))
        return Checked("ok" if worst <= VALUE_REL_TOL else "accuracy_miss", _digits(worst))
    if cmd == "jacobi-check":
        worst = 0.0
        for row in data:
            size = orc.theta_value(row["kind"], math.exp(-math.pi / row["t"]))
            worst = max(worst, row["residual"] / abs(size))
        return Checked("ok" if worst <= JACOBI_REL_TOL else "accuracy_miss", _digits(worst))
    # hermite-demo: both routes against the generating-function value
    truth = [orc.gaussian_hermite(case["alpha"], row["n"]) for row in data]
    worst = max(max(abs(row["closed"] - t), abs(row["quadrature"] - t))
                for row, t in zip(data, truth))
    size = max(abs(t) for t in truth)
    ok = worst <= HERMITE_ABS_TOL
    return Checked("ok" if ok else "accuracy_miss", _digits(worst / size))


@dataclass
class Tally:
    """Outcome counts and the worst accuracy over a run."""

    counts: dict = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))
    min_digits: float | None = None
    notes: list = field(default_factory=list)

    def add(self, checked: Checked, label: str) -> None:
        self.counts[checked.outcome] += 1
        if checked.digits is not None:
            self.min_digits = (checked.digits if self.min_digits is None
                               else min(self.min_digits, checked.digits))
        if checked.outcome != "ok" and len(self.notes) < 12:
            self.notes.append(f"{checked.outcome}: {label} {checked.note}".rstrip())

    @property
    def digits_lost(self) -> float:
        """DIGITS_CAP minus the fewest correct digits over the run (>= 0, lower
        is better); the floor of ``_digits`` counts when nothing could be checked."""
        worst = _digits(math.inf) if self.min_digits is None else self.min_digits
        return DIGITS_CAP - worst

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]
