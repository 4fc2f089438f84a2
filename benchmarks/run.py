"""thetasum benchmark: seeded closed-loop workloads checked against oracles.

Usage (from the repository root):

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 45 --trace 0

Workloads: verify (in-process ``verify`` on GaussPoly and Sampled profiles)
and cli-oneshot (one fresh ``python -m thetasum`` per operation).  One client
sends the next operation when the previous one has returned.  The package
is imported from ``src/`` of the checkout; numeric thread pools are capped
at the number of usable cores.

A run measures a fixed number of whole blocks of operations, as many as
take about ``--seconds`` on a 2-core x86 container (``BLOCK_SECONDS`` in
bench_workloads.py), so every run of a workload does the same amount of
work and has the same sample count.  The latency percentiles are taken
after each operation's latency is replaced by the median of its case class
(its position in the block) over the run, see ``class_medians``.

``--trace 0`` times the operations untraced and prints the end-to-end
metrics.  ``--trace 1`` runs each operation of half the blocks twice in a
row, once with every public function of the six layers wrapped in a span
and once untraced (alternating which goes first), so the tracing overhead
is measured on the same state of the machine; it prints the per-layer
metrics and writes the spans to ``.bench_trace/`` in the checkout.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import bench_trace
import bench_workloads as wl

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cap_threads() -> None:
    """Cap numeric thread pools at NPROC; must run before numpy is imported."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        keep = cur.isdigit() and 0 < int(cur) < NPROC
        os.environ[var] = cur if keep else str(NPROC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH", "")) if p)
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing thetasum, and the
    median import time measured inside it (s)."""
    code = ("import time; t = time.perf_counter(); import thetasum; "
            "print(time.perf_counter() - t)")
    walls, imports = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        walls.append(perf_counter() - t0)
        imports.append(float(proc.stdout))
    return statistics.median(walls), statistics.median(imports)


def class_medians(lat: list[float], per_block: int) -> list[float]:
    """The latencies with each replaced by the median of its case class.

    Every block repeats one design with seed-jittered values (the work per
    position varies by under 1% across seeds), so position j of each block
    is one case class.  Its median over the run's blocks ignores slow or
    fast spells of a shared machine that cover fewer than half of the
    blocks; a plain order statistic over all operations instead moves
    between neighbouring classes with such a spell.
    """
    if len(lat) % per_block:
        raise ValueError(f"{len(lat)} latencies are not whole blocks of {per_block}")
    cols = [statistics.median(lat[j::per_block]) for j in range(per_block)]
    return [cols[i % per_block] for i in range(len(lat))]


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples above it."""
    s = sorted(lat)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _raise_timeout(signum, frame):
    raise wl.OpTimeout(f"operation ran past {wl.OP_TIMEOUT_S} s")


class Runner:
    """Closed loop over one workload's cases, traced or untraced."""

    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.cli = workload == "cli-oneshot"
        self.env = child_env()
        self.table_cache: dict = {}
        self.truth: dict[int, float] = {}
        if not self.cli:
            from thetasum import errors, hermite, qseries, summation, theta, transform
            import thetasum.cli as cli_mod

            self.modules = {"qseries": qseries, "theta": theta, "transform": transform,
                            "summation": summation, "hermite": hermite, "cli": cli_mod,
                            "errors": errors}
            self.inproc = wl.InProcess(self.modules)
            signal.signal(signal.SIGALRM, _raise_timeout)

    def warm_up(self) -> None:
        if self.cli:
            wl.run_cli(["dual", "--preset", "zd", "--dim", "2.0"], self.env, self.workdir, None)
            return
        th, tr, sm = (self.modules[k] for k in ("theta", "transform", "summation"))
        sm.verify(th.preset("zd", 2.5), tr.GaussPoly(((1.0, 0, 1.0),)), tol=1e-10)
        sm.verify(th.preset("zd", 2.5),
                  tr.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0)), tol=1e-8)

    def run_one(self, index: int, case: dict, tracer, span_file: str | None):
        if self.cli:
            argv = wl.cli_argv(case, self.workdir, index)
            child = None if tracer is None else [str(BENCH_DIR / "bench_cli_child.py"), span_file]
            t0 = perf_counter()
            value = wl.run_cli(argv, self.env, self.workdir, child)
            return wl.Result(perf_counter() - t0, value)
        call = self.inproc.prepare(case, tracer)
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, wl.OP_TIMEOUT_S)
        try:
            value, error = call(), None
        except Exception as exc:  # classified after the timed region
            value, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        return wl.Result(perf_counter() - t0, value, error)

    def loop(self, blocks) -> list:
        """Run every case of the given blocks untraced, one after another."""
        return [(case, self.run_one(i, case, None, None))
                for i, case in enumerate(c for block in blocks for c in block)]

    def paired(self, blocks, tracer) -> tuple[list, list]:
        """Run every case traced and untraced back to back, alternating which
        goes first, so that both see the same state of a shared machine.

        Returns the traced and the untraced (case, result) lists.
        """
        traced, untraced = [], []
        span_file = os.path.join(self.workdir, "spans.json")
        for index, case in enumerate(c for block in blocks for c in block):
            for with_trace in ((True, False) if index % 2 == 0 else (False, True)):
                if not with_trace:
                    untraced.append((case, self.run_one(index, case, None, span_file)))
                    continue
                if not self.cli:
                    tracer.install(self.modules)
                try:
                    res = self.run_one(index, case, tracer, span_file)
                finally:
                    tracer.uninstall()
                if self.cli:
                    self._merge_child_spans(tracer, span_file, index)
                traced.append((case, res))
        return traced, untraced

    @staticmethod
    def _merge_child_spans(tracer, path: str, index: int) -> None:
        try:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return  # the child died before writing spans; counted by its check
        base = len(tracer.spans)
        for rec in child:
            rec[3] = rec[3] + base if rec[3] >= 0 else -1
            rec[4] = index
            tracer.spans.append(rec)
        os.remove(path)

    def check(self, done: list, tally) -> None:
        """Classify every finished operation against its oracle."""
        for index, (case, res) in enumerate(done):
            label = json.dumps(case, sort_keys=True)[:160]
            if self.cli:
                checked = wl.check_cli(case, *res.value, table_cache=self.table_cache)
            elif res.error is not None:
                checked = wl.Checked(self.inproc.classify_error(res.error), None,
                                     f"{type(res.error).__name__}: {res.error}"[:200])
            else:
                if index not in self.truth:
                    self.truth[index] = wl.shell_sum_oracle(case)
                checked = wl.check_report(res.value, self.truth[index])
            tally.add(checked, label)


def end_to_end(done: list, per_block: int, tally, rss_mb: float,
               setup_s: float) -> tuple[dict, float]:
    """End-to-end metrics; the latency percentiles are over class medians."""
    lat = [res.latency for _, res in done]
    smooth = class_medians(lat, per_block)
    tail, pct = tail_latency(smooth)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(smooth), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "ok_share": (tally.counts["ok"] / tally.attempted, "ratio"),
        "accuracy_digits_lost": (tally.digits_lost, "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, pct


# per-layer metrics printed by a traced run, with their units
PER_LAYER = {
    "qseries.pow_real.self_ms": "ms/op",
    "qseries.pow_real.coeffs": "count/op",
    "qseries.mul.self_ms": "ms/op",
    "qseries.lincomb.self_ms": "ms/op",
    "qseries.self_ms": "ms/op",
    "theta.build.calls": "count/op",
    "theta.build.self_ms": "ms/op",
    "theta.build.coeffs_out": "count/op",
    "theta.build.useful_ratio": "ratio",
    "theta.build.repeat_share": "ratio",
    "theta.self_ms": "ms/op",
    "transform.ft_quadrature.calls": "count/op",
    "transform.ft_quadrature.self_ms": "ms/op",
    "transform.profile_evals": "count/op",
    "transform.profile_evals_per_shell": "count/shell",
    "transform.ft_gausspoly.self_ms": "ms/op",
    "transform.self_ms": "ms/op",
    "summation.verify.self_ms": "ms/op",
    "summation.lhs_sum.self_ms": "ms/op",
    "summation.rhs_sum.self_ms": "ms/op",
    "summation.orders_tried": "count/verify",
    "summation.L_used": "count/verify",
    "summation.L_star_used": "count/verify",
    "summation.self_ms": "ms/op",
    "hermite.hermite_coeff_quadrature.self_ms": "ms/op",
    "hermite.gaussian_hermite_coeff.self_ms": "ms/op",
    "hermite.self_ms": "ms/op",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "trace.wall_ms": "ms/op",
    "trace.attributed_ms": "ms/op",
    "trace.unattributed_ms": "ms/op",
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count/op",
    "outcome.fail_share": "ratio",
    "outcome.fail_verdict_share": "ratio",
    "outcome.tolerance_not_met_share": "ratio",
    "outcome.domain_error_share": "ratio",
    "outcome.accuracy_miss_share": "ratio",
    "outcome.wrong_exit_share": "ratio",
    "outcome.timeout_share": "ratio",
}


def per_layer(traced: list, replay: list, tracer, tally, import_s: float, cli: bool) -> dict:
    """Layer metrics of the traced half, overhead against its untraced replay.

    Self times plus ``trace.unattributed_ms`` add up to ``trace.wall_ms``,
    the traced latency per operation.  Raises when the spans of an operation
    cover more than its latency, or, in-process, where the timed call is the
    wrapped ``verify`` itself, when over 5% of the traced time has no span.
    """
    roots = bench_trace.root_seconds(tracer.spans)
    for i, (_, res) in enumerate(traced):
        if roots.get(i, 0.0) > res.latency + 1e-6:
            raise RuntimeError(f"operation {i}: spans cover {roots[i]:.6f} s "
                               f"of a {res.latency:.6f} s latency")
    n = len(traced)
    n_verify = sum(1 for case, _ in traced if "verify" in (case["op"], case.get("cmd")))
    m = bench_trace.layer_metrics(tracer.spans, n, n_verify)
    if not cli:  # in-process: one interpreter, imported during set-up
        m["cli.import_ms"] = 1e3 * import_s
    wall = sum(res.latency for _, res in traced)
    untraced = sum(res.latency for _, res in replay)
    m["trace.wall_ms"] = 1e3 * wall / n
    m["trace.unattributed_ms"] = m["trace.wall_ms"] - m["trace.attributed_ms"]
    if not cli and m["trace.unattributed_ms"] > 0.05 * m["trace.wall_ms"]:
        raise RuntimeError(f"{m['trace.unattributed_ms']:.3f} of {m['trace.wall_ms']:.3f} "
                           "ms/op of traced time lies outside every span")
    m["trace.overhead_ops_per_s"] = n / wall - n / untraced
    m["trace.overhead_share"] = wall / untraced - 1.0
    total = tally.attempted
    m["outcome.fail_share"] = tally.failed / total
    for k in ("fail_verdict", "tolerance_not_met", "domain_error", "accuracy_miss",
              "wrong_exit", "timeout"):
        m[f"outcome.{k}_share"] = tally.counts[k] / total
    return {k: (m[k], unit) for k, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    if not (SRC / "thetasum" / "__init__.py").is_file():
        print(f"error: no thetasum sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    cap_threads()
    sys.path.insert(0, str(SRC))
    env = child_env()
    setup_s, import_s = measure_setup(env)
    workdir = tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT)
    try:
        runner = Runner(args.workload, workdir)
        runner.warm_up()
        tally = wl.Tally()
        n_blocks = max(1, round(args.seconds / wl.BLOCK_SECONDS[args.workload]))
        if args.trace == 0:
            blocks = wl.blocks(args.workload, args.seed, n_blocks)
            done = runner.loop(blocks)
            who = resource.RUSAGE_CHILDREN if runner.cli else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            runner.check(done, tally)
            named, pct = end_to_end(done, len(blocks[0]), tally, rss_mb, setup_s)
            print(f"# tail percentile p{pct:.2f} over {len(done)} operations, "
                  f"{len(blocks[0])} case classes x {n_blocks} blocks")
        else:
            tracer = bench_trace.Tracer()
            traced, replay = runner.paired(
                wl.blocks(args.workload, args.seed, max(1, n_blocks // 2)), tracer)
            runner.check(traced, tally)
            runner.check(replay, tally)
            named = per_layer(traced, replay, tracer, tally, import_s, runner.cli)
            wall, attributed, rest = (named[k][0] for k in (
                "trace.wall_ms", "trace.attributed_ms", "trace.unattributed_ms"))
            print(f"# traced {len(traced)} operations: self times {attributed:.3f} + "
                  f"unattributed {rest:.3f} = wall {wall:.3f} ms/op; tracing overhead "
                  f"{named['trace.overhead_share'][0]:+.2%} of the untraced replay")
            out_dir = ROOT / ".bench_trace"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(str(out_dir / f"{args.workload}-seed{args.seed}.json"))
        print(f"# workload {args.workload} seed {args.seed}; threads capped at {NPROC} "
              f"({', '.join(THREAD_VARS)}); setup median of {SETUP_REPS}")
        print("# outcomes " + " ".join(f"{k}={v}" for k, v in tally.counts.items()))
        for note in tally.notes:
            print(f"#   {note}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.counts["crash"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
