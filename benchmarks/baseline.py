"""Record a benchmark baseline: seeded runs per workload plus one traced run.

Usage (from the repository root):

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

For every workload in BENCHMARK.json this runs ``run.py`` untraced once for
each of the seeds 1..10 and traced once with seed 1, then writes the
machine, the thread-pool caps, the median, quartiles and spread
((q3 - q1) / median) of every end-to-end metric, and the traced per-layer
table.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import bench_workloads as wl
import run

SEEDS = list(range(1, 11))

def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"nproc": run.NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(run.BENCH_DIR / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    out = {"machine": machine(),
           "thread_caps": {var: run.NPROC for var in run.THREAD_VARS},
           "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in names:
        metrics: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        notes, attempted, failed = [], [], []
        for seed in SEEDS:
            result, lines = one_run(name, seed, seconds, 0)
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            notes.append(next((ln for ln in lines if ln.startswith("# tail")), ""))
            for key, m in result["metrics"].items():
                metrics.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
            print(name, seed, {k: round(v[-1], 4) for k, v in metrics.items()}, flush=True)
        traced, trace_lines = one_run(name, SEEDS[0], seconds, 1)
        out["workloads"][name] = {
            "generator": " ".join(wl.BLOCKS[name].__doc__.split()),
            "end_to_end": {k: {"unit": units[k], **summary(v)} for k, v in metrics.items()},
            "attempted": attempted, "failed": failed, "tail_percentiles": notes,
            "traced": {"seed": SEEDS[0], "attempted": traced["attempted"],
                       "failed": traced["failed"], "summary": trace_lines,
                       "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}},
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        for k, v in out["workloads"][name]["end_to_end"].items():
            print(f"  {k:18s} median {v['median']:.5g} spread {v['spread']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
