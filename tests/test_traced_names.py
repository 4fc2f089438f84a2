"""The traced benchmark wraps thetasum functions by name; each must exist.

``benchmarks/bench_trace.py`` is loaded read-only from its file.  A function
that it names but the package no longer has fails here rather than in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace.py"


def _load_bench_trace():
    spec = importlib.util.spec_from_file_location("_bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_every_module_and_restores():
    bench_trace = _load_bench_trace()
    layers = ("qseries", "theta", "transform", "summation", "hermite", "cli")
    assert set(bench_trace.TRACED) == set(layers)
    modules = {layer: importlib.import_module(f"thetasum.{layer}") for layer in layers}
    originals = {
        (layer, name): getattr(modules[layer], name)
        for layer, names in bench_trace.TRACED.items()
        for name in names
    }
    tracer = bench_trace.Tracer()
    tracer.install(modules)
    try:
        for (layer, name), fn in originals.items():
            assert getattr(modules[layer], name).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(modules[layer], name) is fn
