"""Tests of the benchmark itself: seeded inputs, span arithmetic, oracles.

Run with: python -m pytest benchmarks/test_benchmark.py
"""

import itertools
import json
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

import bench_oracles as orc
import bench_trace
import bench_workloads as wl
import run


def _inputs(workload, seed):
    return json.dumps(list(wl.blocks(workload, seed, 2)), sort_keys=True)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_generated_specs_keep_the_power_sum():
    for case in wl.blocks("verify", 3, 1)[0]:
        spec = case["spec"]
        assert 1.5 <= spec["dim_d"] <= 4.2
        for term in spec["terms"]:
            total = math.fsum(f["power"] for f in term["factors"])
            assert abs(total - spec["dim_d"]) < 1e-12


@pytest.mark.parametrize("places", [3, 4])
def test_fine_dimensions_are_in_lowest_terms_over_a_power_of_ten(places):
    rng = random.Random(0)
    for j in range(16):
        d = wl._dim(j, 16, rng=rng, places=places)
        exact = Fraction(round(d * 10 ** places), 10 ** places)
        assert 1.5 <= d <= 4.2
        assert exact.denominator == 10 ** places and float(exact) == d


def _span(name, start, end, parent, op=0, extra=None):
    return [name, start, end, parent, op, 0, 0, {} if extra is None else extra]


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 6.5, 0),
        _span("e", 11.0, 12.0, -1),
    ]
    assert bench_trace.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    # self times of a tree add up to its root durations
    assert sum(bench_trace.self_times(spans)) == pytest.approx(11.0)
    assert bench_trace.root_seconds(spans) == pytest.approx({0: 11.0})


def test_self_time_clips_overlapping_children():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 2.0, 6.0, 0), _span("c", 5.0, 12.0, 0)]
    assert bench_trace.self_times(spans)[0] == pytest.approx(2.0)


def test_build_ratios_from_a_synthetic_verify():
    b = lambda s, e, parent, n, key, op=0: _span(  # noqa: E731
        "theta.build", s, e, parent, op, {"coeffs": n, "key": key})
    spans = [
        _span("summation.verify", 0, 10, -1, extra={"L_used": 64, "L_star_used": 32}),
        _span("summation.lhs_sum", 0, 5, 0),
        b(0, 1, 1, 33, "zd@32"),
        b(1, 3, 1, 65, "zd@64"),
        _span("summation.rhs_sum", 5, 10, 0),
        b(5, 6, 4, 33, "zd@32"),
        b(7, 8, -1, 100, "table@99", op=1),
    ]
    m = bench_trace.layer_metrics(spans, n_ops=2, n_verify=1)
    assert m["theta.build.calls"] == 2.0
    assert m["theta.build.useful_ratio"] == pytest.approx((65 + 33 + 100) / 231)
    assert m["theta.build.repeat_share"] == pytest.approx(1 / 4)
    assert m["summation.orders_tried"] == 3.0
    assert m["summation.L_used"] == 64.0
    assert m["theta.build.self_ms"] == pytest.approx(1e3 * 5 / 2)
    assert m["trace.attributed_ms"] == pytest.approx(1e3 * 11 / 2)


def test_tracer_wraps_and_restores_module_functions():
    mod = types.SimpleNamespace(main=lambda x: x + 1)
    original = mod.main
    tracer = bench_trace.Tracer()
    tracer.install({"cli": mod})
    assert mod.main(1) == 2
    with pytest.raises(TypeError):
        mod.main(None)
    tracer.uninstall()
    assert mod.main is original
    assert [s[0] for s in tracer.spans] == ["cli.main", "cli.main"]
    assert tracer.spans[0][7] == {} and tracer.spans[1][7] is None


def test_tail_latency_keeps_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct = run.tail_latency(lat)
    assert value == 90 and pct == 90.0
    assert sum(x > value for x in lat) == 10


def test_class_medians_ignore_a_spell_shorter_than_half_the_blocks():
    # three blocks of two classes (10 ms and 30 ms); the middle block ran 3x slow
    lat = [0.010, 0.030, 0.030, 0.090, 0.011, 0.029]
    assert run.class_medians(lat, 2) == [0.011, 0.030, 0.011, 0.030, 0.011, 0.030]
    with pytest.raises(ValueError):
        run.class_medians(lat[:5], 2)


@pytest.mark.parametrize("family,counts", [
    ("zd", lambda d, n: orc.lattice_counts(d, n)),
    ("theta4d", lambda d, n: _signed_counts(d, n)),
])
def test_coefficient_oracle_matches_lattice_counts(family, counts):
    for d in (2, 3):
        spec = wl.make_spec(family, float(d))
        V, coeffs, _ = orc.coeff_oracle(spec, 40)
        assert V == 1
        assert [round(c, 9) for c in coeffs] == counts(d, 40)


def _signed_counts(d, l_max):
    m = math.isqrt(l_max)
    out = [0] * (l_max + 1)
    for vec in itertools.product(range(-m, m + 1), repeat=d):
        n = sum(x * x for x in vec)
        if n <= l_max:
            out[n] += -1 if sum(vec) % 2 else 1
    return out


def test_coefficient_oracle_agrees_with_itself_at_two_precisions():
    spec = {"dim_d": 2.6, "terms": [{"coeff": 1.0, "factors": [
        {"kind": 3, "power": 1.4, "scale": [1, 1]},
        {"kind": 4, "power": 1.2, "scale": [3, 1]}]}]}
    _, lo, _ = orc.coeff_oracle(spec, 600, bits=128)
    _, hi, scale = orc.coeff_oracle(spec, 600, bits=192)
    assert max(abs(a - b) / s for a, b, s in zip(lo, hi, scale)) < 1e-15


def test_theta_oracle_matches_lattice_sum_at_integer_d():
    spec = wl.make_spec("zd", 2.0)
    counts = orc.lattice_counts(2, 400)
    direct = math.fsum(c * math.exp(-0.3 * l) for l, c in enumerate(counts))
    assert orc.gauss_shell_sum(spec, [(1.0, 0, 0.3)]) == pytest.approx(direct, rel=1e-14)
    # r^2 e^{-a r^2}: the alpha-derivative route
    direct_k1 = math.fsum(c * l * math.exp(-0.3 * l) for l, c in enumerate(counts))
    assert orc.gauss_shell_sum(spec, [(1.0, 1, 0.3)]) == pytest.approx(direct_k1, rel=1e-12)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    tally = wl.Tally()
    tally.add(wl.Checked("ok", 12.0), "case")
    done = [({}, wl.Result(0.01))] * 3
    named, _ = run.end_to_end(done, 1, tally, 80.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in named.items()}
