"""The process-wide cache of term builders: same numbers warm or cold, safe
under threads, and bounded in the recurrence indices it holds."""

import contextlib
import math
import sys
import threading

import pytest

from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr
from thetasum.errors import ToleranceNotMet

CASES = [
    (th.preset("zd", 2.5), tr.GaussPoly(((1.0, 0, 1.0),)), 1e-10),
    (th.preset("dd", 2.4131), tr.GaussPoly(((1.0, 2, 0.7), (-0.31, 0, 1.9))), 1e-10),
    (th.preset("theta4d", 3.3), tr.GaussPoly(((1.0, 0, 0.3),)), 1e-10),
    (th.preset("dd", 3.0), tr.Sampled(lambda r: math.exp(-r * r), (1.0, 1.0)), 1e-8),
]


def held() -> int:
    """Recurrence indices of the cached builders, counted afresh."""
    return sum(builder.b.size for builder in th._cache.values())


def grow_every_term(spec):
    # e^{-0.01 r^2} runs the direct side to the order cap, and the transform
    # of e^{-1000 r^2} (rate pi^2/1000) the dual side
    for side, alpha in ((sm.lhs_sum, 0.01), (sm.rhs_sum, 1000.0)):
        with contextlib.suppress(ToleranceNotMet):
            side(spec, tr.GaussPoly(((1.0, 0, alpha),)), 1e-12)


@pytest.mark.parametrize("spec,f,tol", CASES)
def test_warm_cache_gives_the_cold_report(spec, f, tol):
    cold = sm.verify(spec, f, tol, with_table=True)
    th._clear_builders()
    grow_every_term(spec)
    assert all(b.b.size - 1 >= 4096 // b.g for b in th._cache.values())
    warm = sm.verify(spec, f, tol, with_table=True)
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize("round", range(3))
def test_threads_give_the_serial_reports(monkeypatch, round):
    # more threads than cores, switching often: a lost update would make a
    # term twice, or miscount the indices held
    serial = [sm.verify(spec, f, tol) for spec, f, tol in CASES]
    th._clear_builders()
    made = []
    init = th._TermBuilder.__init__

    def recording_init(self, factors):
        made.append(tuple(factors))
        init(self, factors)

    monkeypatch.setattr(th._TermBuilder, "__init__", recording_init)
    start = threading.Barrier(4)
    reports = [None] * 4

    def run(slot):
        start.wait()
        reports[slot] = [sm.verify(spec, f, tol) for spec, f, tol in CASES]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(got == serial for got in reports)
    assert len(made) == len(set(made)) == len(th._cache)
    assert th._held == held()


def test_sweep_stays_within_the_bound_and_evicts_least_recently_used_first():
    # each zd term built to order 4096 holds 4097 indices, so 63 fit
    dims = [2.0 + k / 100 for k in range(80)]
    fit = th._CACHE_INDICES // 4097
    for k, d in enumerate(dims):
        th.build(th.preset("zd", d), 4096)
        if k == fit - 1:
            # a use keeps the oldest entry against the next evictions
            th._builder(th.preset("zd", dims[0]).terms[0][1])
        assert th._held == held() <= th._CACHE_INDICES
    by_use = dims[1:fit] + dims[:1] + dims[fit:]
    assert [key[0].power for key in th._cache] == by_use[len(dims) - fit:]


def test_an_entry_larger_than_the_bound_is_kept_alone(monkeypatch):
    monkeypatch.setattr(th, "_CACHE_INDICES", 4096)
    for d in (2.0, 2.5):
        th.build(th.preset("zd", d), 1024)
    th.build(th.preset("theta4d", 3.0), 8192)
    assert [key[0].kind for key in th._cache] == [4]
    assert th._held == held() == 8193
    # the next entry evicts it
    th.build(th.preset("zd", 2.0), 16)
    assert [key[0].kind for key in th._cache] == [3]
    assert th._held == held() == 17


def test_a_builder_evicted_while_in_use_still_grows_and_is_not_counted(monkeypatch):
    monkeypatch.setattr(th, "_CACHE_INDICES", 4096)
    factors = th.preset("zd", 2.5).terms[0][1]
    evicted = th._builder(factors)
    th.build(th.preset("zd", 3.0), 4095)
    assert factors not in th._cache
    assert evicted.coeffs(64).size == 65
    assert th._held == held() == 4096
