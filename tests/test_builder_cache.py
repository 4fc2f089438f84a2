"""The process-wide cache of term builders and shell-sum sides: same numbers
warm or cold, safe under threads, and bounded in the bytes it holds."""

import contextlib
import math
import sys
import threading

import numpy as np
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


def arrays(side) -> list:
    """The arrays of a side, by name, without an ``at`` of None."""
    return [column for column in (side.A, side.N, side.radii, side.at) if column is not None]


def held() -> int:
    """Bytes of the cached entries, counted afresh: a builder's h and b, a
    side's arrays."""
    total = 0
    for entry in th._cache.values():
        if isinstance(entry, th._TermBuilder):
            total += 16 * entry.b.size
        else:
            total += sum(a.nbytes for a in arrays(entry))
    return total


def builders() -> list:
    return [entry for entry in th._cache.values() if isinstance(entry, th._TermBuilder)]


def sides() -> list:
    return [entry for entry in th._cache.values() if isinstance(entry, th.Side)]


def summed(spec, f, tol) -> tuple:
    """verify's report, and the bytes of the two sides it summed: the
    spec's at L_used and its dual's at L_star_used."""
    report = sm.verify(spec, f, tol)
    sides = (th.side(spec, report.L_used), th.side(th.dual(spec), report.L_star_used))
    return report, [column.tobytes() if isinstance(column, np.ndarray) else column
                    for side in sides for column in side]


def grow_every_term(spec):
    # e^{-0.01 r^2} runs the direct side to the order cap, and the transform
    # of e^{-1000 r^2} (rate pi^2/1000) the dual side
    for side, alpha in ((sm.lhs_sum, 0.01), (sm.rhs_sum, 1000.0)):
        with contextlib.suppress(ToleranceNotMet):
            side(spec, tr.GaussPoly(((1.0, 0, alpha),)), 1e-12)


@pytest.mark.parametrize("spec,f,tol", CASES)
def test_warm_cache_gives_the_cold_report(spec, f, tol):
    cold = summed(spec, f, tol)
    th._clear_builders()
    grow_every_term(spec)
    assert all(b.b.size - 1 >= 4096 // b.g for b in builders())
    assert summed(spec, f, tol) == cold


def test_reports_are_the_same_cold_warm_and_cleared_before_each():
    # the second pass finds every side of the first in the cache
    passes = [[summed(spec, f, tol) for spec, f, tol in CASES] for _ in range(2)]
    assert sides()
    cleared = []
    for spec, f, tol in CASES:
        th._clear_builders()
        cleared.append(summed(spec, f, tol))
    assert passes[0] == passes[1] == cleared


def test_a_warm_side_lists_builds_and_measures_nothing(monkeypatch):
    spec, f, tol = CASES[1]
    cold = sm.verify(spec, f, tol)

    def refuse(*args):
        raise AssertionError("a warm verify listed, built or measured again")

    monkeypatch.setattr(th, "shells", refuse)
    monkeypatch.setattr(th._TermBuilder, "coeffs", refuse)
    monkeypatch.setattr(th, "_coeff_growth", refuse)
    assert sm.verify(spec, f, tol) == cold


@pytest.mark.parametrize("case", CASES, ids=["zd", "dd", "theta4d", "dd-sampled"])
def test_a_warm_verify_makes_no_theta_factor(case, monkeypatch):
    # each spec's dual is kept for the process, so the dual side of a warm
    # verify makes no ThetaFactor or ThetaSpec and gives the cold report
    spec, f, tol = case
    cold = sm.verify(spec, f, tol)

    def refuse(self):
        raise AssertionError("a warm verify made a theta factor or spec")

    monkeypatch.setattr(th.ThetaFactor, "__post_init__", refuse)
    monkeypatch.setattr(th.ThetaSpec, "__post_init__", refuse)
    assert sm.verify(spec, f, tol) == cold


def test_side_arrays_are_read_only():
    spec, f, tol = CASES[1]  # dd: its two terms share every exponent
    side = th.side(spec, 64)
    assert side.at is not None and side.radii.size < side.A.size
    assert th.side(th.preset("zd", 2.5), 64).at is None
    L = sm.lhs_sum(spec, f, tol).L_used
    for column in (*arrays(side), *arrays(th.side(spec, L))):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1


def test_clear_builders_empties_the_sides():
    for spec, f, tol in CASES[:3]:
        sm.verify(spec, f, tol)
    assert sides() and builders()
    th._clear_builders()
    assert not th._cache and th._held == 0


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
    assert len(made) == len(set(made)) == len(builders())
    # the threads raced on the sides too: a side inserted twice would be
    # counted twice in the bytes held
    assert sides()
    assert th._held == held()


def test_sweep_stays_within_the_bound_and_evicts_least_recently_used_first():
    # each zd term built to order 4096 holds 16 * 4097 bytes, so 63 fit
    dims = [2.0 + k / 100 for k in range(80)]
    fit = th._CACHE_BYTES // (16 * 4097)
    for k, d in enumerate(dims):
        th.coeff_table(th.preset("zd", d), 4096)
        if k == fit - 1:
            # a use keeps the oldest entry against the next evictions
            th._builder(th.preset("zd", dims[0]).terms[0][1])
        assert th._held == held() <= th._CACHE_BYTES
    by_use = dims[1:fit] + dims[:1] + dims[fit:]
    assert [key[0].power for key in th._cache] == by_use[len(dims) - fit:]


def test_an_entry_larger_than_the_bound_is_kept_alone(monkeypatch):
    monkeypatch.setattr(th, "_CACHE_BYTES", 16 * 4096)
    for d in (2.0, 2.5):
        th.coeff_table(th.preset("zd", d), 1024)
    th.coeff_table(th.preset("theta4d", 3.0), 8192)
    assert [key[0].kind for key in th._cache] == [4]
    assert th._held == held() == 16 * 8193
    # the next entry evicts it
    th.coeff_table(th.preset("zd", 2.0), 16)
    assert [key[0].kind for key in th._cache] == [3]
    assert th._held == held() == 16 * 17


def test_a_builder_evicted_while_in_use_still_grows_and_is_not_counted(monkeypatch):
    monkeypatch.setattr(th, "_CACHE_BYTES", 16 * 4096)
    factors = th.preset("zd", 2.5).terms[0][1]
    evicted = th._builder(factors)
    th.coeff_table(th.preset("zd", 3.0), 4095)
    assert factors not in th._cache
    assert evicted.coeffs(64).size == 65
    assert th._held == held() == 16 * 4096


def test_a_verify_sweep_counts_every_byte_within_the_bound(monkeypatch):
    # a quarter of the bound, so the sides of the sweep evict builders and
    # sides alike; the dd and theta4d dims share no term with the zd ones
    monkeypatch.setattr(th, "_CACHE_BYTES", 2**20)
    specs = [th.preset(("zd", "dd", "theta4d")[k % 3], 2.0 + k / 10) for k in range(24)]
    for spec in specs:
        sm.verify(spec, tr.GaussPoly(((1.0, 0, 0.05),)), 1e-10)
        assert th._held == held() <= th._CACHE_BYTES
    # the first spec's builder and sides are gone, the last one's are kept
    side_dims = {key[1] for key, entry in th._cache.items() if isinstance(entry, th.Side)}
    assert specs[0].terms[0][1] not in th._cache and 2.0 not in side_dims
    assert specs[-1].terms[0][1] in th._cache and specs[-1].dim_d in side_dims


def order() -> list:
    """(kind, d) of the cached entries, least recently used first."""
    return [("side", key[1]) if isinstance(entry, th.Side) else ("builder", key[0].power)
            for key, entry in th._cache.items()]


def test_eviction_is_least_recently_used_across_builders_and_sides(monkeypatch):
    zd2, zd3 = th.preset("zd", 2.0), th.preset("zd", 3.0)
    th.side(zd2, 64)   # the builder of zd2, then its side
    th.side(zd3, 64)
    th._builder(zd2.terms[0][1])
    th.side(zd2, 64)   # found: no listing, only its use
    assert order() == [("builder", 3.0), ("side", 3.0), ("builder", 2.0), ("side", 2.0)]
    # at a bound of the bytes held, each new builder (16 bytes) evicts the
    # least recently used entry, whatever its kind
    monkeypatch.setattr(th, "_CACHE_BYTES", th._held)
    th._builder(th.preset("zd", 4.0).terms[0][1])  # zd3's builder goes
    assert order() == [("side", 3.0), ("builder", 2.0), ("side", 2.0), ("builder", 4.0)]
    monkeypatch.setattr(th, "_CACHE_BYTES", th._held)
    th._builder(th.preset("zd", 5.0).terms[0][1])  # then zd3's side
    assert order() == [("builder", 2.0), ("side", 2.0), ("builder", 4.0), ("builder", 5.0)]
    assert th._held == held() <= th._CACHE_BYTES
