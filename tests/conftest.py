"""Shared brute-force oracles (direct lattice enumeration, no series math),
a fresh interpreter for checks that must not see this session's imports,
and an empty term-builder cache for every test."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetasum import theta as th

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def empty_builder_cache():
    """Each test starts with no cached term builder, whatever ran before it."""
    th._clear_builders()


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports thetasum from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def lattice_counts(d: int, l_max: int) -> list[int]:
    """Number of integer vectors in Z^d with squared norm l, for l <= l_max."""
    m = math.isqrt(l_max)
    counts = [0] * (l_max + 1)
    for vec in itertools.product(range(-m, m + 1), repeat=d):
        n = sum(x * x for x in vec)
        if n <= l_max:
            counts[n] += 1
    return counts


def even_sum_counts(d: int, l_max: int) -> list[int]:
    """Same, restricted to vectors with even coordinate sum."""
    m = math.isqrt(l_max)
    counts = [0] * (l_max + 1)
    for vec in itertools.product(range(-m, m + 1), repeat=d):
        if sum(vec) % 2:
            continue
        n = sum(x * x for x in vec)
        if n <= l_max:
            counts[n] += 1
    return counts


def signed_counts(d: int, l_max: int) -> list[int]:
    """Counts weighted by (-1)^(coordinate sum)."""
    m = math.isqrt(l_max)
    counts = [0] * (l_max + 1)
    for vec in itertools.product(range(-m, m + 1), repeat=d):
        n = sum(x * x for x in vec)
        if n <= l_max:
            counts[n] += -1 if sum(vec) % 2 else 1
    return counts
