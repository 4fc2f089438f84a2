"""Golden bits of ``verify``: a fixed set of reports, stored field by field as
``float.hex``, which every change to the shell sums must reproduce exactly.

``golden_verify.json`` was generated at commit 8ed4876, before the shell sums
learned to pick their order before evaluating the profile, by running this
file as a script
(``PYTHONPATH=src python tests/test_golden_bits.py --write``).  A change that is
meant to alter the bits regenerates it and says so; a speedup never does.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thetasum import summation as sm
from thetasum import theta as th
from thetasum import transform as tr

GOLDEN = Path(__file__).with_name("golden_verify.json")
FLOATS = ("lhs", "rhs", "residual", "tail_lhs", "tail_rhs", "error_budget", "tol")


def _mixed(p3, p4, scale):
    """theta3(q)^p3 theta4(q^scale)^p4, at d = p3 + p4."""
    factors = (th.ThetaFactor(3, p3, Fraction(1)), th.ThetaFactor(4, p4, Fraction(scale)))
    return th.ThetaSpec(terms=((1.0, factors),), dim_d=p3 + p4)


def _gauss(*terms):
    return tr.GaussPoly(tuple(terms))


def _cusp(r):
    return math.exp(-(r / 1.05) ** 3)


# (id, spec, profile, tol): the four families, GaussPoly profiles with
# k = 0, 1, 2 over alpha in [0.04, 20], and two Sampled profiles, one the cusp
CASES = [
    ("zd-2.5-k0", th.preset("zd", 2.5), _gauss((1.0, 0, 1.0)), 1e-10),
    ("zd-3-k1", th.preset("zd", 3.0), _gauss((1.0, 1, 0.3)), 1e-10),
    ("zd-1.7-k2", th.preset("zd", 1.7), _gauss((1.0, 2, 2.0), (0.3, 0, 4.0)), 1e-10),
    ("zd-4.2-wide", th.preset("zd", 4.2), _gauss((1.0, 0, 0.04)), 1e-10),
    ("zd-2.431-k1", th.preset("zd", 2.431), _gauss((1.0, 1, 12.7)), 1e-10),
    ("dd-2.4-k0", th.preset("dd", 2.4), _gauss((1.0, 0, 1.0)), 1e-10),
    ("dd-2.4131-k2", th.preset("dd", 2.4131), _gauss((1.0, 2, 0.5)), 1e-10),
    ("dd-3.7-k1", th.preset("dd", 3.7), _gauss((1.0, 1, 5.3), (-0.4, 2, 6.1)), 1e-10),
    ("dd-4.113-k2", th.preset("dd", 4.113), _gauss((1.0, 2, 11.33), (-0.31, 0, 13.52)), 1e-10),
    ("dd-1.9-wide", th.preset("dd", 1.9), _gauss((1.0, 0, 0.06)), 1e-6),
    ("theta4d-2-k0", th.preset("theta4d", 2.0), _gauss((1.0, 0, 0.7)), 1e-10),
    ("theta4d-2.7183-k1", th.preset("theta4d", 2.7183), _gauss((1.0, 1, 2.2)), 1e-10),
    ("theta4d-3.3-k2", th.preset("theta4d", 3.3), _gauss((1.0, 2, 20.0)), 1e-10),
    ("theta4d-1.53-k0", th.preset("theta4d", 1.53), _gauss((1.0, 0, 0.15), (0.2, 1, 0.17)), 1e-10),
    ("theta4d-3.9-k2", th.preset("theta4d", 3.9), _gauss((1.0, 2, 0.09)), 1e-10),
    ("mixed-1.7-0.8-3-k0", _mixed(1.7, 0.8, 3), _gauss((1.0, 0, 1.0), (0.3, 2, 2.0)), 1e-10),
    ("mixed-1.2-0.8-2-k1", _mixed(1.2, 0.8, 2), _gauss((1.0, 1, 0.8)), 1e-10),
    ("mixed-2.2-1.2-3-k2", _mixed(2.2, 1.2, 3), _gauss((1.0, 2, 4.0)), 1e-10),
    ("mixed-0.4-1.2-2-k0", _mixed(0.4, 1.2, 2), _gauss((1.0, 0, 0.25)), 1e-10),
    ("zd-0.3-k0", th.preset("zd", 0.3), _gauss((1.0, 0, 1.0)), 1e-10),
    ("dd-0.7-k1", th.preset("dd", 0.7), _gauss((1.0, 1, 0.3), (0.5, 0, 2.0)), 1e-10),
    ("theta4d-8-k0", th.preset("theta4d", 8.0), _gauss((1.0, 0, 1.3)), 1e-10),
    ("sampled-dd-2.5", th.preset("dd", 2.5),
     tr.Sampled(lambda r: math.exp(-1.3 * r * r), decay_hint=(1.0, 1.3)), 1e-8),
    ("sampled-cusp-zd-2", th.preset("zd", 2.0),
     tr.Sampled(_cusp, decay_hint=(1.2, 1.0 / 1.05 ** 2)), 2e-4),
]


def _fields(report) -> dict:
    out = {name: float.hex(getattr(report, name)) for name in FLOATS}
    out.update(L_used=report.L_used, L_star_used=report.L_star_used, passed=report.passed)
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_verify_reproduces_its_golden_bits(case):
    name, spec, f, tol = case
    assert _fields(sm.verify(spec, f, tol=tol)) == _golden()[name]


def test_golden_bits_cover_every_case():
    assert sorted(_golden()) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("python tests/test_golden_bits.py --write  regenerates golden_verify.json")
    golden = {name: _fields(sm.verify(spec, f, tol=tol)) for name, spec, f, tol in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
