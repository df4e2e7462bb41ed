"""Exact search still finds the benchmark's reference rays.

``perfbench/reference_rays.json`` holds the condition verdict and the exact
equilibrium rays of every default-seed ``enum-seeds`` market: the four
fixtures and two value draws of the 50 conftest block structures.  This test
reads it, without changing it, and checks ``check_conditions`` and
``enumerate_equilibria`` against it on all of those markets.
"""

import sys
from fractions import Fraction
from pathlib import Path

import choremarket as cm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def test_enum_seeds_markets_match_the_reference_rays():
    workloads = _workloads()
    reference = workloads.load_reference()
    markets = workloads.market_instances(0)
    assert len(markets) == 104
    assert sorted(name for name, _ in markets) == sorted(reference)
    for name, inst in markets:
        expected = reference[name]
        assert cm.check_conditions(inst).ok == expected["conditions_ok"], name
        rays = {e.ray for e in cm.enumerate_equilibria(inst).equilibria}
        assert rays == {tuple(Fraction(x) for x in ray) for ray in expected["rays"]}, name
