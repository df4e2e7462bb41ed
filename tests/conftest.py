"""Shared fixtures and generators for the test suite."""

import random
from fractions import Fraction
from itertools import product

import pytest

from choremarket.enumeration import PATTERN_CAP, _agent_options
from choremarket.model import exchange_instance, fixed_earnings_instance


@pytest.fixture
def warmup():
    """2x2 fixed-earnings market with exactly two equilibrium price rays."""
    return fixed_earnings_instance(100, [[1, 3], [None, 1]], [1, 1])


def make_intro(L):
    """Symmetric 2x2 equal-endowment exchange market with cross cost L."""
    half = Fraction(1, 2)
    return exchange_instance(
        100, [[1, L], [L, 1]], [[half, half], [half, half]]
    )


@pytest.fixture
def intro():
    return make_intro(3)


@pytest.fixture
def example1():
    """Equal endowments; no equilibrium exists (first condition fails)."""
    return exchange_instance(100, [[1, None], [1, 2]], [[1, 1], [1, 1]])


@pytest.fixture
def example2():
    """Passes the component condition but not the connectivity condition."""
    half = Fraction(1, 2)
    return exchange_instance(
        100, [[1, None], [None, 1]], [[1, half], [0, half]]
    )


def random_conditioned_instance(rng: random.Random):
    """Random exchange instance satisfying both sufficiency conditions.

    Block-complete disutility components (at most 3, at most 6 chores in
    total) and strictly positive endowments everywhere, which makes the
    exchange graph complete and hence strongly connected.
    """
    sizes = []
    chores_left = 6
    for _ in range(rng.randint(1, 3)):
        nc = rng.randint(1, min(2, chores_left))
        sizes.append((rng.randint(1, 2), nc))
        chores_left -= nc
        if chores_left == 0:
            break
    total_agents = sum(a for a, _ in sizes)
    total_chores = sum(c for _, c in sizes)
    d = [[None] * total_chores for _ in range(total_agents)]
    a0 = c0 = 0
    for na, nc in sizes:
        for i in range(a0, a0 + na):
            for j in range(c0, c0 + nc):
                d[i][j] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a0 += na
        c0 += nc
    w = [
        [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(total_chores)]
        for _ in range(total_agents)
    ]
    return exchange_instance(100, d, w)


def covering_patterns(inst):
    """Every MPB pattern whose sets cover all chores, in agent-product order:
    the whole space that pattern search prunes, built without pruning."""
    options = _agent_options(inst, PATTERN_CAP)
    chores = frozenset(range(inst.m))
    return [p for p in product(*options) if frozenset().union(*p) == chores]


def fixed_earnings_twin(inst):
    """The fixed-earnings market with an exchange market's disutilities,
    its endowment row sums as earnings and its column sums as supplies."""
    return fixed_earnings_instance(
        inst.tau,
        inst.disutility,
        [sum(row) for row in inst.endowment],
        [sum(col) for col in zip(*inst.endowment)],
    )


#: Markets whose every covering pattern the pattern-program tests solve: the
#: four fixtures, the 50 seeds (by number) and each seed's fixed-earnings twin.
PATTERN_MARKETS = (
    ["warmup", "intro", "example1", "example2"]
    + list(range(50))
    + [f"twin{k}" for k in range(50)]
)


def pattern_market(name, request):
    """The market named in :data:`PATTERN_MARKETS`."""
    if isinstance(name, int):
        return random_conditioned_instance(random.Random(name))
    if name.startswith("twin"):
        return fixed_earnings_twin(random_conditioned_instance(random.Random(int(name[4:]))))
    return request.getfixturevalue(name)
