"""Equilibrium verification, fairness, and Pareto checks."""

import functools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from choremarket import lp, model, polymatrix, sat_reduction
from choremarket.lp import _ZERO
from choremarket.enumeration import enumerate_equilibria
from choremarket.errors import DimensionMismatch, Infeasible, Malformed
from choremarket.model import (
    EXACT,
    FLOAT,
    EquilibriumCandidate,
    Instance,
    agent_budget,
    candidate_from_json,
    candidate_to_json,
    exchange_instance,
    fixed_earnings_instance,
)
from choremarket.polymatrix import build_polymatrix_gadget
from choremarket.polymatrix import gadget_from_json as polymatrix_gadget_from_json
from choremarket.polymatrix import gadget_to_json as polymatrix_gadget_to_json
from choremarket.sat_reduction import (
    CNFFormula,
    SATGadgetParams,
    assignment_to_equilibrium,
    build_sat_gadget,
)
from choremarket.sat_reduction import gadget_from_json as sat_gadget_from_json
from choremarket.sat_reduction import gadget_to_json as sat_gadget_to_json
from choremarket.verification import (
    POS_TOL,
    PairComparison,
    VerificationReport,
    check_pareto,
    disutility_profile,
    fairness_report,
    mpb_sets,
    verify_equilibrium,
)

from conftest import fixed_earnings_twin, random_conditioned_instance
from test_polymatrix import GAME2, synthetic_endpoint_prices

F = Fraction


def warmup_candidate_flat():
    # Prices (1, 1): each agent does its own chore.
    return EquilibriumCandidate((F(1), F(1)), ((1, 0), (0, 1)))


def warmup_candidate_tilted():
    # Prices (1/2, 3/2): agent 0 ties on both chores.
    return EquilibriumCandidate(
        (F(1, 2), F(3, 2)),
        ((1, F(1, 3)), (0, F(2, 3))),
    )


class TestMpbSets:
    def test_strict_minimum(self, warmup):
        sets = mpb_sets(warmup, (F(1), F(1)))
        assert sets[0].members == {0} and sets[0].ratio == 1
        assert sets[1].members == {1}

    def test_tie(self, warmup):
        sets = mpb_sets(warmup, (F(1, 2), F(3, 2)))
        assert sets[0].members == {0, 1} and sets[0].ratio == 2

    def test_zero_price_chore_never_member(self, warmup):
        sets = mpb_sets(warmup, (F(0), F(1)))
        assert sets[0].members == {1}

    def test_all_zero_prices_degenerate(self, warmup):
        sets = mpb_sets(warmup, (F(0), F(0)))
        assert sets[0].members == frozenset() and sets[0].degenerate

    def test_exact_sets_ignore_near_ties(self, warmup):
        # Agent 0's ratios are 2 and just under 2: no band on Fractions.
        prices = (F(1, 2), F(3, 2) + F(1, 10**12))
        sets = mpb_sets(warmup, prices, tol=0)
        assert sets == mpb_sets(warmup, prices)
        assert sets[0].members == {1}
        assert sets[0].ratio == 3 / prices[1]

    def test_float_tie_band(self, warmup):
        # Agent 0's ratios: 1.0 on chore 0, 1 / (1 + 1e-7) on chore 1.
        prices = (1.0, 3.0 * (1 + 1e-7))
        assert mpb_sets(warmup, prices, tol=1e-6)[0].members == {0, 1}
        assert mpb_sets(warmup, prices, tol=1e-8)[0].members == {1}
        assert mpb_sets(warmup, prices)[0].members == {1}
        assert mpb_sets(warmup, prices, tol=1e-6)[0].ratio == 3 / prices[1]


    def test_float_prices_match_fraction_division(self):
        # The float path must give what dividing each Fraction disutility
        # by the float price gives, sets and ratios bit for bit.
        def reference(inst, prices, tol):
            out = []
            for i in range(inst.n):
                ratios = {
                    j: inst.disutility[i][j] / prices[j]
                    for j in inst.finite_chores(i)
                    if prices[j] > 0
                }
                if not ratios:
                    out.append((frozenset(), None, bool(inst.finite_chores(i))))
                    continue
                best = min(ratios.values())
                bound = best * (1 + tol) if tol else best
                members = frozenset(j for j, r in ratios.items() if r <= bound)
                out.append((members, best, False))
            return out

        rng = random.Random(5)
        for seed in range(50):
            inst = random_conditioned_instance(random.Random(seed))
            agent = rng.randrange(inst.n)
            near_tie = [
                0.37 * float(d) * (1 + rng.choice([0, 1e-10, 1e-7])) if d else 1.0
                for d in inst.disutility[agent]
            ]
            draws = [near_tie, [rng.random() for _ in range(inst.m)]]
            draws.append([0.0] + [rng.random() for _ in range(inst.m - 1)])
            for prices in draws:
                for tol in (0, 1e-9, 1e-6):
                    for given in (np.array(prices), tuple(prices)):
                        got = [
                            (s.members, s.ratio, s.degenerate)
                            for s in mpb_sets(inst, given, tol)
                        ]
                        assert got == reference(inst, given, tol)

    def test_exact_prices_match_fraction_division(self):
        # The integer path must give what dividing each Fraction disutility
        # by each price gives: sets, ratios (as Fractions) and flags.
        def reference(inst, prices):
            out = []
            for i in range(inst.n):
                ratios = {
                    j: inst.disutility[i][j] / prices[j]
                    for j in inst.finite_chores(i)
                    if prices[j] > 0
                }
                if not ratios:
                    out.append((frozenset(), None, bool(inst.finite_chores(i))))
                    continue
                best = min(ratios.values())
                out.append((frozenset(j for j, r in ratios.items() if r == best), best, False))
            return out

        def nudged(inst, prices, sets, rng):
            # One agent's chore priced onto its MPB ratio (a tie made), and
            # one of its members priced a thousandth up and down (a tie
            # broken, or the member dropped).
            i = rng.randrange(inst.n)
            if sets[i].ratio is None:
                return
            d = inst.disutility[i]
            for j in inst.finite_chores(i):
                if j not in sets[i].members:
                    yield prices[:j] + [d[j] / sets[i].ratio] + prices[j + 1:]
                    break
            j = rng.choice(sorted(sets[i].members))
            for step in (F(1001, 1000), F(999, 1000)):
                yield prices[:j] + [prices[j] * step] + prices[j + 1:]

        def variants(inst, prices, rng):
            yield prices
            yield from nudged(inst, prices, mpb_sets(inst, prices), rng)
            j = rng.randrange(inst.m)
            yield prices[:j] + [F(0)] + prices[j + 1:]
            yield prices[:j] + [-prices[j]] + prices[j + 1:]
            yield [F(0)] * inst.m
            yield [0] * inst.m
            scale = lcm(*(p.denominator for p in prices))
            yield [int(p * scale) for p in prices]
            yield [int(p) if p.denominator == 1 else p for p in prices]

        rng = random.Random(31)
        cases = list(_seed_hits((F(0), F(1, 10))))
        ties = zeros = ints = 0
        for inst, hit, _ in cases:
            for prices in variants(inst, list(hit.prices), rng):
                got = mpb_sets(inst, prices)
                assert [(s.members, s.ratio, s.degenerate) for s in got] == reference(
                    inst, prices
                )
                assert all(s.ratio is None or type(s.ratio) is Fraction for s in got)
                ties += any(len(s.members) > 1 for s in got)
                zeros += any(s.degenerate for s in got)
                ints += int in map(type, prices)
        assert len(cases) == 316
        assert ties and zeros and ints


class TestVerify:
    def test_warmup_equilibria_pass(self, warmup):
        for cand in (warmup_candidate_flat(), warmup_candidate_tilted()):
            assert verify_equilibrium(warmup, cand).ok

    def test_non_mpb_flow_fails(self, warmup):
        cand = EquilibriumCandidate(
            (F(1), F(1)),
            ((F(1, 2), F(1, 2)), (0, F(1, 2))),
        )
        report = verify_equilibrium(warmup, cand)
        assert not report.mpb_ok and not report.ok

    def test_forbidden_chore_fails(self, warmup):
        cand = EquilibriumCandidate(
            (F(1), F(1)), ((1, 0), (F(1, 2), F(1, 2)))
        )
        report = verify_equilibrium(warmup, cand)
        assert not report.threshold_ok

    def test_budget_shortfall_fails(self, warmup):
        cand = EquilibriumCandidate((F(1), F(1)), ((F(1, 2), 0), (0, 1)))
        report = verify_equilibrium(warmup, cand)
        assert not report.budget_ok

    def test_unfinished_chore_fails(self, warmup):
        cand = EquilibriumCandidate((F(2), F(1)), ((F(1, 2), 0), (0, 1)))
        report = verify_equilibrium(warmup, cand)
        assert not report.clearing_ok

    def test_zero_price_fails(self):
        inst = fixed_earnings_instance(10, [[1, 1]], [0])
        cand = EquilibriumCandidate((F(0), F(1)), ((0, 0),))
        report = verify_equilibrium(inst, cand)
        assert not report.mpb_ok

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("edge, outward", [(F(9, 10), -1), (F(10, 9), 1)], ids=["lo", "hi"])
    def test_epsilon_band_relaxes_clearing(self, warmup, mode, edge, outward):
        # At epsilon 1/10 chore 0's band is [9/10, 10/9].  Agent 0 does an
        # edge of it, or one step past (a step above the float clearing
        # slack of 1e-7), at the price that pays its budget exactly.
        def report(done, epsilon):
            prices, allocation = (1 / done, F(1)), ((done, 0), (0, 1))
            if mode == FLOAT:
                prices, allocation = tuple(map(float, prices)), ((float(done), 0.0), (0.0, 1.0))
            return verify_equilibrium(warmup, EquilibriumCandidate(prices, allocation, mode), epsilon)

        assert not report(edge, F(0)).clearing_ok
        assert report(edge, F(1, 10)).ok
        past = report(edge + outward * F(1, 10**6), F(1, 10))
        assert (past.mpb_ok, past.budget_ok, past.clearing_ok) == (True, True, False)

    def test_bool_prices_are_not_an_exact_candidate(self):
        # True == 1, so [True, True] would pass as the prices (1, 1).
        inst = fixed_earnings_instance(100, [[1, 3], [3, 1]], [1, 1])
        assert verify_equilibrium(inst, EquilibriumCandidate((1, 1), ((1, 0), (0, 1)))).ok
        with pytest.raises(Malformed, match="exact candidate entries"):
            EquilibriumCandidate((True, True), ((1, 0), (0, 1)))

    def test_epsilon_validated(self, warmup):
        with pytest.raises(Malformed):
            verify_equilibrium(warmup, warmup_candidate_flat(), epsilon=F(1))

    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), -1, pytest.param(10**400, id="huge-int"), "1", True]
    )
    @pytest.mark.parametrize("name", ["tol_mpb", "tol_clearing"])
    def test_bad_tolerance_is_malformed(self, warmup, name, tol):
        # With NaN tolerances every float comparison is false, and this
        # all-zero allocation would pass.
        cand = EquilibriumCandidate((1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), mode="float")
        assert not verify_equilibrium(warmup, cand).ok
        with pytest.raises(Malformed, match="tolerance must be"):
            verify_equilibrium(warmup, cand, **{name: tol})

    def test_float_mode_tolerances(self, warmup):
        cand = EquilibriumCandidate(
            (1.0, 1.0 + 1e-12),
            ((1.0, 0.0), (0.0, 1.0 - 1e-10)),
            mode="float",
        )
        assert verify_equilibrium(warmup, cand).ok

    def test_budget_violation_names_the_earnings(self, warmup):
        # An all-zero row earns the sum of its zeros: 0 exact, 0.0 in float mode.
        exact = EquilibriumCandidate((F(1), F(2)), ((0, 0), (0, F(1, 4))))
        floats = EquilibriumCandidate((1.0, 2.0), ((0.0, 0.0), (0.0, 0.25)), mode="float")
        for cand, earned in ((exact, ("0", "1/2")), (floats, ("0.0", "0.5"))):
            violations = verify_equilibrium(warmup, cand).violations
            assert violations[:2] == (
                f"agent 0 earns {earned[0]} but owes 1",
                f"agent 1 earns {earned[1]} but owes 1",
            )

    def test_budget_violation_names_a_zero_budget(self):
        # Agent 1 owns nothing: it owes 0 at exact prices and 0.0 at float ones.
        inst = exchange_instance(100, [[1, 1], [1, 1]], [[1, 1], [0, 0]])
        exact = EquilibriumCandidate((F(1), F(1)), ((F(1, 2), 0), (F(1, 2), 1)))
        floats = EquilibriumCandidate((1.0, 1.0), ((0.5, 0.0), (0.5, 1.0)), mode="float")
        for cand, owed in ((exact, ("2", "0")), (floats, ("2.0", "0.0"))):
            violations = verify_equilibrium(inst, cand).violations
            assert violations[:2] == (
                f"agent 0 earns {cand.allocation[0][0] * cand.prices[0]} but owes {owed[0]}",
                f"agent 1 earns {cand.allocation[1][0] + cand.allocation[1][1]} but owes {owed[1]}",
            )

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_violation_order(self, warmup, mode):
        # Cell lines in row order, then budget lines, then clearing lines.
        half = F(1, 2) if mode == "exact" else 0.5
        one = F(1) if mode == "exact" else 1.0
        cand = EquilibriumCandidate((one, one), ((half, half), (half, 0 * one)), mode=mode)
        assert verify_equilibrium(warmup, cand).violations == (
            "agent 0 does non-MPB chore 1",
            "agent 1 does forbidden chore 0",
            f"agent 1 earns {half} but owes 1",
            f"chore 1: {half} done of supply 1",
        )

    def test_float_mode_catches_real_violations(self, warmup):
        cand = EquilibriumCandidate(
            (1.0, 1.0), ((0.5, 0.0), (0.0, 1.0)), mode="float"
        )
        report = verify_equilibrium(warmup, cand)
        assert not report.budget_ok and not report.clearing_ok


class TestNegativeEntries:
    """A negative allocation entry fails clearing, named by agent and chore,
    even where every budget and every chore total balances: here agent 0
    "does" -1/2 of its forbidden chore 1."""

    INST = fixed_earnings_instance(100, [[1, None], [1, 1]], [1, 1])
    NEGATIVE = (
        "agent 0 does negative amount {} of chore 1",
        "agent 1 does negative amount {} of chore 0",
    )

    def test_exact(self):
        cand = EquilibriumCandidate((F(1), F(1)), ((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))))
        report = verify_equilibrium(self.INST, cand)
        assert report.mpb_ok and report.threshold_ok and report.budget_ok
        assert not report.clearing_ok and not report.ok
        assert report.violations == tuple(v.format("-1/2") for v in self.NEGATIVE)

    def test_float(self):
        cand = EquilibriumCandidate((1.0, 1.0), ((1.5, -0.5), (-0.5, 1.5)), mode="float")
        report = verify_equilibrium(self.INST, cand)
        assert not report.clearing_ok
        assert report.violations == tuple(v.format("-0.5") for v in self.NEGATIVE)

    def test_float_noise_within_pos_tol_passes(self):
        tiny = POS_TOL / 2
        noisy = ((1.0, -tiny), (-tiny, 1.0))
        cand = EquilibriumCandidate((1.0, 1.0), noisy, mode="float")
        assert verify_equilibrium(self.INST, cand).ok


def _reference_verify(inst, cand, epsilon):
    """The exact conditions of :func:`verify_equilibrium` by Fraction
    arithmetic on the candidate's own entries: the reference the integer
    check must match, report for report."""
    violations = []
    mpb_ok = threshold_ok = budget_ok = clearing_ok = True
    prices = cand.prices
    for j, pj in enumerate(prices):
        if pj <= 0:
            mpb_ok = False
            violations.append(f"chore {j} has non-positive price")
    sets = mpb_sets(inst, prices) if mpb_ok else None
    earned = [F(0)] * inst.n
    done = [F(0)] * inst.m
    for i, row in enumerate(cand.allocation):
        for j, x in enumerate(row):
            if not x:
                continue
            earned[i] += x * prices[j]
            done[j] += x
            if x < 0:
                clearing_ok = False
                violations.append(f"agent {i} does negative amount {x} of chore {j}")
            elif inst.disutility[i][j] is None:
                threshold_ok = False
                violations.append(f"agent {i} does forbidden chore {j}")
            elif sets is not None and j not in sets[i].members:
                mpb_ok = False
                violations.append(f"agent {i} does non-MPB chore {j}")
    for i, earned_i in enumerate(earned):
        budget = agent_budget(inst, i, prices)
        if earned_i != budget:
            budget_ok = False
            violations.append(f"agent {i} earns {earned_i} but owes {budget}")
    for j, (supply, done_j) in enumerate(zip(inst.supplies, done)):
        if not (1 - epsilon) * supply <= done_j <= supply / (1 - epsilon):
            clearing_ok = False
            violations.append(f"chore {j}: {done_j} done of supply {supply}")
    return VerificationReport(
        mpb_ok, threshold_ok, budget_ok, clearing_ok, F(epsilon), EXACT, tuple(violations)
    )


def _seed_hits(epsilons):
    """``(inst, candidate, epsilon)`` of every hit of the 50 conftest seeds
    and their fixed-earnings twins at each of ``epsilons``."""
    for k in range(50):
        base = random_conditioned_instance(random.Random(k))
        for inst in (base, fixed_earnings_twin(base)):
            for epsilon in epsilons:
                for e in enumerate_equilibria(inst, epsilon).equilibria:
                    yield inst, e.candidate, epsilon


def _planted_sat_hits():
    """The planted equilibria of a two-clause SAT gadget, one per
    satisfying assignment."""
    gadget = build_sat_gadget(CNFFormula(3, [(1, 2, 3), (-1, -2, 3)]))
    for assignment in [(True, True, True), (False, False, True), (False, True, False)]:
        yield gadget.instance, assignment_to_equilibrium(gadget, assignment), F(0)


def _variants(inst, cand, rng):
    """The candidate and copies of it with one price scaled, a cell bumped,
    a negative cell, a forbidden cell (when the market has one), a zero
    price, and its integral entries as ints."""
    prices = list(cand.prices)
    rows = [list(row) for row in cand.allocation]

    def with_price(j, value):
        return EquilibriumCandidate(prices[:j] + [value] + prices[j + 1:], rows)

    def with_cell(i, j, value):
        changed = [row[:] for row in rows]
        changed[i][j] = value
        return EquilibriumCandidate(prices, changed)

    yield cand
    j = rng.randrange(inst.m)
    yield with_price(j, prices[j] * F(3, 2))
    i, j = rng.choice([(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x])
    yield with_cell(i, j, rows[i][j] + F(1, 7))
    yield with_cell(rng.randrange(inst.n), rng.randrange(inst.m), F(-1, 3))
    forbidden = [
        (i, j) for i, row in enumerate(inst.disutility) for j, d in enumerate(row) if d is None
    ]
    if forbidden:
        yield with_cell(*rng.choice(forbidden), F(1, 2))
    yield with_price(rng.randrange(inst.m), F(0))

    def integral(x):
        return int(x) if x.denominator == 1 else x

    yield EquilibriumCandidate(
        [integral(p) for p in prices], [[integral(x) for x in row] for row in rows]
    )


class TestExactParity:
    """The integer exact check returns the reference's report: the same
    flags and the same violations in the same order."""

    def test_seed_hits_and_perturbations(self):
        rng = random.Random(29)
        cases = list(_seed_hits((F(0), F(1, 10)))) + list(_planted_sat_hits())
        reports = []
        for inst, hit, epsilon in cases:
            assert verify_equilibrium(inst, hit, epsilon).ok
            for cand in _variants(inst, hit, rng):
                report = verify_equilibrium(inst, cand, epsilon)
                assert report == _reference_verify(inst, cand, epsilon)
                reports.append(report)
        assert len(cases) == 316 + 3
        # Every condition fails somewhere.
        for flag in ("mpb_ok", "threshold_ok", "budget_ok", "clearing_ok"):
            assert not all(getattr(r, flag) for r in reports), flag

    def test_mixed_int_and_fraction_entries(self, warmup):
        # The tilted warmup equilibrium with int 1 and 0 cells, then with its
        # int cell doubled and a cell made negative.
        for epsilon in (F(0), F(1, 10)):
            for cand in (
                warmup_candidate_tilted(),
                EquilibriumCandidate((F(1, 2), 3), ((2, F(1, 3)), (0, F(2, 3)))),
                EquilibriumCandidate((1, F(1, 2)), ((1, -1), (F(-1, 2), 2))),
            ):
                assert verify_equilibrium(warmup, cand, epsilon) == _reference_verify(
                    warmup, cand, epsilon
                )

    def test_integer_form_leaves_equality_and_hash(self):
        # Every cached property of an instance, filled, stays out of its
        # equality and hash.
        caches = [
            name
            for name, value in vars(Instance).items()
            if isinstance(value, functools.cached_property)
        ]
        assert {"supplies", "_integer_rows", "_integer_budgets"} <= set(caches)
        for make in (
            lambda: random_conditioned_instance(random.Random(3)),
            lambda: fixed_earnings_twin(random_conditioned_instance(random.Random(3))),
        ):
            filled, fresh = make(), make()
            for name in caches:
                getattr(filled, name)
                assert name in vars(filled) and name not in vars(fresh)
            assert filled == fresh and hash(filled) == hash(fresh)

    def test_exact_check_fills_the_integer_form(self):
        # The exact check reads the market through its integer form (the
        # MPB sets through the disutility rows, the budgets through the
        # integer budgets) and its supplies, and fills no other cache.
        inst = exchange_instance(100, [[1, 3], [3, 1]], [[1, 1], [1, 1]])
        cand = EquilibriumCandidate((F(1), F(1)), ((2, 0), (0, 2)))
        assert verify_equilibrium(inst, cand).ok
        filled = {
            name
            for name, value in vars(Instance).items()
            if isinstance(value, functools.cached_property) and name in vars(inst)
        }
        assert filled == {"supplies", "_integer_rows", "_integer_budgets"}


_COUNTED = ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_exact_verification_makes_no_fraction_arithmetic(monkeypatch):
    """A passing exact check at ``epsilon = 0`` on every hit of the seeds
    and their twins adds, multiplies and divides no Fraction, its MPB sets
    included."""
    hits = list(_seed_hits((F(0),)))
    calls = {"count": 0}

    def counting(original):
        def counted(self, other):
            calls["count"] += 1
            return original(self, other)

        return counted

    for name in _COUNTED:
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    for inst, cand, epsilon in hits:
        assert verify_equilibrium(inst, cand, epsilon).ok
    assert calls["count"] == 0
    # The counters see the reference's Fraction sums.
    _reference_verify(*hits[0])
    assert calls["count"] > 0


def _with_zero(cand, zero):
    """The candidate with every shared-zero entry replaced by ``zero``."""
    swap = lambda values: [zero if x is _ZERO else x for x in values]
    return EquilibriumCandidate(swap(cand.prices), [swap(row) for row in cand.allocation])


def test_exact_check_does_not_depend_on_the_shared_zero():
    # The planted SAT equilibria, zeros shared, and their perturbations give
    # the same report when every zero is a fresh Fraction(0) or an int 0.
    rng = random.Random(32)
    seen = 0
    for inst, hit, epsilon in _planted_sat_hits():
        for cand in _variants(inst, hit, rng):
            shared = _with_zero(cand, _ZERO)
            if not any(x is _ZERO for row in shared.allocation for x in row):
                continue
            want = verify_equilibrium(inst, shared, epsilon)
            for zero in (F(0), 0):
                assert verify_equilibrium(inst, _with_zero(shared, zero), epsilon) == want
                assert candidate_to_json(_with_zero(shared, zero)) == candidate_to_json(shared)
            seen += not want.ok
    assert seen >= 3 * 4  # failing variants too, not only the hits


class _Sub(Fraction):
    """A Fraction subclass: the exact candidate's type-set test misses it,
    so it takes the per-entry test."""


def test_exact_candidate_of_fraction_subclasses_verifies_as_its_twin():
    # Every entry of the planted SAT equilibria and their perturbations
    # (zero and scaled prices, negative and forbidden cells among them) as
    # a subclass instance gives the plain candidate's report.
    rng = random.Random(33)
    for inst, hit, epsilon in _planted_sat_hits():
        for cand in _variants(inst, hit, rng):
            twin = EquilibriumCandidate(
                [_Sub(x) for x in cand.prices], [[_Sub(x) for x in row] for row in cand.allocation]
            )
            assert verify_equilibrium(inst, twin, epsilon) == verify_equilibrium(inst, cand, epsilon)
    for bad in (True, False):
        with pytest.raises(Malformed, match="exact candidate entries must be rational numbers"):
            EquilibriumCandidate((_Sub(1, 2), bad), ((_Sub(1), 0),))


@pytest.mark.parametrize(
    "mode, prices, allocation",
    [
        (EXACT, [F(-1, 2), F(0), F(1), _ZERO, 0], [[0, 0, 0, 0, 1]]),
        (FLOAT, [-0.5, 0.0, 1.0, -0.0, 0.0], [[0.0, 0.0, 0.0, 0.0, 1.0]]),
    ],
)
def test_price_positivity_keeps_its_messages_and_order(monkeypatch, mode, prices, allocation):
    # An exact price's sign is read off its numerator: no price takes part
    # in a Fraction comparison, and the violations are the same, in chore
    # order.
    inst = fixed_earnings_instance(10, [[1] * 5], [1])
    cand = EquilibriumCandidate(prices, allocation, mode=mode)
    calls = {"count": 0}

    def counting(original):
        def counted(self, other):
            calls["count"] += any(self is p for p in prices)
            return original(self, other)

        return counted

    for name in ("__le__", "__lt__", "__ge__", "__gt__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    report = verify_equilibrium(inst, cand)
    assert not report.mpb_ok
    assert [v for v in report.violations if "price" in v] == [
        f"chore {j} has non-positive price" for j in (0, 1, 3, 4)
    ]
    if mode == EXACT:
        assert calls["count"] == 0


def _planted_formula(rng, num_vars, num_clauses):
    """A random 3-CNF formula and a random assignment that satisfies it."""
    assignment = [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    while len(clauses) < num_clauses:
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, num_vars + 1), 3))
        if any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return CNFFormula(num_vars, clauses), assignment


def _nonzero(*matrices):
    return sum(1 for rows in matrices for row in rows for x in row if x is not None and x != 0)


_GUARDED = ("__bool__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _gadget_steps():
    """``(gadget, candidate, steps)`` for the 12 x 20 planted SAT gadget and
    GAME2's gadget: each step builds, encodes, reads back or verifies."""
    formula, assignment = _planted_formula(random.Random(12), 12, 20)
    sat = build_sat_gadget(formula)
    sat_cand = assignment_to_equilibrium(sat, assignment)
    yield sat, sat_cand, {
        "build": lambda: build_sat_gadget(formula),
        "equilibrium": lambda: assignment_to_equilibrium(sat, assignment),
        "encode": lambda: (sat_gadget_to_json(sat), candidate_to_json(sat_cand)),
        "read back": lambda: sat_gadget_from_json(sat_gadget_to_json(sat)),
        "verify": lambda: verify_equilibrium(sat.instance, sat_cand),
    }
    game = build_polymatrix_gadget(GAME2)
    doc = candidate_to_json(synthetic_endpoint_prices(game, (1, -1), mode="exact"))
    game_cand = candidate_from_json(doc)  # its zeros decode to the shared zero
    yield game, game_cand, {
        "build": lambda: build_polymatrix_gadget(GAME2),
        "encode": lambda: (polymatrix_gadget_to_json(game), candidate_to_json(game_cand)),
        "read back": lambda: polymatrix_gadget_from_json(polymatrix_gadget_to_json(game)),
        "verify": lambda: verify_equilibrium(game.instance, game_cand),
    }


def test_gadget_paths_make_no_fraction_call_per_zero_entry(monkeypatch):
    """Building, validating, encoding, reading back and exactly verifying
    the two gadgets truth-test or compare Fractions at most once per
    nonzero entry per step, and validating a market never does."""
    cases = list(_gadget_steps())
    calls = {"count": 0}

    def counting(original):
        def counted(*args):
            calls["count"] += 1
            return original(*args)

        return counted

    def run(step):
        calls["count"] = 0
        step()
        return calls["count"]

    for name in _GUARDED:
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    for gadget, cand, steps in cases:
        inst = gadget.instance
        market = (inst.disutility, inst.endowment or (inst.earning, inst.supply))
        entries = _nonzero(*market, (cand.prices,), cand.allocation)
        assert inst.n * inst.m > 5 * entries  # mostly None and zeros
        counts = {name: run(step) for name, step in steps.items()}
        assert all(count <= entries for count in counts.values()), (counts, entries)
        assert run(lambda: Instance(
            inst.variant, inst.tau, inst.disutility,
            endowment=inst.endowment, earning=inst.earning, supply=inst.supply,
        )) == 0
        # The counters see a reference loop: a truth test per cell, and a
        # comparison with tau per finite disutility.
        assert run(lambda: [x for row in cand.allocation for x in row if x]) == inst.n * inst.m
        finite = sum(d is not None for row in inst.disutility for d in row)
        assert run(
            lambda: [d < inst.tau for row in inst.disutility for d in row if d is not None]
        ) == finite


def _count_to_fraction(monkeypatch):
    """A counter of :func:`~choremarket.model.to_fraction` calls, in every
    module that reads values with it."""
    calls = {"count": 0}

    def counted(value):
        calls["count"] += 1
        return original(value)

    original = model.to_fraction
    for module in (model, sat_reduction, polymatrix):
        monkeypatch.setattr(module, "to_fraction", counted)
    return calls


def test_gadget_builders_read_no_entry_again(monkeypatch):
    """The builders hand their Fractions straight to ``Instance``: building
    the 12 x 20 planted SAT gadget and GAME2's gadget reads at most the
    params' own fields with ``to_fraction``, not one entry per cell."""
    cases = list(_gadget_steps())
    calls = _count_to_fraction(monkeypatch)
    for gadget, _, steps in cases:
        params = gadget.params
        fields = 4 if isinstance(params, SATGadgetParams) else len(params.alpha) * 2 + 1
        calls["count"] = 0
        steps["build"]()
        assert calls["count"] <= fields < gadget.instance.n * gadget.instance.m // 100
    # The counter sees the plain-data builders' per-entry reads.
    calls["count"] = 0
    inst = cases[1][0].instance
    exchange_instance(inst.tau, inst.disutility, inst.endowment)
    assert calls["count"] > inst.n * inst.m


def test_gadget_builders_validate_their_market(monkeypatch):
    # Each builder's market goes through every check of Instance.__post_init__.
    cases = list(_gadget_steps())
    seen = []
    check = Instance.__post_init__

    def recorded(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(Instance, "__post_init__", recorded)
    for _, _, steps in cases:
        seen.clear()
        gadget = steps["build"]()
        assert seen == [gadget.instance] and seen[0] is gadget.instance


class TestFairness:
    def test_intro_profiles(self, intro):
        flat = EquilibriumCandidate((F(1, 2), F(1, 2)), ((1, 0), (0, 1)))
        rep = fairness_report(intro, flat)
        assert rep.profile == (1, 1)
        assert rep.weighted_envy_free

        tilted = EquilibriumCandidate(
            (F(1, 4), F(3, 4)), ((1, F(1, 3)), (0, F(2, 3)))
        )
        rep = fairness_report(intro, tilted)
        assert rep.profile == (2, F(2, 3))
        assert rep.weighted_envy_free

    def test_envy_detected(self):
        inst = fixed_earnings_instance(10, [[1, 1], [1, 1]], [1, 1])
        lopsided = EquilibriumCandidate((F(1), F(1)), ((1, 1), (0, 0)))
        rep = fairness_report(inst, lopsided)
        assert not rep.weighted_envy_free

    def test_zero_budget_agents_excluded(self):
        inst = fixed_earnings_instance(10, [[1, 1], [1, 1]], [1, 0])
        cand = EquilibriumCandidate((F(1), F(1)), ((1, 1), (0, 0)))
        rep = fairness_report(inst, cand)
        assert rep.excluded_agents == (1,)
        assert rep.comparisons == ()

    def test_float_candidate_is_read_exactly(self, intro):
        flat = EquilibriumCandidate((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), mode="float")
        exact = EquilibriumCandidate((F(1, 2), F(1, 2)), ((1, 0), (0, 1)))
        rep = fairness_report(intro, flat)
        assert rep == fairness_report(intro, exact)
        assert rep.profile == (1, 1) and rep.weighted_envy_free

    def test_forbidden_bundles_are_infinite_rates(self):
        # Agent 0 cannot do chore 1.  Doing it itself, its own rate is
        # infinite and it envies agent 1; when agent 1 holds it, agent 0's
        # rate for that bundle is infinite and it envies no one.
        inst = fixed_earnings_instance(10, [[1, None], [1, 1]], [1, 1])
        own = EquilibriumCandidate((F(1), F(1)), ((0, 1), (1, 0)))
        rep = fairness_report(inst, own)
        assert rep.profile == (None, 1)
        assert rep.comparisons == (
            PairComparison(0, 1, None, F(1), False),
            PairComparison(1, 0, F(1), F(1), True),
        )
        cross = EquilibriumCandidate((F(1), F(1)), ((1, 0), (0, 1)))
        rep = fairness_report(inst, cross)
        assert rep.comparisons == (
            PairComparison(0, 1, F(1), None, True),
            PairComparison(1, 0, F(1), F(1), True),
        )
        assert rep.weighted_envy_free


class TestPareto:
    def test_intro_equal_split_dominated(self, intro):
        equal = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        res = check_pareto(intro, equal)
        assert not res.optimal
        assert res.dominated_agent is not None

    def test_intro_diagonal_optimal(self, intro):
        res = check_pareto(intro, ((1, 0), (0, 1)))
        assert res.optimal

    def test_requires_full_assignment(self, intro):
        with pytest.raises(Infeasible):
            check_pareto(intro, ((F(1, 2), 0), (0, 1)))

    def test_rejects_forbidden_support(self, warmup):
        with pytest.raises(Infeasible):
            check_pareto(warmup, ((0, 1), (1, 0)))

    def test_witness_dominates(self, intro):
        equal = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        res = check_pareto(intro, equal)
        old = disutility_profile(intro, equal)
        new = disutility_profile(intro, res.witness)
        assert all(b <= a for a, b in zip(old, new))
        assert any(b < a for a, b in zip(old, new))

    @staticmethod
    def _some_agent_can_gain(inst, allocation):
        """The per-agent oracle: can some agent ``t`` lower its disutility
        over complete assignments that keep every other agent at most as
        badly off?  One LP per agent."""
        profile = disutility_profile(inst, allocation)
        pairs = [(i, j) for i in range(inst.n) for j in inst.finite_chores(i)]
        for t in range(inst.n):
            cons = [
                lp.constraint([F(j == c) for _, c in pairs], lp.EQ, inst.supplies[j])
                for j in range(inst.m)
            ]
            cons += [
                lp.constraint(
                    [inst.disutility[a][c] if a == i else F(0) for a, c in pairs],
                    lp.LE,
                    profile[i],
                )
                for i in range(inst.n)
                if i != t
            ]
            obj = [inst.disutility[a][c] if a == t else F(0) for a, c in pairs]
            result = lp.lp_solve(
                lp.LinearProgram(len(pairs), tuple(cons), tuple(obj), maximize=False)
            )
            if result.status == lp.OPTIMAL and result.value < profile[t]:
                return True
        return False

    def test_one_lp_matches_per_agent_oracle(self):
        # Random full assignments of the conftest markets: each chore split
        # at random among the agents that can do it, or given whole to one.
        rng = random.Random(11)
        verdicts = []
        for k in range(150):
            inst = random_conditioned_instance(random.Random(k))
            allocation = [[F(0)] * inst.m for _ in range(inst.n)]
            for j, supply in enumerate(inst.supplies):
                able = [i for i in range(inst.n) if inst.disutility[i][j] is not None]
                if rng.random() < 0.5:
                    allocation[rng.choice(able)][j] = supply
                    continue
                weights = [F(rng.randint(0, 3)) for _ in able]
                weights[0] += 1
                for i, w in zip(able, weights):
                    allocation[i][j] = supply * w / sum(weights)
            res = check_pareto(inst, allocation)
            assert res.optimal == (not self._some_agent_can_gain(inst, allocation))
            verdicts.append(res.optimal)
            if res.optimal:
                continue
            old = disutility_profile(inst, allocation)
            new = disutility_profile(inst, res.witness)
            assert all(b <= a for a, b in zip(old, new))
            assert res.dominated_agent == next(i for i in range(inst.n) if new[i] < old[i])
        assert 20 <= verdicts.count(False) <= 130


_WARMUP = fixed_earnings_instance(100, [[1, 3], [None, 1]], [1, 1])
_INTRO = exchange_instance(100, [[1, 3], [3, 1]], [[1, 1], [1, 1]])

#: One call per input check of verification, its exception type and a
#: fragment of its message.
REJECTED = {
    "mpb-price-length": (
        lambda: mpb_sets(_WARMUP, (F(1),)),
        DimensionMismatch, "price vector length must match chore count"),
    "mpb-tol-nan": (
        lambda: mpb_sets(_INTRO, (F(1, 2), F(1, 2)), tol=float("nan")),
        Malformed, "tolerance must be a finite nonnegative number"),
    "mpb-tol-negative": (
        lambda: mpb_sets(_INTRO, (F(1, 2), F(1, 2)), tol=-0.5),
        Malformed, "tolerance must be a finite nonnegative number"),
    "verify-shape": (
        lambda: verify_equilibrium(_WARMUP, EquilibriumCandidate((1,), ((1,), (1,)))),
        DimensionMismatch, "candidate shape must match instance"),
    "fairness-fewer-agents": (
        lambda: fairness_report(_INTRO, EquilibriumCandidate((1, 1), ((1, 1),))),
        DimensionMismatch, "candidate shape must match instance"),
    "fairness-fewer-chores": (
        lambda: fairness_report(_INTRO, EquilibriumCandidate((1,), ((1,), (1,)))),
        DimensionMismatch, "candidate shape must match instance"),
    "pareto-shape": (
        lambda: check_pareto(_INTRO, [[1, 1]]),
        DimensionMismatch, "allocation shape must match instance"),
    "pareto-text-entry": (
        lambda: check_pareto(_INTRO, [[2, 0], ["x", 2]]), Malformed, "bad rational literal"),
    "pareto-nan-entry": (
        lambda: check_pareto(_INTRO, [[2, 0], [float("nan"), 2]]), Malformed, "not a rational"),
    "pareto-none-entry": (
        lambda: check_pareto(_INTRO, [[2, 0], [None, 2]]), Malformed, "not a rational"),
    "pareto-negative-entry": (
        lambda: check_pareto(_INTRO, [[2, 0], [-1, 1]]),
        Infeasible, "assignment entries must be nonnegative"),
}


@pytest.mark.parametrize("call, error, fragment", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
