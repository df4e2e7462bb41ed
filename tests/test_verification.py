"""Equilibrium verification, fairness, and Pareto checks."""

from fractions import Fraction

import pytest

from choremarket.errors import Infeasible, Malformed
from choremarket.model import EquilibriumCandidate, fixed_earnings_instance
from choremarket.verification import (
    check_pareto,
    fairness_report,
    mpb_sets,
    verify_equilibrium,
)

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

    def test_epsilon_band_relaxes_clearing(self, warmup):
        # Chore 0 is only 19/20 done; budgets and MPB remain exact.
        cand = EquilibriumCandidate((F(20, 19), F(1)), ((F(19, 20), 0), (0, 1)))
        assert not verify_equilibrium(warmup, cand).clearing_ok
        assert verify_equilibrium(warmup, cand, epsilon=F(1, 10)).clearing_ok

    def test_epsilon_validated(self, warmup):
        with pytest.raises(Malformed):
            verify_equilibrium(warmup, warmup_candidate_flat(), epsilon=F(1))

    def test_float_mode_tolerances(self, warmup):
        cand = EquilibriumCandidate(
            (1.0, 1.0 + 1e-12),
            ((1.0, 0.0), (0.0, 1.0 - 1e-10)),
            mode="float",
        )
        assert verify_equilibrium(warmup, cand).ok

    def test_float_mode_catches_real_violations(self, warmup):
        cand = EquilibriumCandidate(
            (1.0, 1.0), ((0.5, 0.0), (0.0, 1.0)), mode="float"
        )
        report = verify_equilibrium(warmup, cand)
        assert not report.budget_ok and not report.clearing_ok


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
        from choremarket.verification import disutility_profile

        old = disutility_profile(intro, equal)
        new = disutility_profile(intro, res.witness)
        assert all(b <= a for a, b in zip(old, new))
        assert any(b < a for a, b in zip(old, new))
