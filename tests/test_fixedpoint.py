"""The exact solver, and the proof's price map checked against it."""

import random
from fractions import Fraction

import pytest

from choremarket import enumeration
from choremarket.errors import ConditionViolated, ConstructionFailed, Infeasible, Malformed
from choremarket.enumeration import SolveOutcome, SolverConfig, solve
from choremarket.graphs import build_disutility_graph, check_condition1
from choremarket.model import (
    EXACT,
    exchange_instance,
    fixed_earnings_instance,
)
from choremarket.verification import verify_equilibrium

from conftest import pattern_market, random_conditioned_instance
from proofmap import (
    initial_prices,
    optimal_allocation,
    phi,
    rescale_to_unit_supply,
    stochastic_null_vector,
)

F = Fraction


def _decomposition(inst):
    return check_condition1(build_disutility_graph(inst)).decomposition


class TestNullVector:
    def test_zero_matrix_gives_a_stochastic_vector(self):
        # Every unit-sum vector is a null vector; the LP returns a vertex.
        assert stochastic_null_vector([[0] * 3] * 3) == (1, 0, 0)

    def test_two_by_two(self):
        assert stochastic_null_vector([[-2, 1], [2, -1]]) == (F(1, 3), F(2, 3))

    def test_one_dimensional(self):
        assert stochastic_null_vector([[0]]) == (1,)

    def test_reducible_chain(self):
        # One absorbing state: the null vector concentrates there.
        assert stochastic_null_vector([[-1, 0], [1, 0]]) == (0, 1)

    def test_rational_entries(self):
        z = [[F(-1, 2), "1/3"], [F(1, 2), F(-1, 3)]]
        assert stochastic_null_vector(z) == (F(2, 5), F(3, 5))


class TestInitialPrices:
    def test_example2_support(self, example2):
        assert initial_prices(example2, _decomposition(example2)) == (1, 0)

    def test_single_component(self, intro):
        p = initial_prices(intro, _decomposition(intro))
        assert p == (1, 0) and sum(p) == 1

class TestOptimalAllocation:
    def test_warmup_tilted(self, warmup):
        X = optimal_allocation(warmup, [F(1, 4), F(3, 4)])
        assert X == ((1, 1), (0, F(4, 3)))

    def test_budgets_spent_exactly(self, intro):
        p = [F(3, 10), F(7, 10)]
        X = optimal_allocation(intro, p)
        for i in range(2):
            assert sum(x * pj for x, pj in zip(X[i], p)) == F(1, 2)

    def test_unspendable_budget_is_infeasible(self, example2):
        # Agent 0 must earn 1/2, but the only chore it can do is priced 0.
        with pytest.raises(Infeasible, match="^agent 0 "):
            optimal_allocation(example2, [0, 1])


class TestPhiStep:
    def test_fixed_point_single_chore(self):
        inst = exchange_instance(10, [[1]], [[1]])
        p = (F(1),)
        assert phi(inst, p, optimal_allocation(inst, p), _decomposition(inst)) == p

    @pytest.mark.parametrize("market", list(range(50)) + [f"twin{k}" for k in range(50)])
    def test_solver_equilibria_are_fixed_points(self, market, request):
        # Equilibria are fixed points of the map: at the solver's exact
        # equilibrium, in units of supply and normalised to sum one, the map
        # returns exactly the same prices.  A fixed-earnings twin's
        # equilibrium is checked on its exchange form.
        inst = pattern_market(market, request)
        out = solve(inst)
        assert out.converged
        scaled, supplies = rescale_to_unit_supply(inst.to_exchange())
        q = [p * s for p, s in zip(out.candidate.prices, supplies)]
        p = tuple(x / sum(q) for x in q)
        X = [[x / s for x, s in zip(row, supplies)] for row in out.candidate.allocation]
        assert phi(scaled, p, X, _decomposition(scaled)) == p

    def test_underdone_chore_price_rises(self, intro):
        p = (F(9, 10), F(1, 10))
        X = optimal_allocation(intro, p)  # both agents prefer chore 0
        assert phi(intro, p, X, _decomposition(intro))[1] > p[1]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_per_agent_loop(self, seed):
        # The invariants of the proof's map, at the new prices: they sum to
        # one and match each component's budget, summed agent by agent,
        # against its price mass.
        inst, _ = rescale_to_unit_supply(
            random_conditioned_instance(random.Random(seed))
        )
        dec = _decomposition(inst)
        p0 = initial_prices(inst, dec)
        for p in (p0, tuple(x / 2 + F(1, 2 * inst.m) for x in p0)):
            new_p = phi(inst, p, optimal_allocation(inst, p), dec)
            assert sum(new_p) == 1 and min(new_p) >= 0
            for comp in dec.components:
                budget = sum(
                    inst.endowment[a][j] * new_p[j]
                    for a in comp.agents
                    for j in range(inst.m)
                )
                assert budget == sum(new_p[j] for j in comp.chores)

    def test_rescale_roundtrip(self):
        inst = exchange_instance(10, [[1, 2]], [[2, 4]])
        scaled, supplies = rescale_to_unit_supply(inst)
        assert supplies == (F(2), F(4))
        assert all(scaled.supplies[j] == 1 for j in range(2))
        # Pain-per-buck ordering is preserved under the rescale.
        assert scaled.disutility[0][0] / scaled.disutility[0][1] == F(
            inst.disutility[0][0] * 2, inst.disutility[0][1] * 4
        )


class TestSolve:
    @pytest.mark.parametrize("reason", ["found", "budget", "cap"])
    def test_converged_is_reason_found(self, reason):
        assert SolveOutcome(None, 0, reason).converged is (reason == "found")

    def test_gates_on_condition1(self, example1):
        with pytest.raises(ConditionViolated, match="^condition 1 fails: "):
            solve(example1)

    def test_gates_on_condition2(self, example2):
        with pytest.raises(ConditionViolated, match=r"^condition 2 fails: order \("):
            solve(example2)

    def test_intro_example(self, intro):
        out = solve(intro)
        assert out.converged and out.reason == "found"
        assert out.candidate.mode == EXACT
        assert verify_equilibrium(intro, out.candidate).ok

    def test_fixed_earnings_output_in_original_units(self, warmup):
        # The warm-up violates the component condition, so use a separable
        # fixed-earnings instance instead.
        inst = fixed_earnings_instance(10, [[1, None], [None, 1]], [1, 1])
        out = solve(inst)
        assert out.converged
        assert verify_equilibrium(inst, out.candidate).ok
        assert sum(out.candidate.prices) == 2  # supply value equals total earnings

    def test_exhausted_search_is_construction_failure(self, intro, monkeypatch):
        # The conditions guarantee an equilibrium, so a search that finds
        # none has a bug; it must not read as bad input or a budget stop.
        monkeypatch.setattr(enumeration, "_solve_pattern", lambda *args: None)
        with pytest.raises(ConstructionFailed, match="ran out"):
            solve(intro)

    def test_budget_stops_only_while_patterns_remain(self, intro, monkeypatch):
        # With no pattern holding an equilibrium, intro's search solves 3
        # LPs: a budget of 2 stops with a pattern left, and budgets of 3 and
        # 4 see the search run out.
        monkeypatch.setattr(enumeration, "_solve_pattern", lambda *args: None)
        out = solve(intro, SolverConfig(max_iters=2))
        assert (out.converged, out.iterations, out.reason) == (False, 2, "budget")
        for max_iters in (3, 4):
            with pytest.raises(ConstructionFailed, match="^pattern search ran out after 3 LPs$"):
                solve(intro, SolverConfig(max_iters=max_iters))

    @pytest.mark.parametrize("max_iters", [2.5, "x", None, True])
    def test_non_integer_budget_is_malformed(self, intro, monkeypatch, max_iters):
        # A fractional budget never equals the LP count, so it would never
        # stop the search.
        monkeypatch.setattr(enumeration, "_solve_pattern", lambda *args: None)
        with pytest.raises(Malformed, match="not an integer"):
            solve(intro, SolverConfig(max_iters=max_iters))
