"""Fixed-point machinery: null vectors, initial prices, steps, solving."""

import random
from fractions import Fraction

import numpy as np
import pytest

from choremarket import fixedpoint
from choremarket.errors import (
    ConditionViolated,
    ConstructionFailed,
    Malformed,
    WrongVariant,
)
from choremarket.fixedpoint import (
    initial_prices,
    optimal_allocation,
    phi_step,
    rescale_to_unit_supply,
    solve,
    stochastic_null_vector,
)
from choremarket.graphs import build_disutility_graph, check_condition1
from choremarket.model import (
    EXACT,
    chore_supply,
    exchange_instance,
    fixed_earnings_instance,
)
from choremarket.verification import verify_equilibrium

from conftest import random_conditioned_instance

F = Fraction


def _decomposition(inst):
    return check_condition1(build_disutility_graph(inst)).decomposition


def _reference_phi(inst, p, X, dec):
    """The price map of ``phi_step``, one agent and one chore at a time."""
    supply = np.array([float(chore_supply(inst, j)) for j in range(inst.m)])
    q = p + np.maximum(supply - X.sum(axis=0), 0.0)
    comp_of = {j: k for k, comp in enumerate(dec.components) for j in comp.chores}
    Q = [sum(q[j] for j in comp.chores) for comp in dec.components]
    M = -np.eye(dec.d)
    for k, comp in enumerate(dec.components):
        for a in comp.agents:
            for j in range(inst.m):
                kk = comp_of[j]
                M[k, kk] += float(inst.endowment[a][j]) * q[j] / Q[kk]
    mass = stochastic_null_vector(M)
    new_p = np.array(
        [q[j] / Q[comp_of[j]] * mass[comp_of[j]] for j in range(inst.m)]
    )
    return new_p, float(np.abs(M.sum(axis=0)).max())


class TestNullVector:
    def test_zero_matrix_gives_uniform(self):
        t = stochastic_null_vector(np.zeros((3, 3)))
        assert np.allclose(t, 1 / 3)

    def test_two_by_two(self):
        t = stochastic_null_vector(np.array([[-2.0, 1.0], [2.0, -1.0]]))
        assert np.allclose(t, [1 / 3, 2 / 3], atol=1e-9)

    def test_one_dimensional(self):
        assert stochastic_null_vector(np.zeros((1, 1)))[0] == 1.0

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(Malformed):
            stochastic_null_vector(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_rejects_nonzero_column_sums(self):
        with pytest.raises(Malformed):
            stochastic_null_vector(np.array([[1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(Malformed):
            stochastic_null_vector(np.array([[bad, 1.0], [1.0, -1.0]]))

    def test_reducible_chain(self):
        # One absorbing state: the null vector concentrates there.
        z = np.array([[-1.0, 0.0], [1.0, 0.0]])
        t = stochastic_null_vector(z)
        assert np.allclose(t, [0.0, 1.0], atol=1e-9)


class TestInitialPrices:
    def test_example2_support(self, example2):
        p = initial_prices(example2, _decomposition(example2))
        assert np.allclose(p, [1.0, 0.0], atol=1e-9)

    def test_single_component(self, intro):
        p = initial_prices(intro, _decomposition(intro))
        assert np.isclose(p.sum(), 1.0)
        assert p[0] == 1.0 and p[1] == 0.0

    def test_requires_exchange(self, warmup):
        with pytest.raises(WrongVariant):
            initial_prices(warmup, _decomposition(warmup.to_exchange()))


class TestOptimalAllocation:
    def test_warmup_tilted(self, warmup):
        X = optimal_allocation(warmup, np.array([0.25, 0.75]))
        assert np.allclose(X[0], [1.0, 1.0])
        assert np.allclose(X[1], [0.0, 4 / 3])

    def test_budgets_spent_exactly(self, intro):
        p = np.array([0.3, 0.7])
        X = optimal_allocation(intro, p)
        for i in range(2):
            assert np.isclose((X[i] * p).sum(), 0.5)


class TestPhiStep:
    def test_fixed_point_single_chore(self):
        inst = exchange_instance(10, [[1]], [[1]])
        dec = _decomposition(inst)
        p = np.array([1.0])
        X = optimal_allocation(inst, p)
        new_p, new_X, diag = phi_step(inst, p, X, dec)
        assert np.allclose(new_p, p) and np.allclose(new_X, X)
        assert diag["colsum_error"] <= 1e-12

    @pytest.mark.parametrize("seed", range(50))
    def test_solver_equilibria_are_fixed_points(self, seed):
        # Equilibria are fixed points of the map: at the solver's exact
        # equilibrium, in units of supply and normalised to sum one, the map
        # returns the same prices.
        inst = random_conditioned_instance(random.Random(seed))
        out = solve(inst)
        assert out.converged
        scaled, supplies = rescale_to_unit_supply(inst)
        q = [p * s for p, s in zip(out.candidate.prices, supplies)]
        p = np.array([float(x / sum(q)) for x in q])
        X = np.array(
            [[float(x / s) for x, s in zip(row, supplies)] for row in out.candidate.allocation]
        )
        new_p, _, _ = phi_step(scaled, p, X, _decomposition(scaled))
        assert np.abs(new_p - p).max() <= 1e-12

    def test_underdone_chore_price_rises(self, intro):
        dec = _decomposition(intro)
        p = np.array([0.9, 0.1])
        X = optimal_allocation(intro, p)  # both agents prefer chore 0
        new_p, _, _ = phi_step(intro, p, X, dec)
        assert new_p[1] > p[1]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_per_agent_loop(self, seed):
        inst, _ = rescale_to_unit_supply(
            random_conditioned_instance(random.Random(seed))
        )
        dec = _decomposition(inst)
        p0 = initial_prices(inst, dec)
        for p in (p0, 0.5 * p0 + 0.5 / inst.m):
            X = optimal_allocation(inst, p)
            new_p, new_X, diag = phi_step(inst, p, X, dec)
            ref_p, ref_colsum = _reference_phi(inst, p, X, dec)
            assert np.abs(new_p - ref_p).max() <= 1e-12
            assert abs(diag["colsum_error"] - ref_colsum) <= 1e-12
            assert np.array_equal(new_X, X)
            # The invariants of the proof's map, at the new prices.
            balance_error = max(
                abs(
                    sum(
                        float(inst.endowment[a][j]) * new_p[j]
                        for a in comp.agents
                        for j in range(inst.m)
                    )
                    - sum(new_p[j] for j in comp.chores)
                )
                for comp in dec.components
            )
            assert abs(new_p.sum() - 1.0) <= 1e-12
            assert balance_error <= 1e-9
            assert diag["min_price_bump"] >= 0
            assert diag["colsum_error"] <= 1e-12

    def test_rescale_roundtrip(self):
        inst = exchange_instance(10, [[1, 2]], [[2, 4]])
        scaled, supplies = rescale_to_unit_supply(inst)
        assert supplies == (F(2), F(4))
        assert all(chore_supply(scaled, j) == 1 for j in range(2))
        # Pain-per-buck ordering is preserved under the rescale.
        assert scaled.disutility[0][0] / scaled.disutility[0][1] == F(
            inst.disutility[0][0] * 2, inst.disutility[0][1] * 4
        )


class TestSolve:
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
        monkeypatch.setattr(fixedpoint, "_solve_pattern", lambda *args: None)
        with pytest.raises(ConstructionFailed, match="ran out"):
            solve(intro)
