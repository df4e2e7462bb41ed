"""Fixed-point machinery: null vectors, initial prices, steps, solving."""

import random
from fractions import Fraction

import numpy as np
import pytest

from choremarket.errors import ConditionViolated, Malformed, WrongVariant
from choremarket.fixedpoint import (
    IterationState,
    SolverConfig,
    allocation_bound,
    clearing_residual,
    initial_prices,
    optimal_allocation,
    phi_step,
    rescale_to_unit_supply,
    solve,
    stochastic_null_vector,
)
from choremarket.graphs import build_disutility_graph, check_condition1
from choremarket.model import exchange_instance, fixed_earnings_instance
from choremarket.verification import verify_equilibrium

from conftest import random_conditioned_instance

F = Fraction


def _decomposition(inst):
    return check_condition1(build_disutility_graph(inst)).decomposition


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

    def test_respects_bound(self, intro):
        p = np.array([0.5, 0.5])
        X = optimal_allocation(intro, p)
        assert X.max() <= allocation_bound(intro) + 1e-9


class TestPhiStep:
    def test_fixed_point_single_chore(self):
        inst = exchange_instance(10, [[1]], [[1]])
        dec = _decomposition(inst)
        p = np.array([1.0])
        X = optimal_allocation(inst, p)
        new_p, new_X, diag = phi_step(inst, IterationState(p, X), dec)
        assert np.allclose(new_p, p) and np.allclose(new_X, X)
        assert diag["colsum_error"] <= 1e-12

    def test_underdone_chore_price_rises(self, intro):
        dec = _decomposition(intro)
        p = np.array([0.9, 0.1])
        X = optimal_allocation(intro, p)  # both agents prefer chore 0
        new_p, _, _ = phi_step(intro, IterationState(p, X), dec)
        assert new_p[1] > p[1]

    def test_rescale_roundtrip(self):
        inst = exchange_instance(10, [[1, 2]], [[2, 4]])
        scaled, supplies = rescale_to_unit_supply(inst)
        assert supplies == (F(2), F(4))
        from choremarket.model import chore_supply

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
        assert out.converged
        assert verify_equilibrium(
            intro, out.candidate, tol_mpb=1e-6, tol_clearing=1e-6
        ).ok

    def test_invariants_on_trace(self):
        rng = random.Random(3)
        inst = random_conditioned_instance(rng)
        out = solve(inst, SolverConfig(max_iters=100))
        for rec in out.trace:
            assert rec.simplex_error <= 1e-9
            assert rec.balance_error <= 1e-9
            assert rec.min_price_bump >= 0
            assert rec.colsum_error <= 1e-12

    def test_fixed_earnings_output_in_original_units(self, warmup):
        # The warm-up violates the component condition, so use a separable
        # fixed-earnings instance instead.
        inst = fixed_earnings_instance(10, [[1, None], [None, 1]], [1, 1])
        out = solve(inst)
        assert out.converged
        assert verify_equilibrium(
            inst, out.candidate, tol_mpb=1e-6, tol_clearing=1e-6
        ).ok
        total = sum(out.candidate.prices)
        assert abs(total - 2) <= 1e-6  # supply value equals total earnings
