"""End-to-end acceptance checks covering every component of the package."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from choremarket.enumeration import SolverConfig, enumerate_equilibria, exists_equilibrium, solve
from choremarket.graphs import check_conditions
from choremarket.lp import OPTIMAL
from choremarket.model import EXACT, chore_supply, fixed_earnings_instance, normalize_prices
from choremarket.polymatrix import (
    PolymatrixGame,
    build_polymatrix_gadget,
    recover_strategy,
    verify_gadget_properties,
)
from choremarket.sat_reduction import (
    CNFFormula,
    assignment_to_equilibrium,
    build_sat_gadget,
    equilibrium_to_assignment,
)
from choremarket.verification import disutility_profile, verify_equilibrium

from conftest import random_conditioned_instance
from proofmap import stochastic_null_vector
from test_lp import _oracle, _random_program
from test_lp import solve as lp_solve
from test_polymatrix import GAME2, synthetic_endpoint_prices

F = Fraction


class TestTwoAgentTwoChore:
    def test_enumeration_is_exact_and_fast(self, warmup):
        start = time.monotonic()
        res = enumerate_equilibria(warmup)
        elapsed = time.monotonic() - start
        assert set(res.rays) == {(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))}
        assert elapsed < 1.0

    def test_symmetric_variant_rays_and_profiles(self, intro):
        start = time.monotonic()
        res = enumerate_equilibria(intro)
        elapsed = time.monotonic() - start
        by_ray = {
            e.ray: disutility_profile(intro, e.candidate.allocation)
            for e in res.equilibria
        }
        assert by_ray == {
            (F(1, 2), F(1, 2)): (F(1), F(1)),
            (F(1, 4), F(3, 4)): (F(2), F(2, 3)),
            (F(3, 4), F(1, 4)): (F(2, 3), F(2)),
        }
        assert elapsed < 1.0


class TestNonExistence:
    def test_incomplete_component_blocks_equilibria(self, example1):
        assert enumerate_equilibria(example1).equilibria == ()
        report = check_conditions(example1)
        assert not report.condition1.ok
        assert report.condition1.witness.kind == "incomplete-component"

    def test_disconnected_trade_blocks_equilibria(self, example2):
        assert enumerate_equilibria(example2).equilibria == ()
        report = check_conditions(example2)
        assert report.condition1.ok
        assert not report.condition2.ok


class TestSatReduction:
    FORMULA = CNFFormula(3, [(1, 2, 3), (-1, -2, 3)])

    @pytest.mark.parametrize(
        "assignment",
        [(True, True, True), (True, False, True), (False, False, True)],
    )
    def test_satisfying_assignments_yield_exact_equilibria(self, assignment):
        gadget = build_sat_gadget(self.FORMULA)
        cand = assignment_to_equilibrium(gadget, assignment)
        assert verify_equilibrium(gadget.instance, cand, epsilon=0).ok
        assert equilibrium_to_assignment(gadget, cand) == assignment

    # Single-variable instances small enough for exhaustive enumeration: a
    # variable block (a1, a2 over chores b1, b2) plus a one-slot clause
    # block (light agent and balancer sharing a clause chore m).  Every
    # equilibrium must read back to the assignment the clause demands.
    EPS = F(1, 10)
    EPS_PRIME = F(1, 30)

    def _shrunken(self, negated):
        eps, eps_prime = self.EPS, self.EPS_PRIME
        if negated:
            light = [F(2, 3), None, 4 * eps / 3]
            balancer_earning = eps - eps_prime
        else:
            light = [None, F(1), eps]
            balancer_earning = eps / 2 - eps_prime
        return fixed_earnings_instance(
            100,
            [[1, 3, None], [None, 1, None], light, light],
            [1, 1, eps, balancer_earning],
        )

    @pytest.mark.parametrize("negated", [False, True])
    def test_every_equilibrium_satisfies_the_clause(self, negated):
        inst = self._shrunken(negated)
        res = enumerate_equilibria(inst)
        assert res.equilibria
        for e in res.equilibria:
            works_both = e.candidate.allocation[0][1] > 0
            assert works_both == negated  # x = False exactly when demanded

    @pytest.mark.parametrize("clause", [(1, 2, 3), (1, -2, 3)])
    def test_equilibria_are_exactly_the_satisfying_assignments(self, clause):
        formula = CNFFormula(3, [clause])
        gadget = build_sat_gadget(formula)
        res = enumerate_equilibria(gadget.instance)
        for e in res.equilibria:
            assert verify_equilibrium(gadget.instance, e.candidate).ok
        readbacks = {equilibrium_to_assignment(gadget, e.candidate) for e in res.equilibria}
        satisfying = {a for a in product((False, True), repeat=3) if formula.satisfies(a)}
        assert len(satisfying) == 7
        assert readbacks == satisfying


class TestRandomConditionedInstances:
    SEEDS = range(50)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equilibrium_exists(self, seed):
        inst = random_conditioned_instance(random.Random(seed))
        report = check_conditions(inst)
        assert report.ok
        assert exists_equilibrium(inst) is not None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_invariants_hold(self, seed):
        """ROADMAP's acceptance gate: solve returns an exact equilibrium."""
        inst = random_conditioned_instance(random.Random(seed))
        out = solve(inst, SolverConfig(max_iters=300))
        assert out.converged and out.reason == "found"
        assert out.candidate.mode == EXACT
        assert verify_equilibrium(inst, out.candidate).ok
        assert normalize_prices(out.candidate.prices) in enumerate_equilibria(inst).rays
        assert 1 <= out.iterations <= 300


class TestPolymatrixReduction:
    def _game(self, n):
        if n == 2:
            return GAME2
        payoff = [[F(1, 2)] * (2 * n) for _ in range(2 * n)]
        return PolymatrixGame(n, payoff)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gadget_structure(self, n):
        game = self._game(n)
        start = time.monotonic()
        gadget = build_polymatrix_gadget(game)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0

        params = gadget.params
        assert n**params.c * params.alpha[0] < params.alpha[-1]
        assert params.alpha[-1] <= F(1, n**params.c)

        assert check_conditions(gadget.instance).ok

        alpha_top = params.alpha[-1]
        for i in range(2 * n):
            assert chore_supply(gadget.instance, gadget.chore(1, i)) == n + n * (
                1 - alpha_top
            )
        for k in range(2, params.K + 1):
            for i in range(2 * n):
                assert (
                    chore_supply(gadget.instance, gadget.chore(k, i))
                    == n + params.delta[k - 1]
                )

    def test_endpoint_prices_recover_pure_strategies(self):
        gadget = build_polymatrix_gadget(GAME2)
        for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            cand = synthetic_endpoint_prices(gadget, signs)
            assert verify_gadget_properties(gadget, cand).ok
            x = recover_strategy(gadget, cand)
            for pair in range(gadget.params.n):
                assert sorted((x[2 * pair], x[2 * pair + 1])) == [0.0, 1.0]

    def test_solver_stops_at_pattern_cap(self):
        """GAME2 has about 10**26 raw patterns, past the search's cap, so
        ``solve`` stops before any LP.  ROADMAP item 3 (exact complementary
        pivoting) turns this back into the assertion that the solver's
        equilibrium recovers a polymatrix equilibrium."""
        gadget = build_polymatrix_gadget(GAME2)
        out = solve(gadget.instance, SolverConfig(max_iters=60))
        assert out.converged is False
        assert out.reason == "cap"
        assert out.iterations == 0


class TestNullVectorRobustness:
    def test_random_column_stochastic_generators(self):
        rng = random.Random(2024)
        for _ in range(200):
            d = rng.randint(1, 6)
            # Sparsify so reducible and degenerate shapes show up too.
            z = [
                [
                    Fraction(rng.randint(1, 300), rng.randint(1, 100))
                    if i != j and rng.random() < 0.7
                    else Fraction(0)
                    for j in range(d)
                ]
                for i in range(d)
            ]
            for j in range(d):
                z[j][j] = -sum(row[j] for row in z)
            t = stochastic_null_vector(z)
            assert min(t) >= 0 and sum(t) == 1
            assert all(sum(x * y for x, y in zip(row, t)) == 0 for row in z)


class TestExactSolverAgainstVertexOracle:
    def test_random_programs_match_exhaustive_search(self):
        rng = random.Random(7)
        sizes = (
            [(rng.randint(1, 3), rng.randint(1, 8)) for _ in range(250)]
            + [(4, rng.randint(1, 4)) for _ in range(35)]
            + [(5, rng.randint(1, 3)) for _ in range(15)]
        )
        for num, rows in sizes:
            cons, obj = _random_program(rng, num, rows)
            res = lp_solve(num, cons, obj)
            status, value = _oracle(num, cons, obj)
            assert res.status == status
            if status == OPTIMAL:
                assert res.value == value
