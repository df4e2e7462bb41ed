"""Satisfiability reduction: gadget structure, equilibria, readback."""

import hashlib
import random
from fractions import Fraction

import pytest

from choremarket.errors import (
    BadParams,
    Malformed,
    NonIntegralEarnings,
    NotGadget,
    NotSatisfying,
)
from choremarket.graphs import build_disutility_graph, check_condition1
from choremarket.model import (
    EquilibriumCandidate,
    agent_budget,
    candidate_from_json,
    candidate_to_json,
    exchange_instance,
    fixed_earnings_instance,
    instance_from_json,
    instance_to_json,
)
from choremarket.sat_reduction import (
    CNFFormula,
    SATGadgetParams,
    assignment_to_equilibrium,
    balancer_earning,
    build_sat_gadget,
    equilibrium_to_assignment,
    expand_to_equal_earnings,
    gadget_from_json,
    gadget_to_json,
    parse_dimacs,
)
from choremarket.verification import verify_equilibrium

F = Fraction

PHI = CNFFormula(3, [(1, 2, 3), (-1, -2, 3)])


class TestFormula:
    def test_rejects_short_clause(self):
        with pytest.raises(Malformed):
            CNFFormula(2, [(1, 2)])

    def test_rejects_repeated_variable(self):
        with pytest.raises(Malformed):
            CNFFormula(3, [(1, -1, 2)])

    def test_satisfies(self):
        assert PHI.satisfies([True, False, False])
        assert not PHI.satisfies([False, False, False])

    def test_parse_dimacs(self):
        text = "c comment\np cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"
        assert parse_dimacs(text) == PHI

    def test_parse_dimacs_percent_ends_the_clauses(self):
        # SATLIB's uf* files close with "%" and a lone "0".
        text = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n%\n0\n"
        assert parse_dimacs(text) == CNFFormula(3, [(1, -2, 3), (-1, 2, -3)])

    def test_parse_dimacs_clause_count_is_an_integer(self):
        with pytest.raises(Malformed, match="bad DIMACS integer: 'x'"):
            parse_dimacs("p cnf 3 x\n1 2 3 0\n")


class TestParams:
    def test_defaults_valid(self):
        SATGadgetParams()

    def test_rejects_large_eps_prime(self):
        with pytest.raises(BadParams):
            SATGadgetParams(eps_prime=F(1, 10))

    def test_rejects_tiny_eps_prime(self):
        with pytest.raises(BadParams):
            SATGadgetParams(eps_prime=F(1, 1000))


class TestGadgetStructure:
    def test_counts(self):
        g = build_sat_gadget(PHI)
        n, m = PHI.num_vars, len(PHI.clauses)
        assert g.instance.n == 2 * n + 4 * m == 14
        assert g.instance.m == 2 * n + 3 * m == 12

    def test_balancer_earning_single_clause(self):
        g = build_sat_gadget(CNFFormula(3, [(1, 2, 3)]))
        assert g.instance.earning[g.balancer(0)] == F(7, 60)

    def test_clause_money_identity(self):
        # Four agents' earnings sum to pos*(3e/2) + neg*(2e) - e'.
        params = SATGadgetParams()
        for clause in [(1, 2, 3), (-1, -2, 3), (-1, -2, -3), (1, -2, 3)]:
            pos = sum(1 for lit in clause if lit > 0)
            neg = 3 - pos
            expected = (
                pos * 3 * params.eps / 2 + neg * 2 * params.eps - params.eps_prime
            )
            g = build_sat_gadget(CNFFormula(3, [clause]), params)
            total = sum(
                g.instance.earning[g.clause_agent(0, s)] for s in range(4)
            )
            assert total == expected

    def test_gadget_fails_condition1(self):
        g = build_sat_gadget(PHI)
        assert not check_condition1(build_disutility_graph(g.instance)).ok

    def test_json_roundtrip(self):
        g = build_sat_gadget(PHI)
        again = gadget_from_json(gadget_to_json(g))
        assert again.instance == g.instance
        assert again.formula == g.formula

    def test_json_roundtrip_largest_gadget(self):
        """The 12x20 planted formula, the largest SAT gadget of the benchmark."""
        rng = random.Random(0)
        clauses = []
        while len(clauses) < 20:
            chosen = rng.sample(range(1, 13), 3)
            clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
            if any(lit > 0 for lit in clause):  # all-true satisfies it
                clauses.append(clause)
        g = build_sat_gadget(CNFFormula(12, clauses))
        assert (g.instance.n, g.instance.m) == (104, 84)
        assert instance_from_json(instance_to_json(g.instance)) == g.instance
        cand = assignment_to_equilibrium(g, [True] * 12)
        assert candidate_from_json(candidate_to_json(cand)) == cand

    def test_plain_instance_is_not_a_gadget(self):
        g = build_sat_gadget(PHI)
        with pytest.raises(NotGadget):
            gadget_from_json(instance_to_json(g.instance))


class TestEquilibria:
    @pytest.mark.parametrize(
        "assignment",
        [
            (True, True, True),
            (True, False, True),
            (False, False, True),
            (False, True, False),
        ],
    )
    def test_satisfying_assignments_give_equilibria(self, assignment):
        g = build_sat_gadget(PHI)
        cand = assignment_to_equilibrium(g, assignment)
        assert verify_equilibrium(g.instance, cand).ok
        assert equilibrium_to_assignment(g, cand) == assignment
        floats = EquilibriumCandidate(
            [float(p) for p in cand.prices],
            [[float(x) for x in row] for row in cand.allocation],
            mode="float",
        )
        assert verify_equilibrium(g.instance, floats).ok
        assert equilibrium_to_assignment(g, floats) == assignment

    def test_unsatisfying_assignment_rejected(self):
        g = build_sat_gadget(PHI)
        with pytest.raises(NotSatisfying):
            assignment_to_equilibrium(g, (False, False, False))

    def test_all_true_clause_prices(self):
        g = build_sat_gadget(CNFFormula(3, [(1, 2, 3)]))
        cand = assignment_to_equilibrium(g, (True, True, True))
        for slot in range(3):
            assert cand.prices[g.clause_chore(0, slot)] == F(5, 36)

    def test_all_negated_all_false(self):
        g = build_sat_gadget(CNFFormula(3, [(-1, -2, -3)]))
        cand = assignment_to_equilibrium(g, (False, False, False))
        assert verify_equilibrium(g.instance, cand).ok
        assert equilibrium_to_assignment(g, cand) == (False, False, False)

    def test_large_gadget_matches_dense_division(self):
        # A planted 12-variable, 20-clause formula: a 104 x 84 gadget whose
        # allocation has 120 nonzero cells of 8,736.  Prices and allocation,
        # zero cells included, are pinned by the digest of their repr, which
        # equals that of the dense division of each agent's money by price.
        rng = random.Random(1220)
        planted = [rng.random() < 0.5 for _ in range(12)]
        clauses = []
        while len(clauses) < 20:
            clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 13), 3)]
            if any(planted[abs(lit) - 1] == (lit > 0) for lit in clause):
                clauses.append(clause)
        g = build_sat_gadget(CNFFormula(12, clauses))
        cand = assignment_to_equilibrium(g, planted)
        assert (cand.n, cand.m) == (104, 84)
        assert sum(1 for row in cand.allocation for x in row if x) == 120
        digest = hashlib.sha256(repr((cand.prices, cand.allocation)).encode()).hexdigest()
        assert digest == "4bacf9452b5fa34473eb5a106767cbeacd2ada92a67c8beb1aa98f01966a3c4a"
        assert verify_equilibrium(g.instance, cand).ok


class TestExpansion:
    def test_integer_earnings_expand(self):
        inst = fixed_earnings_instance(10, [[1], [2]], [2, 1])
        expanded, groups = expand_to_equal_earnings(inst)
        assert expanded.n == 3
        assert groups == ((0, 1), (2,))
        assert all(e == 1 for e in expanded.earning)
        assert expanded.disutility[0] == expanded.disutility[1]

    def test_fractional_unit(self):
        inst = fixed_earnings_instance(10, [[1]], [F(3, 2)])
        expanded, _ = expand_to_equal_earnings(inst, unit=F(1, 2))
        assert expanded.n == 3

    def test_non_integral_rejected(self):
        inst = fixed_earnings_instance(10, [[1]], [F(3, 2)])
        with pytest.raises(NonIntegralEarnings):
            expand_to_equal_earnings(inst)

    def test_zero_earning_agents_dropped(self):
        inst = fixed_earnings_instance(10, [[1], [1]], [0, 1])
        expanded, groups = expand_to_equal_earnings(inst)
        assert expanded.n == 1 and groups == ((), (0,))

    def test_expanded_budgets_match(self):
        inst = fixed_earnings_instance(10, [[1, 3], [None, 1]], [2, 1])
        expanded, groups = expand_to_equal_earnings(inst)
        p = (F(1), F(1))
        for i, group in enumerate(groups):
            total = sum(agent_budget(expanded, k, p) for k in group)
            assert total == agent_budget(inst, i, p)


def test_last_clause_needs_no_terminating_zero():
    assert parse_dimacs("p cnf 3 1\n1 -2 3\n") == CNFFormula(3, [(1, -2, 3)])


#: One call per input check of the reduction, its exception type and a
#: fragment of its message.
REJECTED = {
    "no-variables": (lambda: CNFFormula(0, [(1, 2, 3)]), Malformed, "at least one variable"),
    "no-clauses": (lambda: CNFFormula(3, []), Malformed, "at least one clause"),
    "zero-literal": (
        lambda: CNFFormula(3, [(1, 0, 2)]), Malformed, "literals are nonzero signed integers"),
    "literal-past-count": (
        lambda: CNFFormula(2, [(1, 2, 3)]), Malformed, "literal 3 exceeds variable count"),
    "assignment-length": (
        lambda: PHI.satisfies([True]), Malformed, "assignment length must match"),
    "dimacs-header": (
        lambda: parse_dimacs("p dnf 3 1\n1 2 3 0\n"), Malformed, "bad DIMACS header"),
    "dimacs-no-problem-line": (
        lambda: parse_dimacs("1 2 3 0\n"), Malformed, "missing DIMACS problem line"),
    "dimacs-fewer-clauses": (
        lambda: parse_dimacs("p cnf 3 2\n1 2 3 0\n"),
        Malformed, "DIMACS problem line declares 2 clauses, found 1"),
    "dimacs-more-clauses": (
        lambda: parse_dimacs("p cnf 3 1\n1 2 3 0\n-1 2 3 0\n"),
        Malformed, "DIMACS problem line declares 1 clauses, found 2"),
    "dimacs-truncated": (
        lambda: parse_dimacs("p cnf 3 3\n1 2 3 0\n-1 2 3 0\n"),
        Malformed, "DIMACS problem line declares 3 clauses, found 2"),
    "tau-too-small": (
        lambda: SATGadgetParams(tau=F(3)), BadParams, "tau must exceed every finite disutility"),
    "eps-not-below-one": (
        lambda: SATGadgetParams(eps=F(1), gap=F(1, 12)), BadParams, "eps must be below one"),
    "params-text": (lambda: SATGadgetParams(eps="x"), Malformed, "bad rational literal"),
    "params-none": (lambda: SATGadgetParams(eps=None), Malformed, "not a rational"),
    "params-float": (lambda: SATGadgetParams(eps=0.1), Malformed, "not a rational"),
    "readback-not-a-gadget": (
        lambda: equilibrium_to_assignment(
            build_sat_gadget(PHI).instance, EquilibriumCandidate([F(1)], [[F(1)]])
        ),
        NotGadget, "gadget metadata required"),
    "readback-shape": (
        lambda: equilibrium_to_assignment(
            build_sat_gadget(PHI), EquilibriumCandidate([F(1)], [[F(1)]])
        ),
        NotGadget, "candidate shape does not match the gadget"),
    "expand-exchange": (
        lambda: expand_to_equal_earnings(exchange_instance(10, [[1]], [[1]])),
        Malformed, "applies to fixed earnings"),
    "expand-unit": (
        lambda: expand_to_equal_earnings(fixed_earnings_instance(10, [[1]], [1]), F(0)),
        BadParams, "unit must be positive"),
    "expand-unit-text": (
        lambda: expand_to_equal_earnings(fixed_earnings_instance(10, [[1]], [1]), "x"),
        Malformed, "bad rational literal"),
    "expand-unit-nan": (
        lambda: expand_to_equal_earnings(fixed_earnings_instance(10, [[1]], [1]), float("nan")),
        Malformed, "not a rational"),
    "expand-unit-none": (
        lambda: expand_to_equal_earnings(fixed_earnings_instance(10, [[1]], [1]), None),
        Malformed, "not a rational"),
    "expand-zero-earnings": (
        lambda: expand_to_equal_earnings(fixed_earnings_instance(10, [[1]], [0])),
        NonIntegralEarnings, "all agents have zero earning"),
}


@pytest.mark.parametrize("call, error, fragment", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
