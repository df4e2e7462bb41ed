"""Data model, validation, and JSON round-tripping."""

from fractions import Fraction

import numpy as np
import pytest

from choremarket.errors import DimensionMismatch, Malformed, ZeroPriceSum
from choremarket.model import (
    EquilibriumCandidate,
    Instance,
    agent_budget,
    candidate_from_json,
    candidate_to_json,
    chore_supply,
    exchange_instance,
    fixed_earnings_instance,
    instance_from_json,
    instance_to_json,
    normalize_prices,
    to_fraction,
)


class TestValidation:
    def test_rejects_disutility_at_threshold(self):
        with pytest.raises(Malformed):
            fixed_earnings_instance(3, [[3]], [1])

    def test_rejects_nonpositive_disutility(self):
        with pytest.raises(Malformed):
            fixed_earnings_instance(3, [[0]], [1])

    def test_rejects_unowned_chore(self):
        with pytest.raises(Malformed):
            exchange_instance(10, [[1, 1]], [[1, 0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exchange_instance(10, [[1, 1]], [[1]])

    def test_rejects_negative_earning(self):
        with pytest.raises(Malformed):
            fixed_earnings_instance(10, [[1]], [-1])

    def test_default_supply_is_one(self):
        inst = fixed_earnings_instance(10, [[1, 2]], [1])
        assert inst.supply == (Fraction(1), Fraction(1))

    def test_none_marks_forbidden_pairs(self, warmup):
        assert warmup.finite_chores(0) == (0, 1)
        assert warmup.finite_chores(1) == (1,)


class TestBudgetsAndSupply:
    def test_exchange_budget_is_endowment_value(self, intro):
        p = (Fraction(1, 4), Fraction(3, 4))
        assert agent_budget(intro, 0, p) == Fraction(1, 2)

    def test_fixed_budget_ignores_prices(self, warmup):
        assert agent_budget(warmup, 0, (Fraction(5), Fraction(7))) == 1

    def test_exchange_supply_sums_endowments(self, example2):
        assert chore_supply(example2, 0) == 1
        assert chore_supply(example2, 1) == 1

    def test_exchange_budget_scales_with_prices(self, intro):
        p = (Fraction(1, 4), Fraction(3, 4))
        scaled = tuple(3 * x for x in p)
        assert agent_budget(intro, 0, scaled) == 3 * agent_budget(intro, 0, p)


class TestNormalization:
    def test_normalize(self):
        assert normalize_prices((1, 3)) == (Fraction(1, 4), Fraction(3, 4))

    def test_normalize_rejects_zero(self):
        with pytest.raises(ZeroPriceSum):
            normalize_prices((0, 0))

    def test_to_fraction_parses_ratio_strings(self):
        assert to_fraction("3/4") == Fraction(3, 4)
        with pytest.raises(Malformed):
            to_fraction("x")


class TestToExchange:
    def test_preserves_supplies_and_budget_ratios(self, warmup):
        ex = warmup.to_exchange()
        assert ex.variant == "exchange"
        for j in range(ex.m):
            assert chore_supply(ex, j) == chore_supply(warmup, j)
        p = (Fraction(1), Fraction(1))
        # Total supply value at these prices equals total earnings (= 2),
        # so budgets coincide with the fixed earnings.
        assert agent_budget(ex, 0, p) == warmup.earning[0]


class TestFloatView:
    def test_budgets_match_agent_budget_bitwise(self):
        inst = exchange_instance(
            10, [[1, 2, 3], [2, 1, 1]], [["1/3", "2/7", "5/9"], ["1/11", 1, "3/13"]]
        )
        p = np.array([0.1, 0.7, 0.2]) / 1.3
        budgets = inst.float_budgets(p)
        for i in range(inst.n):
            assert budgets[i] == float(agent_budget(inst, i, p))
        for j in range(inst.m):
            assert inst.float_supply[j] == float(chore_supply(inst, j))

    def test_fixed_earnings_budgets(self, warmup):
        assert list(warmup.float_budgets(np.array([0.3, 0.7]))) == [1.0, 1.0]

    def test_views_are_read_only(self, intro):
        with pytest.raises(ValueError):
            intro.float_supply[0] = 2.0


class TestJson:
    def test_instance_roundtrip(self, warmup, intro):
        for inst in (warmup, intro):
            assert instance_from_json(instance_to_json(inst)) == inst

    def test_candidate_roundtrip_exact(self):
        cand = EquilibriumCandidate(
            (Fraction(1, 2), Fraction(1, 2)),
            ((1, 0), (0, 1)),
            flow=((Fraction(1, 2), 0), (0, Fraction(1, 2))),
        )
        assert candidate_from_json(candidate_to_json(cand)) == cand

    def test_candidate_roundtrip_float(self):
        cand = EquilibriumCandidate((0.5, 0.5), ((1.0, 0.0),), mode="float")
        assert candidate_from_json(candidate_to_json(cand)) == cand

    @pytest.mark.parametrize(
        "doc",
        [
            {"variant": "exchange", "tau": "10", "disutility": [["1"]]},
            {"variant": "fixed_earnings", "tau": "10", "disutility": [["1"]]},
            {"variant": "barter", "tau": "10", "disutility": [["1"]], "earning": ["1"]},
            {"variant": "exchange", "tau": "10", "disutility": 1, "endowment": [["1"]]},
        ],
    )
    def test_bad_instance_documents_are_malformed(self, doc):
        with pytest.raises(Malformed):
            instance_from_json(doc)

    def test_bad_float_candidate_is_malformed(self):
        with pytest.raises(Malformed):
            candidate_from_json({"mode": "float", "prices": ["x"], "allocation": [["1"]]})

    def test_exact_flow_must_match(self):
        with pytest.raises(Malformed):
            EquilibriumCandidate(
                (Fraction(1),), ((Fraction(1),),), flow=((Fraction(2),),)
            )
