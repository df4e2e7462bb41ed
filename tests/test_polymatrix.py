"""Polymatrix reduction: schedules, gadget structure, strategy recovery."""

import functools
from dataclasses import replace
from fractions import Fraction

import pytest

from choremarket.enumeration import enumerate_equilibria
from choremarket.errors import (
    BadGame,
    BadParams,
    DegenerateSize,
    DimensionMismatch,
    Malformed,
    NotGadget,
    OutOfBand,
)
from choremarket.graphs import check_conditions
from choremarket.model import (
    EquilibriumCandidate,
    candidate_from_json,
    candidate_to_json,
    chore_supply,
    instance_from_json,
    instance_to_json,
)
from choremarket.polymatrix import (
    PPADGadgetParams,
    PolymatrixGame,
    build_polymatrix_gadget,
    gadget_from_json,
    gadget_to_json,
    recover_strategy,
    verify_gadget_properties,
    verify_polymatrix_equilibrium,
)

F = Fraction

GAME2 = PolymatrixGame(
    2,
    [
        [1, 0, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [0, 1, F(1, 2), F(1, 2)],
    ],
)


def synthetic_endpoint_prices(gadget, signs, mode="float"):
    """Alternating band-endpoint prices; ``signs[i]`` picks the branch.
    Floats, or Fractions for ``mode="exact"``."""
    num = F if mode == "exact" else float
    params = gadget.params
    p = [num(0)] * gadget.instance.m
    for k in range(1, params.K + 1):
        a = num(params.alpha[k - 1])
        for pair in range(params.n):
            s = signs[pair] * (-1) ** k
            p[gadget.chore(k, 2 * pair)] = 1 + s * a
            p[gadget.chore(k, 2 * pair + 1)] = 1 - s * a
    zeros = [[num(0)] * gadget.instance.m for _ in range(gadget.instance.n)]
    return EquilibriumCandidate(p, zeros, mode=mode)


def _k2_params(**changes):
    """The K = 2 schedule of :func:`k2_equilibria`, with ``changes``."""
    alpha = (F(1, 100), F(3, 10))
    return replace(PPADGadgetParams(2, 1, 2, alpha, alpha, F(2)), **changes)


@functools.cache
def k2_equilibria():
    """GAME2's gadget on a hand-set schedule that ``validate()`` accepts
    (c = 1, K = 2, ``alpha = delta = (1/100, 3/10)``, tau = 2; 26 x 8), and
    its 49 exact equilibria, found by exhaustive search in about 1 s."""
    gadget = build_polymatrix_gadget(GAME2, _k2_params())
    return gadget, enumerate_equilibria(gadget.instance, cap=10**12).equilibria


class TestGame:
    def test_rejects_bad_pair_sum(self):
        with pytest.raises(BadGame):
            PolymatrixGame(1, [[1, 1], [0, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(BadGame):
            PolymatrixGame(1, [[2, -1], [0, 1]])


class TestVerifyPolymatrix:
    def test_small_identity_game(self):
        game = PolymatrixGame(1, [[1, 0], [0, 1]])
        assert verify_polymatrix_equilibrium(game, [0.5, 0.5]).ok

    def test_threshold_violation(self):
        # Player 0's first strategy wins by a full point (> 1/n = 1/2), yet
        # the losing strategy keeps all the weight.
        ones = [[1, 0, 1, 0]] * 4
        game = PolymatrixGame(2, ones)
        assert not verify_polymatrix_equilibrium(game, [0.0, 1.0, 1.0, 0.0]).ok
        assert verify_polymatrix_equilibrium(game, [1.0, 0.0, 1.0, 0.0]).ok

    def test_negative_weight_reported(self):
        game = PolymatrixGame(1, [[1, 0], [0, 1]])
        verdict = verify_polymatrix_equilibrium(game, [-0.5, 1.5])
        assert verdict.violations == ("strategy weight 0 is negative",)

    def test_losing_even_strategy_reported(self):
        # The odd strategies win by a full point (> 1/n = 1/2); player 0
        # still puts weight on its even one.
        game = PolymatrixGame(2, [[0, 1, 0, 1]] * 4)
        verdict = verify_polymatrix_equilibrium(game, [1.0, 0.0, 0.0, 1.0])
        assert verdict.violations == ("pair 0: losing strategy 0 still carries weight",)

    def test_pair_sum_checked(self):
        game = PolymatrixGame(1, [[1, 0], [0, 1]])
        assert not verify_polymatrix_equilibrium(game, [0.7, 0.7]).ok

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x", None, True, False])
    def test_bad_weight_is_malformed(self, bad):
        game = PolymatrixGame(1, [[1, 0], [0, 1]])
        with pytest.raises(Malformed):
            verify_polymatrix_equilibrium(game, [bad, 0.5])

    @pytest.mark.parametrize("huge", ["1e400", pytest.param(F(10**400), id="huge")])
    def test_huge_weight_is_read_exactly(self, huge):
        # Past float range, yet a rational: its pair sums to 10**400 + 1/2.
        game = PolymatrixGame(1, [[1, 0], [0, 1]])
        verdict = verify_polymatrix_equilibrium(game, [huge, 0.5])
        assert verdict.violations[0] == f"pair 0 weights sum to {10**400 * 2 + 1}/2, not 1"

    def test_float_weights_are_read_exactly(self):
        # 0.1 + 0.9 rounds to 1.0 in floats, but the two binary fractions
        # sum to just above one; only a slack forgives that.
        game = PolymatrixGame(1, [[1, 0], [0, 1]])
        assert verify_polymatrix_equilibrium(game, [0.5, "1/2"]).ok
        (sum_line,) = verify_polymatrix_equilibrium(game, [0.1, 0.9]).violations
        assert sum_line == f"pair 0 weights sum to {F(0.1) + F(0.9)}, not 1"
        assert verify_polymatrix_equilibrium(game, [0.1, 0.9], slack=1e-9).ok

    @pytest.mark.parametrize(
        "slack", [float("nan"), float("inf"), -1, pytest.param(10**400, id="huge-int"), "1", True]
    )
    def test_bad_slack_is_malformed(self, slack):
        # With a NaN slack every comparison is false: [5, 5, 5, 5] would pass.
        with pytest.raises(Malformed, match="tolerance must be"):
            verify_polymatrix_equilibrium(GAME2, [5, 5, 5, 5], slack=slack)


    def test_string_strategy_is_malformed(self):
        # Read one character per weight, "1010" would pass as [1, 0, 1, 0].
        game = PolymatrixGame(2, [[1, 0, 1, 0]] * 4)
        with pytest.raises(Malformed, match="not a string"):
            verify_polymatrix_equilibrium(game, "1010")


class TestParams:
    def test_rejects_single_player(self):
        with pytest.raises(DegenerateSize):
            PPADGadgetParams.for_size(1)

    @pytest.mark.parametrize("n,expected_k", [(2, 8), (3, 16), (4, 16)])
    def test_layer_counts(self, n, expected_k):
        assert PPADGadgetParams.for_size(n).K == expected_k

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_schedule_bounds_exact(self, n):
        params = PPADGadgetParams.for_size(n)
        assert params.alpha[0] == F(1, n ** (3 * params.c))
        for k in range(1, params.K):
            assert params.alpha[k] == params.alpha[k - 1] * F(3, 2)
        assert n**params.c * params.alpha[0] < params.alpha[-1]
        assert params.alpha[-1] <= F(1, n**params.c)
        for k in range(params.K):
            assert params.delta[k] == n * params.alpha[k] / 2


class TestGadgetStructure:
    def test_counts_n2(self):
        g = build_polymatrix_gadget(GAME2)
        assert g.instance.n == 62
        assert g.instance.m == 32

    def test_conditions_pass(self):
        g = build_polymatrix_gadget(GAME2)
        assert check_conditions(g.instance).ok

    def test_chore_totals(self):
        g = build_polymatrix_gadget(GAME2)
        n, K = g.params.n, g.params.K
        alpha_k = g.params.alpha[-1]
        for i in range(2 * n):
            assert chore_supply(g.instance, g.chore(1, i)) == n + n * (1 - alpha_k)
        for k in range(2, K + 1):
            for i in range(2 * n):
                assert (
                    chore_supply(g.instance, g.chore(k, i))
                    == n + g.params.delta[k - 1]
                )

    def test_structural_property_check(self):
        g = build_polymatrix_gadget(GAME2)
        rep = verify_gadget_properties(g)
        assert rep.ok
        assert rep.check("pairwise-equal-endowments").ok

    def test_unequal_pair_endowments_are_reported(self):
        g = build_polymatrix_gadget(GAME2)
        even, odd = g.chore(2, 0), g.chore(2, 1)
        w = [list(row) for row in g.instance.endowment]
        w[0][odd] += F(1, 3)
        bad = replace(g, instance=replace(g.instance, endowment=w))
        rep = verify_gadget_properties(bad)
        totals = chore_supply(bad.instance, even), chore_supply(bad.instance, odd)
        assert rep.check("pairwise-equal-endowments").details == (
            f"layer 2 pair 0: {totals[0]} vs {totals[1]}",
        )

    def test_json_roundtrip(self):
        g = build_polymatrix_gadget(GAME2)
        again = gadget_from_json(gadget_to_json(g))
        assert again.instance == g.instance

    def test_model_json_roundtrip(self):
        g = build_polymatrix_gadget(GAME2)
        inst = g.instance
        assert instance_from_json(instance_to_json(inst)) == inst
        prices = [F(1)] * inst.m
        for k in range(1, g.params.K + 1):
            a = g.params.alpha[k - 1]
            for pair in range(g.params.n):
                prices[g.chore(k, 2 * pair)] = 1 + (-1) ** k * a
                prices[g.chore(k, 2 * pair + 1)] = 1 - (-1) ** k * a
        allocation = [[F(0)] * inst.m for _ in range(inst.n)]
        allocation[0][0] = F(1, 3)
        exact = EquilibriumCandidate(prices, allocation)
        assert candidate_from_json(candidate_to_json(exact)) == exact
        floats = synthetic_endpoint_prices(g, (1, -1))
        assert candidate_from_json(candidate_to_json(floats)) == floats

    def test_plain_instance_is_not_a_gadget(self):
        g = build_polymatrix_gadget(GAME2)
        with pytest.raises(NotGadget):
            gadget_from_json(instance_to_json(g.instance))

    @pytest.mark.parametrize("field", ["n", "c", "K"])
    def test_non_integer_size_is_malformed(self, field):
        doc = gadget_to_json(build_polymatrix_gadget(GAME2))
        params = doc["metadata"]["params"]
        for bad in (params[field] + 0.5, float(params[field]), str(params[field]), True):
            params[field] = bad
            with pytest.raises(Malformed, match="not an integer"):
                gadget_from_json(doc)


class TestRecovery:
    def test_synthetic_endpoints_give_pure_pairs(self):
        g = build_polymatrix_gadget(GAME2)
        for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            cand = synthetic_endpoint_prices(g, signs)
            rep = verify_gadget_properties(g, cand)
            assert rep.ok, [c for c in rep.checks if not c.ok]
            x = recover_strategy(g, cand)
            for i in range(g.params.n):
                assert sorted((x[2 * i], x[2 * i + 1])) == [0.0, 1.0]

    @staticmethod
    def _perturbed(g, edits):
        """Endpoint prices of signs (1, 1) (layer ``k``'s pairs sit at the
        high endpoint for even ``k``, the low one for odd ``k``), with
        ``edits`` mapping ``(layer, index)`` to a new price."""
        cand = synthetic_endpoint_prices(g, (1, 1))
        p = list(cand.prices)
        for (k, i), price in edits.items():
            p[g.chore(k, i)] = price
        return verify_gadget_properties(g, replace(cand, prices=p))

    @staticmethod
    def _details(rep, name):
        check = rep.check(name)
        assert check.ok is not bool(check.details)
        return check.details

    def test_price_shape_failures_are_detailed(self):
        g = build_polymatrix_gadget(GAME2)
        # Layer-1 pair 1 scaled up: its sum and both of its column agents' budgets.
        rep = self._perturbed(g, {(1, 2): 1.1, (1, 3): 1.1})
        (total,) = self._details(rep, "price-equality")
        assert total.startswith("layer 1 pair 1 sums to ")
        assert float(total.rsplit(" ", 1)[1]) == pytest.approx(2.2)
        budgets = self._details(rep, "fixed-column-earnings")
        assert [d.split(":")[0] for d in budgets] == ["column agent 2", "column agent 3"]
        assert not self._details(rep, "price-regulation")
        # A zero odd price leaves the pair without a ratio.
        rep = self._perturbed(g, {(3, 3): 0.0})
        assert self._details(rep, "price-regulation") == (
            "layer 3 pair 1: odd chore price is zero",
        )
        assert not self._details(rep, "reverse-ratio-amplification")

    @pytest.mark.parametrize("layer, endpoint", [(3, "high"), (4, "low")])
    def test_off_band_ratio_breaks_amplification(self, layer, endpoint):
        # Ratio 3 in pair 0 of ``layer``: off its band, and no flip from the
        # endpoint one layer down.
        g = build_polymatrix_gadget(GAME2)
        rep = self._perturbed(g, {(layer, 0): 1.5, (layer, 1): 0.5})
        assert not self._details(rep, "price-equality")
        (off,) = self._details(rep, "price-regulation")
        assert off.startswith(f"layer {layer} pair 0: ratio ") and off.endswith(" off band")
        (flip,) = self._details(rep, "reverse-ratio-amplification")
        assert flip.startswith(f"layer {layer - 1} pair 0 at {endpoint} endpoint, next ratio ")
        assert float(flip.rsplit(" ", 1)[1]) == pytest.approx(3.0)

    def test_out_of_band_rejected(self):
        g = build_polymatrix_gadget(GAME2)
        cand = synthetic_endpoint_prices(g, (1, 1))
        bad = list(cand.prices)
        bad[g.chore(g.params.K, 0)] = 2.0
        cand2 = EquilibriumCandidate(bad, cand.allocation, mode="float")
        with pytest.raises(OutOfBand):
            recover_strategy(g, cand2)

    def test_interior_price_maps_to_half(self):
        g = build_polymatrix_gadget(GAME2)
        cand = synthetic_endpoint_prices(g, (1, 1))
        flat = list(cand.prices)
        for i in range(2 * g.params.n):
            flat[g.chore(g.params.K, i)] = 1.0
        cand2 = EquilibriumCandidate(flat, cand.allocation, mode="float")
        x = recover_strategy(g, cand2)
        assert all(abs(v - 0.5) < 1e-9 for v in x)

    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), -1, pytest.param(10**400, id="huge-int"), "1", True]
    )
    @pytest.mark.parametrize("check", [verify_gadget_properties, recover_strategy])
    def test_bad_tolerance_is_malformed(self, check, tol):
        g = build_polymatrix_gadget(GAME2)
        with pytest.raises(Malformed, match="tolerance must be"):
            check(g, synthetic_endpoint_prices(g, (1, 1)), tol=tol)

    def test_exact_endpoints_recover_exact_pure_strategies(self):
        g = build_polymatrix_gadget(GAME2)
        for signs in [(1, -1), (-1, 1)]:
            cand = synthetic_endpoint_prices(g, signs, mode="exact")
            assert verify_gadget_properties(g, cand, tol=0).ok
            x = recover_strategy(g, cand, tol=0)
            assert all(type(v) is F for v in x)
            assert x == recover_strategy(g, synthetic_endpoint_prices(g, signs))


class TestExactChain:
    def test_k2_gadget_equilibria(self):
        """Every equilibrium of the K = 2 gadget, through the exact chain.

        Each recovered strategy is a vector of Fractions whose pairs sum to
        exactly one, so ``slack=0`` reports no pair-sum or sign violation.
        25 of the 49 equilibria recover a threshold equilibrium of GAME2 and
        24 do not.  ROADMAP item 13 may change ``validate()`` so that it
        rejects this schedule, and with it this split.
        """
        g, equilibria = k2_equilibria()
        assert len(equilibria) == 49
        passed = 0
        for eq in equilibria:
            x = recover_strategy(g, eq.candidate)
            assert all(type(v) is F for v in x)
            assert all(x[2 * i] + x[2 * i + 1] == 1 for i in range(GAME2.n))
            verdict = verify_polymatrix_equilibrium(GAME2, x, slack=0)
            assert not [v for v in verdict.violations if "sum to" in v or "negative" in v]
            passed += verdict.ok
        assert (passed, len(equilibria) - passed) == (25, 24)


def _zero_first_pair():
    g = build_polymatrix_gadget(GAME2, _k2_params())
    prices = [F(1)] * g.instance.m
    prices[g.chore(1, 0)] = prices[g.chore(1, 1)] = F(0)
    zeros = [[F(0)] * g.instance.m for _ in range(g.instance.n)]
    return g, EquilibriumCandidate(prices, zeros)


def test_params_read_ints_and_rational_literals():
    # An int tau and string schedule entries read as to_fraction reads them,
    # and build the same market as the Fraction schedule.
    params = _k2_params(tau=2, alpha=("1/100", "3/10"), delta=(F(1, 100), "0.3"))
    assert params == _k2_params() and type(params.tau) is F
    want = build_polymatrix_gadget(GAME2, _k2_params()).instance
    assert build_polymatrix_gadget(GAME2, params).instance == want


#: One call per input check of the reduction, its exception type and a
#: fragment of its message.
REJECTED = {
    "no-players": (lambda: PolymatrixGame(0, ()), BadGame, "at least one player"),
    "payoff-shape": (
        lambda: PolymatrixGame(1, [[1, 0]]), BadGame, "payoff matrix must be 2n x 2n"),
    "payoff-bool-and-float": (
        lambda: PolymatrixGame(1, [[True, False], [0.25, 0.75]]), Malformed, "not a rational"),
    "schedule-length": (
        lambda: _k2_params(alpha=(F(1, 100),)).validate(),
        BadParams, "schedule length must equal K"),
    "odd-K": (
        lambda: _k2_params(K=3, alpha=(F(1, 100),) * 3, delta=(F(1, 100),) * 3).validate(),
        BadParams, "K must be a positive even number"),
    "top-band-too-small": (
        lambda: _k2_params(alpha=(F(1, 100), F(1, 50))).validate(),
        BadParams, "top band must dominate the bottom band"),
    "top-band-too-large": (
        lambda: _k2_params(alpha=(F(1, 100), F(6, 10))).validate(),
        BadParams, "top band must stay below 1 / n**c"),
    "tau-too-small": (
        lambda: _k2_params(tau=F(13, 10)).validate(),
        BadParams, "tau must exceed every finite disutility"),
    "schedule-float": (
        lambda: _k2_params(alpha=(F(1, 100), 0.3)), Malformed, "not a rational: 0.3"),
    "schedule-bool": (
        lambda: _k2_params(delta=(True, F(3, 10))), Malformed, "not a rational: True"),
    "schedule-none": (
        lambda: _k2_params(alpha=(None, F(3, 10))), Malformed, "not a rational: None"),
    "schedule-unreadable": (
        lambda: _k2_params(delta=(F(1, 100), "3/x")), Malformed, "bad rational literal: '3/x'"),
    "tau-float": (lambda: _k2_params(tau=2.0), Malformed, "not a rational: 2.0"),
    "size-bool": (lambda: _k2_params(c=True), Malformed, "not an integer: True"),
    "size-float": (lambda: _k2_params(K=2.0), Malformed, "not an integer: 2.0"),
    "size-string": (lambda: _k2_params(n="2"), Malformed, "not an integer: '2'"),
    "params-size": (
        lambda: build_polymatrix_gadget(PolymatrixGame(1, [[1, 0], [0, 1]]), _k2_params()),
        BadParams, "parameter size must match the game"),
    "strategy-length": (
        lambda: verify_polymatrix_equilibrium(GAME2, [1, 0]),
        DimensionMismatch, "strategy length must be 2n"),
    "no-price-mass": (
        lambda: recover_strategy(*_zero_first_pair()),
        OutOfBand, "first layer-1 pair carries no price mass"),
    "unknown-check": (
        lambda: verify_gadget_properties(build_polymatrix_gadget(GAME2, _k2_params()))
        .check("no-such-check"),
        KeyError, "no-such-check"),
}


@pytest.mark.parametrize("call, error, fragment", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
