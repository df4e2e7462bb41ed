"""Data model, validation, and JSON round-tripping."""

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from choremarket.errors import DimensionMismatch, Infeasible, Malformed, ZeroPriceSum
from choremarket.lp import _ZERO
from choremarket.model import (
    EXCHANGE,
    FIXED_EARNINGS,
    EquilibriumCandidate,
    Instance,
    _json_text,
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

    @pytest.mark.parametrize("bad", [Fraction(-1, 3), 0, 0.0, -1])
    def test_rejects_negative_or_non_fraction_endowment(self, bad):
        endowment = ((Fraction(1), bad), (Fraction(0), Fraction(1)))
        with pytest.raises(Malformed, match="endowments must be nonnegative rationals"):
            Instance("exchange", Fraction(10), ((Fraction(1),) * 2,) * 2, endowment=endowment)

    @pytest.mark.parametrize("bad", [Fraction(-1, 3), 0, 0.0])
    def test_rejects_negative_or_non_fraction_earning_and_supply(self, bad):
        with pytest.raises(Malformed, match="earnings"):
            Instance("fixed_earnings", Fraction(10), ((Fraction(1),),), earning=(bad,))
        with pytest.raises(Malformed, match="supplies"):
            Instance(
                "fixed_earnings",
                Fraction(10),
                ((Fraction(1),),),
                earning=(Fraction(1),),
                supply=(bad,),
            )
        with pytest.raises(Malformed, match="supplies"):
            fixed_earnings_instance(10, [[1]], [1], supply=[0])

    def test_rejects_negative_disutility(self):
        with pytest.raises(Malformed, match="strictly positive"):
            Instance("fixed_earnings", Fraction(10), ((Fraction(-1, 3),),), earning=(Fraction(1),))

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

    def test_exchange_budget_keeps_the_price_type(self):
        # Zero endowments are skipped, yet an empty sum keeps the price type.
        inst = exchange_instance(100, [[1, 1], [1, 1]], [[1, 2], [0, 0]])
        exact = agent_budget(inst, 1, (Fraction(1, 3), Fraction(2, 3)))
        assert exact == 0 and isinstance(exact, Fraction)
        assert repr(agent_budget(inst, 1, (0.25, 0.75))) == "0.0"
        assert agent_budget(inst, 0, (Fraction(1, 3), Fraction(2, 3))) == Fraction(5, 3)
        assert agent_budget(inst, 0, (0.25, 0.75)) == 1.75

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


class TestLiteralParity:
    def test_to_fraction_reads_literals_as_fraction_does(self):
        rng = random.Random(0)
        literals = [
            "0/1", "-3/4", "+3/4", " 3/4 ", "6/8", "-0/5", "007/010", "7",
            "1234567890123456789012345678901234567890/3",
            "3/-4", "--3/4", "3/0", "0/0", "-3/00", "/4", "3/", "-/4", "3/4/5",
            "1.5", "1e3", "1_0/3", "\u0663/4", "3/\u0664", "\u00b2/3", "x", "",
            "1" * 5000 + "/3", "3/" + "7" * 5000,  # past int()'s digit limit
        ] + [
            f"{rng.choice(['', '-'])}{rng.randrange(10 ** rng.randint(1, 30))}"
            f"/{rng.randrange(1, 10 ** rng.randint(1, 30))}"
            for _ in range(200)
        ]
        for text in literals * 2:  # the second round reads from the memo
            try:
                want = Fraction(text)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(Malformed, match="bad rational literal"):
                    to_fraction(text)
                continue
            got = to_fraction(text)
            assert type(got) is Fraction and got == want, text


class _Sub(Fraction):
    """A Fraction subclass: the shared-zero skip misses it, so it falls back
    to the full check."""


class TestFastPathParity:
    """Validation and encoding skip the shared zero and read numerators and
    denominators instead of comparing Fractions; each answer, accept or
    reject with its message, is the full check's."""

    def test_tau_bound_holds_exactly_at_sixty_digits(self):
        rng = random.Random(60)
        tau = Fraction(rng.randrange(10**59, 10**60), rng.randrange(10**59, 10**60))
        tiny = Fraction(1, 10**121)
        for entry, accepted in ((tau, False), (tau - tiny, True), (tau + tiny, False)):
            assert entry.numerator > 10**59 and entry.denominator > 10**59
            make = lambda: Instance(FIXED_EARNINGS, tau, ((entry,),), earning=(Fraction(1),))
            if accepted:
                assert make().disutility == ((entry,),)
            else:
                with pytest.raises(Malformed, match="strictly below tau"):
                    make()
        # Random 60-digit entries near tau: rejected exactly when entry >= tau.
        for _ in range(200):
            entry = tau + Fraction(rng.randrange(-10**6, 10**6), rng.randrange(10**60, 10**61))
            try:
                Instance(FIXED_EARNINGS, tau, ((entry,),), earning=(Fraction(1),))
                rejected = False
            except Malformed as exc:
                assert "strictly below tau" in str(exc)
                rejected = True
            assert rejected == (entry >= tau)

    def test_fraction_subclass_entries_are_accepted(self):
        half, zero = _Sub(1, 2), _Sub(0)
        inst = Instance(
            EXCHANGE, _Sub(3), ((half, None), (half, half)), endowment=((half, zero), (zero, half))
        )
        plain = exchange_instance(3, [[Fraction(1, 2), None], [Fraction(1, 2)] * 2],
                                  [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        assert inst == plain and instance_to_json(inst) == instance_to_json(plain)
        assert to_fraction(half) is half
        with pytest.raises(Malformed, match="endowments must be nonnegative rationals"):
            Instance(EXCHANGE, _Sub(3), ((half,),), endowment=((_Sub(-1, 2),),))
        with pytest.raises(Malformed, match="strictly below tau"):
            Instance(FIXED_EARNINGS, _Sub(3), ((_Sub(3),),), earning=(half,))
        with pytest.raises(Malformed, match="chore 0 has zero total endowment"):
            Instance(EXCHANGE, _Sub(3), ((half,),), endowment=((zero,),))

    def test_zero_total_endowment_names_the_first_such_chore(self):
        fresh = Fraction(0)
        rows = [[Fraction(1), _ZERO, fresh, Fraction(2), _ZERO]] * 2
        with pytest.raises(Malformed, match=r"^chore 1 has zero total endowment$"):
            exchange_instance(10, [[1] * 5] * 2, rows)
        rows = [[Fraction(1), Fraction(1), Fraction(1), Fraction(2), fresh]] * 2
        with pytest.raises(Malformed, match=r"^chore 4 has zero total endowment$"):
            exchange_instance(10, [[1] * 5] * 2, rows)
        # Every entry's sign is checked before any chore's total.
        rows = [[Fraction(1), _ZERO, Fraction(1)], [Fraction(1), _ZERO, Fraction(-1)]]
        with pytest.raises(Malformed, match="endowments must be nonnegative rationals"):
            exchange_instance(10, [[1] * 3] * 2, rows)

    def test_encoding_does_not_depend_on_the_shared_zero(self):
        shared = exchange_instance(
            10, [[1, None, 2], [3, 1, None]], [[1, _ZERO, _ZERO], [_ZERO, 2, 1]]
        )
        fresh = Instance(
            EXCHANGE,
            shared.tau,
            shared.disutility,
            endowment=[[Fraction(0) if not x else x for x in row] for row in shared.endowment],
        )
        assert all(x is not _ZERO for row in fresh.endowment for x in row)
        assert fresh == shared and instance_to_json(fresh) == instance_to_json(shared)
        assert fresh.supplies == shared.supplies
        assert agent_budget(fresh, 1, (1.0, 2.0, 0.5)) == agent_budget(shared, 1, (1.0, 2.0, 0.5))
        prices = (Fraction(1, 2), Fraction(1), _ZERO)
        rows = ((Fraction(1, 3), _ZERO, _ZERO), (_ZERO, Fraction(2), _ZERO))
        want = candidate_to_json(EquilibriumCandidate(prices, rows))
        for zero in (Fraction(0), 0):
            swap = lambda values: [zero if x is _ZERO else x for x in values]
            cand = EquilibriumCandidate(swap(prices), [swap(row) for row in rows])
            assert candidate_to_json(cand) == want
        assert want["allocation"][0] == ["1/3", "0/1", "0/1"] and want["prices"][2] == "0/1"

    def test_decoders_hand_out_the_shared_zero(self):
        for literal in ("0/1", "0", "-0/7", "0.0"):
            assert to_fraction(literal) is _ZERO
        cand = candidate_from_json({"prices": ["1/1", "0"], "allocation": [["0/1", "0/3"]]})
        assert cand.prices[1] is _ZERO and all(x is _ZERO for x in cand.allocation[0])


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


class TestJson:
    def test_instance_roundtrip(self, warmup, intro):
        for inst in (warmup, intro):
            assert instance_from_json(instance_to_json(inst)) == inst

    def test_candidate_roundtrip_exact(self):
        cand = EquilibriumCandidate((Fraction(1, 2), Fraction(1, 2)), ((1, 0), (0, 1)))
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

    @pytest.mark.parametrize("field", ["prices", "allocation"])
    def test_float_candidate_rejects_rational_zero_literal(self, field):
        doc = {"mode": "float", "prices": [1.0], "allocation": [[0.0]]}
        doc[field] = ["0/1"] if field == "prices" else [["0/1"]]
        with pytest.raises(Malformed):
            candidate_from_json(doc)

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), None, "1", True, False, pytest.param(10**400, id="huge-int")],
    )
    def test_float_candidate_entries_must_be_finite_reals(self, bad):
        with pytest.raises(Malformed):
            EquilibriumCandidate((0.5, bad), ((1.0, 0.0),), mode="float")
        with pytest.raises(Malformed):
            EquilibriumCandidate((0.5, 0.5), ((1.0, bad),), mode="float")

    @pytest.mark.parametrize(
        "bad",
        [0.5, 1.0, True, False, None, "1", float("nan"), pytest.param(Decimal(1), id="decimal")],
    )
    def test_exact_candidate_entries_are_fractions_or_ints(self, bad):
        with pytest.raises(Malformed, match="exact candidate entries must be rational numbers"):
            EquilibriumCandidate((Fraction(1, 2), bad), ((1, 0),))
        with pytest.raises(Malformed, match="exact candidate entries must be rational numbers"):
            EquilibriumCandidate((Fraction(1, 2), Fraction(1, 2)), ((1, bad),))
        assert EquilibriumCandidate((Fraction(1, 2), 1), ((1, 0),)).prices[1] == 1


#: Scalars that must come out as ``json`` writes them: escapes, non-ASCII
#: text (also outside the BMP), ints past 2**64, float extremes and
#: non-finite floats, which ``json`` writes as NaN and Infinity.
_JSON_SCALARS = (
    "", "plain", "naïve", "☃", "\U0001f600", "tab\there", 'quote"', "back\\slash",
    "\x00\x1f\x7f", "line\nbreak", True, False, None, 0, -7, 2**64, -(2**64) - 1, 10**40,
    0.0, -0.0, 0.1, 1e-300, 1e300, float("inf"), float("-inf"), float("nan"),
)


def _json_value(rng, depth):
    """A random JSON value: nested dicts, lists and tuples, empty ones at
    every depth, arrays of scalars and arrays that mix in containers."""
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        return rng.choice(_JSON_SCALARS)
    size = rng.choice((0, 1, 2, 3, 5))
    if roll < 0.5:
        return [rng.choice(_JSON_SCALARS) for _ in range(size)]
    if roll < 0.6:
        return tuple(rng.choice(_JSON_SCALARS) for _ in range(size))
    if roll < 0.75:
        return [_json_value(rng, depth + 1) for _ in range(size)]
    if roll < 0.85:
        return tuple(_json_value(rng, depth + 1) for _ in range(size))
    keys = rng.sample([s for s in _JSON_SCALARS if isinstance(s, str)] + ["a", "b", "z"], size)
    return {key: _json_value(rng, depth + 1) for key in keys}


class TestJsonText:
    """``_json_text`` is ``json.dumps(doc, indent=2, sort_keys=True)``."""

    def test_matches_json_dumps_on_random_documents(self):
        rng = random.Random(33)
        docs = [_json_value(rng, 0) for _ in range(400)]
        docs += [
            {"variant": "x", "rows": [[None, "1/2"], ["0/1", None]], "empty": [[], {}, ()]},
            [[True, False], (None, 1), [{"k": ()}], {}, [[[]]], ("a", [0.5, {"b": [None]}])],
            {1: "int key", 2: [1]}, {True: 0}, {None: 0}, {1.5: [], -0.0: {}},
            *_JSON_SCALARS,
        ]
        for doc in docs:
            assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True), doc

    def test_each_scalar_array_is_one_encoder_call(self, monkeypatch):
        # One C-encoder call per array of scalars, bools and None included,
        # and one encoder per indent.
        doc = [[True, False], [None, 1, "a", 2.5], (False,), [[True], []]]
        want = json.dumps(doc, indent=2, sort_keys=True)
        made, encoded = [], []

        class Counting(json.JSONEncoder):
            def __init__(self, **kwargs):
                made.append(kwargs["separators"])
                super().__init__(**kwargs)

            def encode(self, value):
                encoded.append(value)
                return super().encode(value)

        monkeypatch.setattr(json, "JSONEncoder", Counting)
        assert _json_text(doc) == want
        assert encoded == [doc[0], doc[1], doc[2], doc[3][0]]
        assert made == [(",\n    ", ": "), (",\n      ", ": ")]

    def test_unserialisable_values_raise_as_in_json(self):
        for doc in ({"a": {1, 2}}, [object()], {(1,): 2}):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                _json_text(doc)


_F1 = Fraction(1)
_WARMUP = fixed_earnings_instance(100, [[1, 3], [None, 1]], [1, 1])
_INTRO = exchange_instance(100, [[1, 3], [3, 1]], [[1, 1], [1, 1]])

#: One call per input check of the model, its exception type and a fragment
#: of its message.
REJECTED = {
    "unknown-variant": (
        lambda: Instance("barter", _F1, ((_F1,),)), Malformed, "unknown variant 'barter'"),
    "tau-not-positive": (
        lambda: Instance(EXCHANGE, Fraction(0), ((_F1,),), endowment=((_F1,),)),
        Malformed, "tau must be a positive rational"),
    "no-agents": (
        lambda: Instance(EXCHANGE, _F1, (), endowment=()), Malformed, "at least one agent"),
    "no-chores": (
        lambda: Instance(EXCHANGE, _F1, ((),), endowment=((),)), Malformed, "at least one agent"),
    "ragged-disutility": (
        lambda: exchange_instance(10, [[1, 1], [1]], [[1, 1], [1, 1]]),
        Malformed, "ragged disutility matrix"),
    "int-disutility": (
        lambda: Instance(EXCHANGE, Fraction(10), ((1,),), endowment=((_F1,),)),
        Malformed, "disutility entries must be Fraction or None"),
    "exchange-with-earning": (
        lambda: Instance(EXCHANGE, Fraction(10), ((_F1,),), endowment=((_F1,),), earning=(_F1,)),
        Malformed, "exchange variant takes exactly an endowment matrix"),
    "fixed-earnings-with-endowment": (
        lambda: Instance(FIXED_EARNINGS, Fraction(10), ((_F1,),), endowment=((_F1,),)),
        Malformed, "fixed-earnings variant takes an earning vector"),
    "earning-length": (
        lambda: fixed_earnings_instance(10, [[1]], [1, 1]),
        DimensionMismatch, "earning length must match agent count"),
    "supply-length": (
        lambda: fixed_earnings_instance(10, [[1]], [1], [1, 1]),
        DimensionMismatch, "supply length must match chore count"),
    "to-exchange-zero-earnings": (
        lambda: fixed_earnings_instance(10, [[1]], [0]).to_exchange(),
        Infeasible, "all earnings are zero"),
    "budget-agent-index": (
        lambda: agent_budget(_WARMUP, 2, (_F1, _F1)), DimensionMismatch, "agent index 2"),
    "budget-negative-agent-index": (
        lambda: agent_budget(_INTRO, -1, (_F1, _F1)), DimensionMismatch, "agent index -1"),
    "budget-price-length": (
        lambda: agent_budget(_INTRO, 0, (_F1,)),
        DimensionMismatch, "price vector length must match chore count"),
    "supply-chore-index": (
        lambda: chore_supply(_WARMUP, 2), DimensionMismatch, "chore index 2 out of range"),
    "candidate-mode": (
        lambda: EquilibriumCandidate((_F1,), ((_F1,),), mode="decimal"),
        Malformed, "unknown numeric mode 'decimal'"),
    "candidate-ragged-allocation": (
        lambda: EquilibriumCandidate((_F1, _F1), ((_F1, _F1), (_F1,))),
        DimensionMismatch, "allocation width must match price length"),
    "instance-document-array": (
        lambda: instance_from_json([]), Malformed, "instance document must be a JSON object"),
    "candidate-document-array": (
        lambda: candidate_from_json([]),
        Malformed, "equilibrium document must be a JSON object"),
    "float-rational": (lambda: to_fraction(0.5), Malformed, "not a rational: 0.5"),
}


@pytest.mark.parametrize("call, error, fragment", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
