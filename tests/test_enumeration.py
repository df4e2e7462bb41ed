"""Pattern enumeration of exact equilibria."""

import hashlib
import random
from fractions import Fraction

import pytest

from choremarket import lp
from choremarket.enumeration import (
    PATTERN_CAP,
    SolveOutcome,
    _pattern_lp,
    _patterns,
    _solve_pattern,
    enumerate_equilibria,
    exists_equilibrium,
    solve,
)
from choremarket.errors import Malformed, PatternBudgetExceeded
from choremarket.model import (
    EXCHANGE,
    EquilibriumCandidate,
    exchange_instance,
    fixed_earnings_instance,
    normalize_prices,
)
from choremarket.sat_reduction import CNFFormula, build_sat_gadget
from choremarket.verification import verify_equilibrium

from conftest import (
    PATTERN_MARKETS,
    covering_patterns,
    fixed_earnings_twin,
    pattern_market,
    random_conditioned_instance,
)

F = Fraction


class TestWarmup:
    def test_exactly_two_rays(self, warmup):
        res = enumerate_equilibria(warmup)
        assert set(res.rays) == {
            (F(1, 2), F(1, 2)),
            (F(1, 4), F(3, 4)),
        }

    def test_candidates_verify_exactly(self, warmup):
        for e in enumerate_equilibria(warmup).equilibria:
            assert verify_equilibrium(warmup, e.candidate).ok

    def test_natural_scale_prices(self, warmup):
        # Fixed earnings pin the price scale: total supply value = total
        # earnings = 2.
        for e in enumerate_equilibria(warmup).equilibria:
            assert sum(e.candidate.prices) == 2

    def test_patterns_recorded(self, warmup):
        res = enumerate_equilibria(warmup)
        patterns = {e.pattern for e in res.equilibria}
        assert (frozenset({0}), frozenset({1})) in patterns
        assert (frozenset({0, 1}), frozenset({1})) in patterns


class TestIntro:
    def test_three_rays(self, intro):
        res = enumerate_equilibria(intro)
        assert set(res.rays) == {
            (F(1, 2), F(1, 2)),
            (F(1, 4), F(3, 4)),
            (F(3, 4), F(1, 4)),
        }


class TestNonExistence:
    def test_example1_empty(self, example1):
        assert enumerate_equilibria(example1).equilibria == ()

    def test_example2_empty(self, example2):
        assert enumerate_equilibria(example2).equilibria == ()

    def test_agent_must_earn_but_cannot_work(self):
        inst = fixed_earnings_instance(10, [[1], [None]], [1, 1])
        assert enumerate_equilibria(inst).equilibria == ()


class TestControls:
    def test_pattern_cap(self, warmup):
        with pytest.raises(PatternBudgetExceeded):
            enumerate_equilibria(warmup, cap=1)

    def test_cap_refuses_before_building_the_sets(self):
        # One agent with 40 finite chores has 2**40 - 1 candidate sets, more
        # than memory holds: the cap must refuse them from their count.
        inst = fixed_earnings_instance(10, [[1] * 40], [1])
        with pytest.raises(PatternBudgetExceeded, match=f"^{2**40 - 1} patterns exceed"):
            enumerate_equilibria(inst)
        with pytest.raises(PatternBudgetExceeded):
            exists_equilibrium(inst)
        assert solve(inst) == SolveOutcome(None, 0, "cap")
        # An agent that must earn but has no finite chore leaves no pattern,
        # however many the others have.
        idle = fixed_earnings_instance(10, [[1] * 40, [None] * 40], [1, 1])
        assert enumerate_equilibria(idle).equilibria == ()

    def test_bad_epsilon(self, warmup):
        with pytest.raises(Malformed):
            enumerate_equilibria(warmup, epsilon=F(1))

    @pytest.mark.parametrize("cap", ["x", None, 2.5, True])
    @pytest.mark.parametrize("call", [enumerate_equilibria, exists_equilibrium])
    def test_non_integer_cap_is_malformed(self, warmup, call, cap):
        with pytest.raises(Malformed, match="not an integer"):
            call(warmup, cap=cap)

    @pytest.mark.parametrize("epsilon", ["x", None, float("nan")])
    @pytest.mark.parametrize(
        "call",
        [
            enumerate_equilibria,
            exists_equilibrium,
            lambda inst, epsilon: verify_equilibrium(
                inst, EquilibriumCandidate((1, 1), ((1, 0), (0, 1))), epsilon=epsilon
            ),
        ],
        ids=["enumerate_equilibria", "exists_equilibrium", "verify_equilibrium"],
    )
    def test_unreadable_epsilon_is_malformed(self, warmup, call, epsilon):
        with pytest.raises(Malformed, match=r"epsilon must lie in \[0, 1\)"):
            call(warmup, epsilon=epsilon)

    def test_float_epsilon_is_read_exactly(self, warmup):
        # 0.1 is read as its binary value, just above 1/10.
        cand = EquilibriumCandidate((1, 1), ((1, 0), (0, 1)))
        assert verify_equilibrium(warmup, cand, epsilon=0.1).epsilon == F(0.1)
        assert F(0.1) != F(1, 10)
        assert enumerate_equilibria(warmup, epsilon=0.1).rays

    def test_exists_matches_enumerate(self, warmup, example1):
        assert exists_equilibrium(warmup) is not None
        assert exists_equilibrium(example1) is None

    def test_epsilon_band_keeps_exact_equilibria(self, warmup):
        strict = set(enumerate_equilibria(warmup).rays)
        relaxed = set(enumerate_equilibria(warmup, epsilon=F(1, 10)).rays)
        assert strict <= relaxed

    def test_zero_earning_agent_sits_out(self):
        inst = _zero_earning()
        res = enumerate_equilibria(inst)
        assert res.equilibria
        for e in res.equilibria:
            assert all(x == 0 for x in e.candidate.allocation[2])


def _zero_earning():
    """A fixed-earnings market whose agent 2 earns nothing."""
    return fixed_earnings_instance(10, [[1, 3], [None, 1], [1, 1]], [1, 1, 0])


def _segment():
    """A 2x2 exchange market whose pattern ``({0}, {1})`` holds the whole
    segment of equilibrium rays with ``p0 / p1`` in ``[1, 2]``."""
    return exchange_instance(100, [[2, 2], [2, 1]], [[1, 0], [0, 1]])


def _kept(inst):
    """The search's leaves as a dict from pattern to closure, in order."""
    return dict(_patterns(inst, PATTERN_CAP))


def _no_positive_optimum(result):
    return result.status != lp.OPTIMAL or result.value <= 0


class TestPatternSearch:
    """The search keeps covering patterns in product order; that the
    patterns it cuts hold no equilibrium is checked in
    :class:`TestReducedProgram`."""

    @staticmethod
    def _assert_keeps_product_order(inst):
        kept = _kept(inst)
        assert list(kept) == [p for p in covering_patterns(inst) if p in kept]

    @pytest.mark.parametrize("name", ["warmup", "intro", "example1", "example2"])
    def test_fixtures(self, name, request):
        self._assert_keeps_product_order(request.getfixturevalue(name))

    @pytest.mark.parametrize("seed", range(50))
    def test_conditioned_seeds(self, seed):
        self._assert_keeps_product_order(random_conditioned_instance(random.Random(seed)))

    # Agents 0 and 1 tie p1 = 2 p0 and p2 = 3 p1, so p2 = 6 p0; agent 2's
    # disutility c on chore 2 and its set close a three-chore cycle.
    @pytest.mark.parametrize(
        "c, last, kept",
        [
            (6, {0, 2}, True),  # ties only, product exactly 1
            (6, {2}, False),  # p0 < p2 / 6: product 1 through a strict bound
            (6, {0}, False),  # p2 < 6 p0: the same, the other way round
            (5, {0, 2}, False),  # p2 = 5 p0: product 5/6 below 1
            (7, {0}, True),  # p2 < 7 p0: strict, product 7/6
        ],
    )
    def test_ratio_cycles(self, c, last, kept):
        inst = fixed_earnings_instance(
            10, [[1, 2, None], [None, 1, 3], [1, None, c]], [1, 1, 1]
        )
        pattern = (frozenset({0, 1}), frozenset({1, 2}), frozenset(last))
        assert pattern in covering_patterns(inst)
        assert (pattern in _kept(inst)) == kept


def _price_program(inst, epsilon, pattern):
    """The pattern LP over one price per chore, in rationals: prices ``p_j``,
    then each agent's flows in chore order, then the slack ``s``.  Each MPB
    set ties its members to its smallest chore ``r`` (``d_ir p_j = d_ij
    p_r``), keeps the agent's other finite chores strictly worse (``d_ir p_j
    + s <= d_ij p_r``), and every price is at least ``s``.  The reference
    for :func:`_pattern_lp`'s reduced program."""
    m = inst.m
    flows = [(i, j) for i, members in enumerate(pattern) for j in sorted(members)]
    num = m + len(flows) + 1
    slack = num - 1
    cons = []

    def row(entries, rel, rhs=0):
        coeffs = [F(0)] * num
        for k, x in entries:
            coeffs[k] += x
        cons.append(lp.constraint(coeffs, rel, rhs))

    for i, members in enumerate(pattern):
        d = inst.disutility[i]
        if members:
            rep = min(members)
            for j in inst.finite_chores(i):
                if j in members:
                    row([(j, d[rep]), (rep, -d[j])], lp.EQ)
                else:
                    row([(j, d[rep]), (rep, -d[j]), (slack, 1)], lp.LE)
        own = [(m + k, 1) for k, (a, _) in enumerate(flows) if a == i]
        if inst.variant == EXCHANGE:
            row(own + [(j, -w) for j, w in enumerate(inst.endowment[i])], lp.EQ)
        else:
            row(own, lp.EQ, inst.earning[i])
    for j, supply in enumerate(inst.supplies):
        into = [(m + k, 1) for k, (_, b) in enumerate(flows) if b == j]
        if epsilon == 0:
            row(into + [(j, -supply)], lp.EQ)
        else:
            row(into + [(j, -(1 - epsilon) * supply)], lp.GE)
            row(into + [(j, -supply / (1 - epsilon))], lp.LE)
    for j in range(m):
        row([(j, 1), (slack, -1)], lp.GE)
    if inst.variant == EXCHANGE:
        row([(j, 1) for j in range(m)], lp.EQ, 1)
    objective = [F(0)] * num
    objective[slack] = F(1)
    return lp.LinearProgram(num, tuple(cons), tuple(objective))


class TestReducedProgram:
    """On every pattern the search keeps, the pattern LP with one price per
    tie class, its forced flows substituted out and no artificial column for
    zero-right-side ``>=`` rows has the price program's status and optimal
    slack.  On every covering pattern it cuts, the price program has no
    positive optimum: the cut loses no equilibrium.  Both at epsilon 0 and
    1/10, except on the SAT gadget."""

    @staticmethod
    def _assert_same_optimum(inst, epsilons, kept, patterns):
        for epsilon in epsilons:
            for pattern in patterns:
                reference = lp.lp_solve(_price_program(inst, epsilon, pattern))
                if pattern not in kept:
                    assert _no_positive_optimum(reference), pattern
                    continue
                reduced = lp.lp_solve(_pattern_lp(inst, epsilon, pattern, kept[pattern])[0])
                assert (reduced.status, reduced.value) == (
                    reference.status,
                    reference.value,
                ), pattern

    @pytest.mark.parametrize("name", PATTERN_MARKETS + ["segment", "zero_earning"])
    def test_same_optimum_as_price_program(self, name, request):
        if name == "segment":
            inst = _segment()
        elif name == "zero_earning":
            inst = _zero_earning()
        else:
            inst = pattern_market(name, request)
        self._assert_same_optimum(inst, (F(0), F(1, 10)), _kept(inst), covering_patterns(inst))

    def test_same_optimum_on_a_one_clause_sat_gadget(self):
        # The gadget has 11,120 covering patterns, whose price programs take
        # minutes, and 560 kept ones; every third kept one at epsilon 0 keeps
        # the test to a few seconds.
        inst = build_sat_gadget(CNFFormula(3, [(1, -2, 3)])).instance
        kept = _kept(inst)
        self._assert_same_optimum(inst, (F(0),), kept, list(kept)[::3])

    # Agent 0's set {0} and agent 2's chore 2, which no one else takes,
    # force flows: at prices (1, 1, 1) agent 0 earns its 1 on chore 0 and
    # agent 2 does all of chore 2.
    FORCED = (frozenset({0}), frozenset({0, 1}), frozenset({1, 2}))

    def test_forced_flows_are_substituted_out(self):
        inst = fixed_earnings_instance(
            10, [[1, None, None], [1, 1, None], [None, 1, 1]], [1, 1, 1]
        )
        closure = _kept(inst)[self.FORCED]
        program, (cls, _, flows) = _pattern_lp(inst, F(0), self.FORCED, closure)
        assert cls == [0, 0, 0]
        assert set(flows) == {(1, 0), (1, 1), (2, 1)}
        assert program.num_vars == 1 + len(flows) + 1
        _, (_, _, flows) = _pattern_lp(inst, F(1, 10), self.FORCED, closure)
        assert set(flows) == {(1, 0), (1, 1), (2, 1), (2, 2)}
        hit = _solve_pattern(inst, F(0), self.FORCED, closure)
        assert hit is not None and hit.ray == (F(1, 3),) * 3
        assert hit.candidate.allocation == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    # Three chores tied pairwise by three agents: p1 = 2 p0, p2 = 3 p1 and
    # p2 = c p0, so the ties meet at one ratio exactly when c = 6.
    PATTERN = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))

    @staticmethod
    def _triangle(c):
        return fixed_earnings_instance(
            10, [[1, 2, None], [None, 1, 3], [1, None, c]], [1, 1, 1]
        )

    @pytest.mark.parametrize("c", [5, 7, F(13, 2)])
    def test_tangled_ties_have_no_equilibrium(self, c):
        # Ties at two ratios close a bad cycle: the search cuts the pattern.
        inst = self._triangle(c)
        assert self.PATTERN in covering_patterns(inst)
        assert self.PATTERN not in _kept(inst)
        for epsilon in (F(0), F(1, 10)):
            assert _no_positive_optimum(lp.lp_solve(_price_program(inst, epsilon, self.PATTERN)))

    def test_ties_at_one_ratio_keep_the_price_programs_ray(self):
        inst = self._triangle(6)
        closure = _kept(inst)[self.PATTERN]
        hit = _solve_pattern(inst, F(0), self.PATTERN, closure)
        reference = lp.lp_solve(_price_program(inst, F(0), self.PATTERN))
        assert hit is not None and reference.value > 0
        assert hit.ray == normalize_prices(reference.point[: inst.m])
        assert hit.ray == (F(1, 9), F(2, 9), F(2, 3))


def _tie_components(pattern, m):
    """Each chore's connected component in the graph that joins the members
    of every MPB set, numbered by the components' smallest chores."""
    component = [{j} for j in range(m)]
    for members in pattern:
        merged = set().union(*(component[j] for j in members))
        for j in merged:
            component[j] = merged
    roots = [min(c) for c in component]
    number = {r: k for k, r in enumerate(sorted(set(roots)))}
    return [number[r] for r in roots]


class TestTieClasses:
    """On every kept pattern, the tie classes read off the search's closure
    are the components of the graph joining each MPB set's members, and the
    price multipliers meet every set's ties."""

    @staticmethod
    def _assert_classes_meet_ties(inst):
        for pattern, closure in _patterns(inst, PATTERN_CAP):
            _, (cls, mult, _) = _pattern_lp(inst, F(0), pattern, closure)
            assert cls == _tie_components(pattern, inst.m), pattern
            assert all(isinstance(x, int) and x > 0 for x in mult)
            for i, members in enumerate(pattern):
                d = inst.disutility[i]
                rep = min(members, default=None)
                for j in members:
                    assert mult[j] * d[rep] == mult[rep] * d[j], (pattern, i, j)

    @pytest.mark.parametrize("name", PATTERN_MARKETS)
    def test_pattern_markets(self, name, request):
        self._assert_classes_meet_ties(pattern_market(name, request))

    @pytest.mark.parametrize("clause", [(1, -2, 3), (-1, -2, -3)])
    def test_one_clause_sat_gadgets(self, clause):
        self._assert_classes_meet_ties(build_sat_gadget(CNFFormula(3, [clause])).instance)


def test_hit_path_digest():
    """Pins every hit's ray, pattern, prices and allocation, values and
    types, on the 50 conftest seeds and their fixed-earnings twins at
    ``epsilon`` 0 and 1/10: 316 hits, hashed as their ``repr``."""
    digest = hashlib.sha256()
    hits = 0
    for k in range(50):
        base = random_conditioned_instance(random.Random(k))
        for inst in (base, fixed_earnings_twin(base)):
            for epsilon in (F(0), F(1, 10)):
                for e in enumerate_equilibria(inst, epsilon).equilibria:
                    hits += 1
                    cand = e.candidate
                    line = (e.ray, [sorted(s) for s in e.pattern], cand.prices, cand.allocation)
                    digest.update(repr(line).encode() + b"\n")
    assert hits == 316
    assert digest.hexdigest() == (
        "baed01014c7dc26d7665548fdba71a3b0ac523883d9e3bea1814992835448357"
    )
