"""Structural graphs and the two sufficiency conditions."""

import random
from fractions import Fraction

import pytest

from choremarket import graphs
from choremarket.errors import Infeasible, WrongVariant
from choremarket.graphs import (
    Component,
    ComponentDecomposition,
    Condition2Result,
    ConditionsReport,
    ExchangeGraph,
    build_disutility_graph,
    build_exchange_graph,
    check_condition1,
    check_condition2,
    check_conditions,
)
from choremarket.model import exchange_instance, fixed_earnings_instance

from conftest import fixed_earnings_twin, random_conditioned_instance


class TestCondition1:
    def test_incomplete_component_fails(self, example1):
        res = check_condition1(build_disutility_graph(example1))
        assert not res.ok
        assert res.witness.kind == "incomplete-component"
        assert res.witness.missing_pair == (0, 1)

    def test_disjoint_singletons_pass(self, example2):
        res = check_condition1(build_disutility_graph(example2))
        assert res.ok
        comps = res.decomposition.components
        assert [(c.agents, c.chores) for c in comps] == [((0,), (0,)), ((1,), (1,))]

    def test_warmup_fails(self, warmup):
        # Rows {b1, b2} and {b2} are neither identical nor disjoint.
        res = check_condition1(build_disutility_graph(warmup))
        assert not res.ok

    def test_uncovered_chore_fails(self):
        inst = fixed_earnings_instance(10, [[1, None]], [1])
        res = check_condition1(build_disutility_graph(inst))
        assert not res.ok
        assert res.witness.kind == "uncovered-chore"
        assert res.witness.chore == 1

    def test_isolated_agent_with_earning_fails(self):
        inst = fixed_earnings_instance(10, [[1], [None]], [1, 1])
        res = check_condition1(build_disutility_graph(inst))
        assert not res.ok
        assert res.witness.kind == "isolated-agent"
        assert res.witness.agent == 1

    def test_isolated_agent_without_earning_allowed(self):
        inst = fixed_earnings_instance(10, [[1], [None]], [1, 0])
        res = check_condition1(build_disutility_graph(inst))
        assert res.ok
        assert res.decomposition.isolated_agents == (1,)

    def test_components_sorted_by_least_agent(self):
        inst = fixed_earnings_instance(
            10, [[None, 1], [1, None], [None, 1]], [1, 1, 1]
        )
        res = check_condition1(build_disutility_graph(inst))
        comps = res.decomposition.components
        assert comps[0].agents == (0, 2) and comps[0].chores == (1,)
        assert comps[1].agents == (1,) and comps[1].chores == (0,)

    def test_matches_identical_or_disjoint_row_characterization(self):
        rng = random.Random(7)
        for _ in range(100):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            d = [
                [rng.choice([None, Fraction(1)]) for _ in range(m)]
                for _ in range(n)
            ]
            rows = [frozenset(j for j in range(m) if d[i][j]) for i in range(n)]
            # Zero earnings so isolated agents never fail on wealth.
            try:
                inst = fixed_earnings_instance(
                    10, d, [1 if rows[i] else 0 for i in range(n)]
                )
            except Exception:
                continue
            expected = all(
                rows[i] == rows[k] or not (rows[i] & rows[k])
                for i in range(n)
                for k in range(n)
            ) and all(any(j in r for r in rows) for j in range(m))
            res = check_condition1(build_disutility_graph(inst))
            assert res.ok == expected


class TestCondition2:
    def test_example2_edges(self, example2):
        dec = check_condition1(build_disutility_graph(example2)).decomposition
        g = build_exchange_graph(example2, dec)
        assert (0, 0) in g.edges and (0, 1) in g.edges
        assert (1, 0) not in g.edges

    def test_example2_fails_with_order(self, example2):
        dec = check_condition1(build_disutility_graph(example2)).decomposition
        res = check_condition2(build_exchange_graph(example2, dec))
        assert not res.ok
        assert res.scc_order == (frozenset({0}), frozenset({1}))

    def test_single_component_passes(self, intro):
        dec = check_condition1(build_disutility_graph(intro)).decomposition
        assert check_condition2(build_exchange_graph(intro, dec)).ok

    def test_edges_match_the_definition(self):
        # Edge (k, k') exactly when some agent of k owns a positive amount of
        # every chore of k', read off the Fraction endowments; some pairs own
        # part of k' but not all of it.
        rng = random.Random(13)
        partial = 0
        for _ in range(500):
            inst = random_market(rng)
            c1 = check_condition1(build_disutility_graph(inst))
            if not c1.ok:
                continue
            comps = c1.decomposition.components
            expected = set()
            for k, src in enumerate(comps):
                for kk, dst in enumerate(comps):
                    owned = [any(inst.endowment[a][b] > 0 for a in src.agents) for b in dst.chores]
                    if all(owned):
                        expected.add((k, kk))
                    partial += any(owned) and not all(owned)
            assert build_exchange_graph(inst, c1.decomposition).edges == expected
        assert partial > 0

    def test_requires_exchange_variant(self):
        inst = fixed_earnings_instance(10, [[1, None], [None, 1]], [1, 1])
        dec = check_condition1(build_disutility_graph(inst)).decomposition
        with pytest.raises(WrongVariant):
            build_exchange_graph(inst, dec)


class TestCheckConditions:
    def test_example1(self, example1):
        rep = check_conditions(example1)
        assert not rep.ok and not rep.condition1.ok and rep.condition2 is None

    def test_example2(self, example2):
        rep = check_conditions(example2)
        assert rep.condition1.ok and not rep.condition2.ok

    def test_random_conditioned_instances_pass(self):
        rng = random.Random(11)
        for _ in range(20):
            assert check_conditions(random_conditioned_instance(rng)).ok

    def test_fixed_earnings_via_exchange_equivalent(self):
        inst = fixed_earnings_instance(10, [[1, None], [None, 1]], [1, 1])
        assert check_conditions(inst).ok

    def test_fixed_earnings_gate_matches_the_exchange_equivalent(
        self, warmup, intro, example1, example2
    ):
        # The gate reads a fixed-earnings market's exchange graph off its
        # earnings; the reports equal those of its built exchange equivalent.
        markets = [warmup] + [fixed_earnings_twin(x) for x in (intro, example1, example2)]
        markets += [
            fixed_earnings_twin(random_conditioned_instance(random.Random(k))) for k in range(50)
        ]
        rng = random.Random(32)
        for _ in range(400):
            base = random_market(rng)
            earning = [rng.choice([0, 0, 1, 2, Fraction(1, 3)]) for _ in range(base.n)]
            supply = [rng.choice([1, 2, Fraction(3, 4)]) for _ in range(base.m)]
            markets.append(fixed_earnings_instance(10, base.disutility, earning, supply))
        outcomes = {"c1 fails": 0, "c2 fails": 0, "ok": 0, "infeasible": 0}
        for inst in markets:
            c1 = check_condition1(build_disutility_graph(inst))
            if not c1.ok:
                assert check_conditions(inst) == ConditionsReport(c1, None)
                outcomes["c1 fails"] += 1
                continue
            try:
                ex = inst.to_exchange()
            except Infeasible:
                with pytest.raises(Infeasible, match="^all earnings are zero; no exchange equivalent$"):
                    check_conditions(inst)
                outcomes["infeasible"] += 1
                continue
            want = ConditionsReport(c1, check_condition2(build_exchange_graph(ex, c1.decomposition)))
            assert check_conditions(inst) == want
            outcomes["ok" if want.ok else "c2 fails"] += 1
        assert all(outcomes.values()), outcomes

    def test_all_zero_earnings_have_no_exchange_equivalent(self):
        inst = fixed_earnings_instance(10, [[1, None], [None, 1]], [0, 0])
        assert check_condition1(build_disutility_graph(inst)).ok
        with pytest.raises(Infeasible, match="all earnings are zero; no exchange equivalent"):
            check_conditions(inst)


# The networkx build of the two checks, kept as a reference.


def nx_components(nx, graph):
    inst = graph.instance
    g = nx.Graph()
    g.add_nodes_from(("a", i) for i in range(inst.n))
    g.add_nodes_from(("b", j) for j in range(inst.m))
    g.add_edges_from((("a", i), ("b", j)) for i, j in graph.edges)
    comps = []
    lone_agents = []
    lone_chores = []
    for nodes in nx.connected_components(g):
        agents = tuple(sorted(i for kind, i in nodes if kind == "a"))
        chores = tuple(sorted(j for kind, j in nodes if kind == "b"))
        if not chores:
            lone_agents.extend(agents)
        elif not agents:
            lone_chores.extend(chores)
        else:
            comps.append(Component(agents, chores))
    comps.sort(key=lambda c: c.agents[0])
    return comps, sorted(lone_agents), sorted(lone_chores)


def nx_check_condition2(nx, graph):
    d = graph.decomposition.d
    g = nx.DiGraph()
    g.add_nodes_from(range(d))
    g.add_edges_from(graph.edges)
    if d == 0 or nx.is_strongly_connected(g):
        return Condition2Result(ok=True)
    cond = nx.condensation(g)
    order = tuple(
        frozenset(cond.nodes[node]["members"]) for node in nx.topological_sort(cond)
    )
    return Condition2Result(ok=False, scc_order=order)


def random_market(rng):
    """Small exchange market with sparse endowments.  Half the draws put each
    agent in one of three groups and let it do its group's chores, which
    mostly passes Condition 1; the other half draw doable pairs
    independently."""
    n, m = rng.randint(1, 7), rng.randint(1, 7)
    if rng.random() < 0.5:
        mine = [rng.randrange(3) for _ in range(n)]
        group = [rng.choice(mine) for _ in range(m)]
        doable = [[group[j] == mine[i] for j in range(m)] for i in range(n)]
    else:
        doable = [[rng.random() < 0.4 for _ in range(m)] for _ in range(n)]
    w = [[int(rng.random() < 0.3) for _ in range(m)] for _ in range(n)]
    for j in range(m):
        w[rng.randrange(n)][j] = 1
    return exchange_instance(
        10, [[1 if ok else None for ok in row] for row in doable], w
    )


class TestAgainstNetworkx:
    def test_random_markets(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        rng = random.Random(3)
        evaluated = 0
        for _ in range(3000):
            inst = random_market(rng)
            dg = build_disutility_graph(inst)
            with monkeypatch.context() as mp:
                mp.setattr(graphs, "_components", lambda g: nx_components(nx, g))
                expected = check_condition1(dg)
            c1 = check_condition1(dg)
            assert c1 == expected
            if not c1.ok:
                continue
            evaluated += 1
            eg = build_exchange_graph(inst, c1.decomposition)
            c2, ref = check_condition2(eg), nx_check_condition2(nx, eg)
            assert c2.ok == ref.ok
            if ref.ok:
                continue
            assert set(c2.scc_order) == set(ref.scc_order)
            # Sources first: no edge leads back to an earlier SCC.
            pos = {k: p for p, scc in enumerate(c2.scc_order) for k in scc}
            assert all(pos[k] <= pos[kk] for k, kk in eg.edges)
        assert evaluated > 500

    def test_tie_order(self):
        # networkx gives ({0}, {2}, {1}); the reach-size order puts {2} first.
        dec = ComponentDecomposition(tuple(Component((k,), (k,)) for k in range(3)))
        res = check_condition2(ExchangeGraph(dec, frozenset({(2, 1), (2, 2)})))
        assert res.scc_order == (frozenset({2}), frozenset({0}), frozenset({1}))
