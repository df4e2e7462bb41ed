"""Structural graphs and the two sufficiency conditions.

Condition 1: the bipartite graph of agent/chore pairs with finite disutility
decomposes into disjoint complete bipartite components (equivalently, any two
agents have identical or disjoint sets of doable chores), every chore is
covered, and no isolated agent can hold positive wealth.

Condition 2: the directed exchange graph over the components -- with an edge
``(k, k')`` when for every chore of component ``k'`` some agent of component
``k`` owns a positive amount -- is strongly connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import networkx as nx

from .errors import WrongVariant
from .model import EXCHANGE, Instance


@dataclass(frozen=True)
class DisutilityGraph:
    """Bipartite graph of pairs the agents are willing to touch."""

    instance: Instance
    edges: frozenset  # pairs (agent, chore) with finite disutility


def build_disutility_graph(inst: Instance) -> DisutilityGraph:
    edges = frozenset(
        (i, j) for i in range(inst.n) for j in inst.finite_chores(i)
    )
    return DisutilityGraph(inst, edges)


@dataclass(frozen=True)
class Component:
    """One connected component: its agents and chores, sorted ascending."""

    agents: Tuple[int, ...]
    chores: Tuple[int, ...]


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of the disutility graph.

    Components are ordered by their least agent index.  Agents with no finite
    disutility (and no claim to wealth) are listed separately; they take part
    in no trade.
    """

    components: Tuple[Component, ...]
    isolated_agents: Tuple[int, ...] = ()

    @property
    def d(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Condition1Witness:
    """Reason Condition 1 fails.

    ``kind`` is one of ``"uncovered-chore"`` (a chore nobody can do),
    ``"isolated-agent"`` (an agent with positive wealth but no doable chore),
    or ``"incomplete-component"`` (with the offending missing pair).
    """

    kind: str
    chore: Optional[int] = None
    agent: Optional[int] = None
    component: Optional[Component] = None
    missing_pair: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class Condition1Result:
    ok: bool
    decomposition: Optional[ComponentDecomposition] = None
    witness: Optional[Condition1Witness] = None


def _components(graph: DisutilityGraph):
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


def check_condition1(graph: DisutilityGraph) -> Condition1Result:
    inst = graph.instance
    comps, lone_agents, lone_chores = _components(graph)
    if lone_chores:
        return Condition1Result(
            ok=False,
            witness=Condition1Witness(kind="uncovered-chore", chore=lone_chores[0]),
        )
    for agent in lone_agents:
        if inst.has_positive_wealth(agent):
            return Condition1Result(
                ok=False,
                witness=Condition1Witness(kind="isolated-agent", agent=agent),
            )
    for comp in comps:
        for i in comp.agents:
            row = inst.disutility[i]
            for j in comp.chores:
                if row[j] is None:
                    return Condition1Result(
                        ok=False,
                        witness=Condition1Witness(
                            kind="incomplete-component",
                            component=comp,
                            missing_pair=(i, j),
                        ),
                    )
    return Condition1Result(
        ok=True,
        decomposition=ComponentDecomposition(tuple(comps), tuple(lone_agents)),
    )


@dataclass(frozen=True)
class ExchangeGraph:
    """Directed graph over components describing who can pay whom.

    Edge ``(k, k')`` (self-loops included) means: for every chore of component
    ``k'`` some agent of component ``k`` owns a positive amount of it.
    """

    decomposition: ComponentDecomposition
    edges: frozenset  # pairs (k, k') of component indices


def build_exchange_graph(inst: Instance, dec: ComponentDecomposition) -> ExchangeGraph:
    if inst.variant != EXCHANGE:
        raise WrongVariant("exchange graph requires the exchange variant")
    edges = set()
    for k, src in enumerate(dec.components):
        for kk, dst in enumerate(dec.components):
            if all(
                any(inst.endowment[a][b] > 0 for a in src.agents)
                for b in dst.chores
            ):
                edges.add((k, kk))
    return ExchangeGraph(dec, frozenset(edges))


@dataclass(frozen=True)
class Condition2Result:
    """Strong-connectivity verdict.

    On failure, ``scc_order`` lists the strongly connected components of the
    exchange graph in topological order (sources first), which exhibits an
    unreachable ordered pair.
    """

    ok: bool
    scc_order: Optional[Tuple[frozenset, ...]] = None


def check_condition2(graph: ExchangeGraph) -> Condition2Result:
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


@dataclass(frozen=True)
class ConditionsReport:
    condition1: Condition1Result
    condition2: Optional[Condition2Result]

    @property
    def ok(self) -> bool:
        return self.condition1.ok and (self.condition2 is None or self.condition2.ok)


def check_conditions(inst: Instance) -> ConditionsReport:
    """Check both sufficiency conditions.

    Fixed-earnings instances are checked through their exchange equivalent
    (see :meth:`Instance.to_exchange`) for Condition 2.  Condition 2 is only
    evaluated when Condition 1 holds, since it is defined on the component
    decomposition.
    """
    c1 = check_condition1(build_disutility_graph(inst))
    if not c1.ok:
        return ConditionsReport(c1, None)
    ex = inst if inst.variant == EXCHANGE else inst.to_exchange()
    c2 = check_condition2(build_exchange_graph(ex, c1.decomposition))
    return ConditionsReport(c1, c2)
