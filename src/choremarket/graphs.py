"""Structural graphs and the two sufficiency conditions.

Condition 1: the bipartite graph of agent/chore pairs with finite disutility
decomposes into disjoint complete bipartite components (equivalently, any two
agents have identical or disjoint sets of doable chores), every chore is
covered, and no isolated agent can hold positive wealth.

Condition 2: the directed exchange graph over the components -- with an edge
``(k, k')`` when for every chore of component ``k'`` some agent of component
``k`` owns a positive amount -- is strongly connected.

Both are reachability questions, answered by :func:`_reach`: the disutility
graph's components are its distinct reach sets, and the exchange graph is
strongly connected when every component reaches all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import Infeasible
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


def _reach(succ):
    """The frozenset each node of adjacency list ``succ`` reaches, itself included."""
    reach = [None] * len(succ)
    for start in range(len(succ)):
        seen, stack = {start}, [start]
        while stack:
            for v in succ[stack.pop()]:
                if reach[v] is not None and start in reach[v]:
                    seen, stack = reach[v], []  # they reach each other
                    break
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[start] = frozenset(seen)
    return reach


def _components(graph: DisutilityGraph):
    n, m = graph.instance.n, graph.instance.m
    succ = [[] for _ in range(n + m)]
    for i, j in graph.edges:
        succ[i].append(n + j)
        succ[n + j].append(i)
    comps = []
    lone_agents = []
    lone_chores = []
    for nodes in set(_reach(succ)):
        agents = tuple(sorted(v for v in nodes if v < n))
        chores = tuple(sorted(v - n for v in nodes if v >= n))
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
    """The exchange graph of ``inst``, of either variant, with ownership read
    off its integer budgets.  An exchange agent owns the chores of its
    wealth entries: the nonzero, so positive, endowments.  In the exchange
    equivalent of a fixed-earnings market (:meth:`Instance.to_exchange`) an
    agent owns every chore exactly when its earning is positive; with no
    positive earning there is no equivalent, which is :class:`Infeasible`."""
    budgets = inst._integer_budgets
    if inst.variant == EXCHANGE:
        owned = [
            {j for a in comp.agents for j, _ in budgets[a][1]} for comp in dec.components
        ]
    else:
        if not any(const for _, _, const in budgets):
            raise Infeasible("all earnings are zero; no exchange equivalent")
        every = set(range(inst.m))
        owned = [
            every if any(budgets[a][2] for a in comp.agents) else set()
            for comp in dec.components
        ]
    edges = frozenset(
        (k, kk)
        for k, chores in enumerate(owned)
        for kk, dst in enumerate(dec.components)
        if chores.issuperset(dst.chores)
    )
    return ExchangeGraph(dec, edges)


@dataclass(frozen=True)
class Condition2Result:
    """Strong-connectivity verdict.

    On failure, ``scc_order`` lists the strongly connected components of the
    exchange graph in topological order (sources first), which exhibits an
    unreachable ordered pair.  An SCC that reaches another reaches strictly
    more components, so the order is by reach size, largest first, ties
    broken by least member.
    """

    ok: bool
    scc_order: Optional[Tuple[frozenset, ...]] = None


def check_condition2(graph: ExchangeGraph) -> Condition2Result:
    d = graph.decomposition.d
    succ = [[] for _ in range(d)]
    for k, kk in graph.edges:
        succ[k].append(kk)
    reach = _reach(succ)
    if all(len(r) == d for r in reach):
        return Condition2Result(ok=True)
    sccs = {frozenset(l for l in reach[k] if k in reach[l]) for k in range(d)}
    order = sorted(sccs, key=lambda s: (-len(reach[min(s)]), min(s)))
    return Condition2Result(ok=False, scc_order=tuple(order))


@dataclass(frozen=True)
class ConditionsReport:
    condition1: Condition1Result
    condition2: Optional[Condition2Result]

    @property
    def ok(self) -> bool:
        return self.condition1.ok and (self.condition2 is None or self.condition2.ok)


def check_conditions(inst: Instance) -> ConditionsReport:
    """Check both sufficiency conditions.

    Fixed-earnings instances are checked for Condition 2 on the exchange
    graph of their exchange equivalent (see :meth:`Instance.to_exchange`),
    read off their earnings without building it; an all-zero-earnings
    market has none and is :class:`Infeasible`.  Condition 2 is only
    evaluated when Condition 1 holds, since it is defined on the component
    decomposition.
    """
    c1 = check_condition1(build_disutility_graph(inst))
    if not c1.ok:
        return ConditionsReport(c1, None)
    return ConditionsReport(c1, check_condition2(build_exchange_graph(inst, c1.decomposition)))
