"""Exact enumeration of equilibria by minimum pain-per-buck patterns.

Every equilibrium induces a pattern: for each agent, the set of chores tied at
the minimum pain-per-buck ratio.  For each candidate pattern we solve one
exact LP -- maximizing a slack that keeps prices positive and the off-pattern
ratios strictly worse -- and read an equilibrium off any strictly feasible
solution.  Trying every pattern that could hold an equilibrium is therefore
complete, and every returned candidate is re-verified, so the output is
exactly the set of equilibrium price rays.

Patterns come from a backtracking search over agents.  Each agent's set fixes
price ratios: members tie with the set's first chore, and the agent's other
finite chores have strictly higher pain per buck.  The search keeps the exact
closure of these ratio bounds and cuts a branch as soon as a cycle of them
multiplies to less than 1, or to exactly 1 through a strict bound, or when the
remaining agents can no longer cover every chore.  The cut is safe: a
pattern's LP has a positive optimum only at positive prices that meet its
ratio bounds strictly, and no such prices exist past a bad cycle; an
uncovered chore cannot clear at a positive price.  So the search loses no
equilibrium, for any ``epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

from . import lp
from .errors import Malformed, PatternBudgetExceeded
from .model import (
    EXCHANGE,
    EquilibriumCandidate,
    Instance,
    agent_budget,
    chore_supply,
    normalize_prices,
)
from .verification import verify_equilibrium

#: Default cap on the number of candidate patterns.
PATTERN_CAP = 10**6


@dataclass(frozen=True)
class EnumeratedEquilibrium:
    """One equilibrium price ray with a witness allocation.

    ``ray`` is the normalized (sum-one) price vector identifying the ray;
    ``candidate`` keeps the prices at the LP's natural scale, which for
    fixed-earnings instances is the scale on which budgets are met.
    """

    ray: Tuple[Fraction, ...]
    pattern: Tuple[frozenset, ...]
    candidate: EquilibriumCandidate


@dataclass(frozen=True)
class EquilibriumSet:
    equilibria: Tuple[EnumeratedEquilibrium, ...]
    patterns_tried: int

    @property
    def rays(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(e.ray for e in self.equilibria)


def _agent_options(inst: Instance) -> Optional[List[List[frozenset]]]:
    """Candidate MPB sets per agent, or ``None`` when no pattern can exist."""
    options = []
    for i in range(inst.n):
        finite = inst.finite_chores(i)
        if not inst.has_positive_wealth(i):
            options.append([frozenset()])
            continue
        if not finite:
            return None  # must earn, but cannot touch any chore
        subsets = []
        for size in range(1, len(finite) + 1):
            subsets.extend(frozenset(c) for c in combinations(finite, size))
        options.append(subsets)
    return options


def _pattern_count(options) -> int:
    count = 1
    for subsets in options:
        count *= len(subsets)
    return count


def _pattern_lp(inst: Instance, pattern, epsilon: Fraction) -> Optional[lp.LinearProgram]:
    """Build the strict-feasibility LP for one pattern.

    Variables: prices ``p_j``, flows ``f_ij`` for ``j`` in the agent's
    pattern set, and one slack ``s`` (maximized).  Feasible with positive
    optimum iff the pattern supports an equilibrium.
    """
    m, n = inst.m, inst.n
    flow_index = {}
    for i in range(n):
        for j in sorted(pattern[i]):
            flow_index[(i, j)] = m + len(flow_index)
    slack = m + len(flow_index)
    num = slack + 1
    zero = [Fraction(0)] * num
    cons = []

    def row():
        return list(zero)

    for i in range(n):
        members = sorted(pattern[i])
        finite = inst.finite_chores(i)
        if members:
            rep = members[0]
            d_rep = inst.disutility[i][rep]
            # Equal ratios inside the pattern: d(i,rep) p_j = d(i,j) p_rep.
            for j in members[1:]:
                r = row()
                r[j] = d_rep
                r[rep] -= inst.disutility[i][j]
                cons.append(lp.Constraint(tuple(r), lp.EQ, Fraction(0)))
            # Strictly worse ratios outside: d(i,rep) p_j' + s <= d(i,j') p_rep.
            for j in finite:
                if j in pattern[i]:
                    continue
                r = row()
                r[j] = d_rep
                r[rep] -= inst.disutility[i][j]
                r[slack] = Fraction(1)
                cons.append(lp.Constraint(tuple(r), lp.LE, Fraction(0)))
        # Budget: sum of flows equals the agent's budget.
        r = row()
        for j in members:
            r[flow_index[(i, j)]] = Fraction(1)
        if inst.variant == EXCHANGE:
            for j in range(m):
                r[j] -= inst.endowment[i][j]
            cons.append(lp.Constraint(tuple(r), lp.EQ, Fraction(0)))
        else:
            cons.append(lp.Constraint(tuple(r), lp.EQ, inst.earning[i]))

    for j in range(m):
        supply = chore_supply(inst, j)
        units = [(flow_index[(i, j)], 1) for i in range(n) if (i, j) in flow_index]
        if epsilon == 0:
            r = row()
            for k, _ in units:
                r[k] = Fraction(1)
            r[j] -= supply
            cons.append(lp.Constraint(tuple(r), lp.EQ, Fraction(0)))
        else:
            r = row()
            for k, _ in units:
                r[k] = Fraction(1)
            r[j] -= (1 - epsilon) * supply
            cons.append(lp.Constraint(tuple(r), lp.GE, Fraction(0)))
            r = row()
            for k, _ in units:
                r[k] = Fraction(1)
            r[j] -= supply / (1 - epsilon)
            cons.append(lp.Constraint(tuple(r), lp.LE, Fraction(0)))

    # Positive prices: p_j >= s for every chore.
    for j in range(m):
        r = row()
        r[j] = Fraction(1)
        r[slack] = Fraction(-1)
        cons.append(lp.Constraint(tuple(r), lp.GE, Fraction(0)))

    if inst.variant == EXCHANGE:
        # Fix the scale of the price ray; fixed-earnings budgets pin it already.
        r = row()
        for j in range(m):
            r[j] = Fraction(1)
        cons.append(lp.Constraint(tuple(r), lp.EQ, Fraction(1)))

    obj = list(zero)
    obj[slack] = Fraction(1)
    return lp.LinearProgram(num, tuple(cons), tuple(obj))


def _solve_pattern(inst, pattern, epsilon) -> Optional[EnumeratedEquilibrium]:
    program = _pattern_lp(inst, pattern, epsilon)
    result = lp.lp_solve(program)
    if result.status != lp.OPTIMAL or result.value <= 0:
        return None
    point = result.point
    prices = list(point[: inst.m])
    m = inst.m
    flow = [[Fraction(0)] * m for _ in range(inst.n)]
    k = m
    for i in range(inst.n):
        for j in sorted(pattern[i]):
            flow[i][j] = point[k]
            k += 1
    allocation = [
        [flow[i][j] / prices[j] for j in range(m)] for i in range(inst.n)
    ]
    cand = EquilibriumCandidate(prices, allocation, flow=tuple(map(tuple, flow)))
    if not verify_equilibrium(inst, cand, epsilon).ok:
        return None
    return EnumeratedEquilibrium(normalize_prices(prices), tuple(pattern), cand)


#: A bound ``(ratio, weak)`` on ``p_x / p_y`` means ``p_x / p_y <= ratio``
#: when ``weak`` and ``p_x / p_y < ratio`` otherwise.  Tuple order is
#: tightness order, and bounds compose as ``(r1 * r2, w1 and w2)``.
_UNIT = (Fraction(1), True)


def _agent_edges(inst: Instance, agent: int, members: frozenset):
    """The price-ratio bounds of one agent's MPB set, as ``(x, y, bound)``.

    With ``r`` the set's smallest chore, a member ``j`` ties with it,
    ``p_j = (d_ij / d_ir) p_r``; any other finite chore ``j`` is strictly
    worse, ``p_j < (d_ij / d_ir) p_r``.
    """
    if not members:
        return []
    d = inst.disutility[agent]
    rep = min(members)
    edges = []
    for j in inst.finite_chores(agent):
        if j == rep:
            continue
        tie = j in members
        edges.append((j, rep, (d[j] / d[rep], tie)))
        if tie:
            edges.append((rep, j, (d[rep] / d[j], True)))
    return edges


def _tighten(closure, edges) -> bool:
    """Add ``edges`` to the ratio closure in place; ``False`` on a bad cycle.

    ``closure[x][y]`` is the tightest bound on ``p_x / p_y`` implied so far,
    or ``None``.  A bad cycle multiplies to less than 1, or to exactly 1
    through a strict bound; then no positive prices meet the bounds.
    """
    for u, v, (ratio, weak) in edges:
        back = closure[v][u]
        if back is not None and (ratio * back[0], weak and back[1]) < _UNIT:
            return False
        if closure[u][v] is not None and closure[u][v] <= (ratio, weak):
            continue  # already implied
        sources = [(row, row[u]) for row in closure if row[u] is not None]
        targets = [(y, b) for y, b in enumerate(closure[v]) if b is not None]
        for row, (r1, w1) in sources:
            r1 *= ratio
            w1 = w1 and weak
            for y, (r2, w2) in targets:
                bound = (r1 * r2, w1 and w2)
                if row[y] is None or bound < row[y]:
                    row[y] = bound
    return True


def _patterns(inst: Instance, cap: int) -> Iterator[Tuple[frozenset, ...]]:
    """Every covering, price-consistent pattern, in agent-product order.

    A depth-first search assigns MPB sets agent by agent, carrying the exact
    closure of the price-ratio bounds chosen so far.  A branch is cut when
    its bounds have a bad cycle, or when its sets and those the remaining
    agents could still take leave a chore uncovered.
    """
    options = _agent_options(inst)
    if options is None:
        return
    if _pattern_count(options) > cap:
        raise PatternBudgetExceeded(
            f"{_pattern_count(options)} patterns exceed the cap of {cap}"
        )
    all_chores = frozenset(range(inst.m))
    reach = [frozenset()] * (inst.n + 1)  # chores agents i.. can still take
    for i in reversed(range(inst.n)):
        reach[i] = reach[i + 1].union(*options[i])
    edges = [
        [_agent_edges(inst, i, members) for members in subsets]
        for i, subsets in enumerate(options)
    ]
    chosen = []

    def search(i, covered, closure):
        if i == inst.n:
            yield tuple(chosen)
            return
        for members, bounds in zip(options[i], edges[i]):
            if covered | members | reach[i + 1] != all_chores:
                continue
            grown = [row[:] for row in closure]
            if not _tighten(grown, bounds):
                continue
            chosen.append(members)
            yield from search(i + 1, covered | members, grown)
            chosen.pop()

    unit = [[_UNIT if x == y else None for y in range(inst.m)] for x in range(inst.m)]
    yield from search(0, frozenset(), unit)


def enumerate_equilibria(
    inst: Instance,
    epsilon: Fraction = Fraction(0),
    cap: int = PATTERN_CAP,
) -> EquilibriumSet:
    """All equilibrium price rays (one witness allocation per ray).

    Raises :class:`PatternBudgetExceeded` when the pattern space is larger
    than ``cap``.
    """
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon < 1:
        raise Malformed("epsilon must lie in [0, 1)")
    if cap < 0:
        raise Malformed("cap must be nonnegative")
    found = {}
    tried = 0
    for pattern in _patterns(inst, cap):
        tried += 1
        hit = _solve_pattern(inst, pattern, epsilon)
        if hit is not None and hit.ray not in found:
            found[hit.ray] = hit
    return EquilibriumSet(tuple(found.values()), tried)


def exists_equilibrium(
    inst: Instance,
    epsilon: Fraction = Fraction(0),
    cap: int = PATTERN_CAP,
) -> Optional[EnumeratedEquilibrium]:
    """First equilibrium found, or ``None``; stops at the first hit."""
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon < 1:
        raise Malformed("epsilon must lie in [0, 1)")
    if cap < 0:
        raise Malformed("cap must be nonnegative")
    for pattern in _patterns(inst, cap):
        hit = _solve_pattern(inst, pattern, epsilon)
        if hit is not None:
            return hit
    return None
