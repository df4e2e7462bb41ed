"""Exact enumeration of equilibria by minimum pain-per-buck patterns.

Every equilibrium induces a pattern: for each agent, the set of chores tied at
the minimum pain-per-buck ratio.  For each candidate pattern we solve one
exact LP -- maximizing a slack that keeps prices positive and the off-pattern
ratios strictly worse -- and read an equilibrium off its optimal vertex when
the slack is positive.  The ties of a pattern's sets fix the price ratios
inside each tie class, so the LP has one price variable per class and no tie
rows; this change of variables keeps the feasible set and the optimal slack
of the LP over one price per chore.  Flows fixed by a single equality row --
a one-member set's flow is its agent's budget, and at ``epsilon = 0`` a
one-taker chore's flow is its supply value -- are substituted out; both are
nonnegative at nonnegative prices, so no row replaces ``f >= 0`` and the
optimal slack is kept (see :func:`_pattern_lp`).  Every pattern that could
hold an equilibrium is tried and every returned candidate is re-verified, so
the output is one verified equilibrium price ray per pattern that has an
equilibrium.  That is every equilibrium ray only when each such pattern's
price ray is unique: a pattern can hold a whole segment of rays, of which the
LP's vertex is one.

Patterns come from a backtracking search over agents.  Each agent's set fixes
price ratios: members tie with the set's first chore, and the agent's other
finite chores have strictly higher pain per buck.  The search keeps the exact
closure of these ratio bounds, each ratio a pair of integers read off the
market's integer disutility rows (see :data:`_UNIT`), and cuts a branch as
soon as a cycle of them multiplies to less than 1, or to exactly 1 through a
strict bound, or when the remaining agents can no longer cover every chore.
The cut is safe: a pattern's LP has a positive optimum only at positive
prices that meet its ratio bounds strictly, and no such prices exist past a
bad cycle; an uncovered chore cannot clear at a positive price.  So the
search loses no equilibrium, for any ``epsilon``.  At each leaf the closure
holds the pattern's tie ratios, and the LP reads its tie classes and their
price multipliers off it.  No class whose ties meet at two different ratios
reaches an LP: such ties form a bad cycle, which the search cuts.  Each agent
tries its sets largest first, so the searches that stop at the first hit
reach one sooner; the order decides which hit comes first, not which
patterns exist.

:func:`enumerate_equilibria` (one ray per pattern with a hit),
:func:`exists_equilibrium` (the first hit) and :func:`solve` (the first hit
within an LP budget, behind the paper's two existence conditions) all walk
this one search through the private :func:`_search`.  The paper proves
existence through a fixed point of a price map; the package does not run
that map, and the test suite keeps it as an oracle for :func:`solve`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from typing import Callable, Iterator, List, Optional, Tuple

from . import lp
from .errors import ConditionViolated, ConstructionFailed, Malformed, PatternBudgetExceeded
from .graphs import check_conditions
from .model import (
    _ZERO,
    EXCHANGE,
    EquilibriumCandidate,
    Instance,
    _clearing_bands,
    _epsilon,
    to_int,
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


def _agent_options(inst: Instance, cap: int) -> List[List[frozenset]]:
    """Candidate MPB sets per agent, largest first: the ``2**k - 1``
    nonempty sets of a wealthy agent's ``k`` finite chores, the empty set of
    one without wealth.  No set is built when the raw pattern space is
    empty (``[]`` is returned) or larger than ``cap``
    (:class:`PatternBudgetExceeded`).

    A generic equilibrium's consumption graph spans each component, so its
    pattern has large sets; patterns of many one-member sets are the ones
    whose LPs come back infeasible.
    """
    finite = [inst.finite_chores(i) for i in range(inst.n)]
    wealthy = [inst.has_positive_wealth(i) for i in range(inst.n)]
    count = prod(2 ** len(f) - 1 if w else 1 for w, f in zip(wealthy, finite))
    if count > cap:
        raise PatternBudgetExceeded(f"{count} patterns exceed the cap of {cap}")
    if not count:
        return []
    return [
        [frozenset(c) for size in range(len(f), 0, -1) for c in combinations(f, size)]
        if w
        else [frozenset()]
        for w, f in zip(wealthy, finite)
    ]


def _pattern_lp(inst: Instance, bands, pattern, closure):
    """Build the strict-feasibility LP for one pattern, and its variables.

    Variables: one price ``q_c`` per tie class, the flows ``f_ij`` (money
    agent ``i`` earns on chore ``j`` of its pattern set) that no row forces,
    and one slack ``s`` (maximized).  Feasible with positive optimum iff the
    pattern supports an equilibrium.  Its integer rows are written straight
    from the instance's integer disutility rows and budgets (see
    :class:`~choremarket.model.Instance`) and the chores' clearing bands
    ``bands``, one ``(lo, hi)`` per chore (see
    :func:`~choremarket.model._clearing_bands`; ``lo == hi`` at
    ``epsilon = 0``).

    The tie classes come from ``closure``, the search's ratio closure at the
    pattern's leaf (see :func:`_patterns`).  Only tie bounds are weak, and a
    strict bound at least as tight as a tie would close a bad cycle with the
    reverse tie, so ``closure[j][x]`` is weak exactly when ``j`` and ``x``
    are tied, and its integer pair is then ``p_j / p_x`` in lowest terms.
    Chore ``j``'s class root is the first such ``x``, the class's smallest
    chore; classes are numbered by their roots, and ``p_j = mult_j
    q_cls(j)``, with ``mult_j`` the ratio to the root times the lcm of the
    class's denominators.  No class has ties that meet at two different
    ratios: such ties are a bad cycle, which the search cuts.

    This is the program over prices ``p_j`` with a tie row
    ``d_ir p_j = d_ij p_r`` per MPB set member and ``p_j >= s`` per chore,
    rewritten through ``p_j = mult_j q_cls(j)``: the map is a bijection
    between the nonnegative ``q`` and the nonnegative ``p`` that meet the
    ties, so the tie rows go, and with ``q_c >= 0`` the smallest
    multiplier's row ``mult q_c >= s`` implies the rest of its class.

    Flows that a single equality row fixes are substituted out, in one pass
    (the singleton-row presolve):

    - an agent whose set is ``{j}`` earns its whole budget on ``j``, so
      ``f_ij`` is the budget (the endowment's value at the class prices,
      or the fixed earning) in chore ``j``'s clearing rows, and the agent
      has no budget row;
    - at ``epsilon = 0`` (``lo == hi``), a chore taken by one agent whose
      set has more members is paid ``supply_j p_j``, which replaces
      ``f_ij`` in that agent's budget row, and the chore has no clearing
      row.

    Both substitutes are nonnegative at nonnegative prices, so dropping
    ``f_ij >= 0`` adds no row: the feasible set, projected on the prices
    and slack, and the optimal slack are those of the price program.  An
    agent without wealth has an empty set and no budget row (it would read
    ``0 = 0``).  Every ``>=`` row with right side 0 is written negated as a
    ``<=`` row, so its slack starts basic and it needs no artificial column.

    Returns the program and ``(cls, mult, flows)``, with ``flows`` mapping
    each ``(i, j)`` whose flow is a variable to its column.
    """
    m = inst.m
    rows, budgets, supplies = inst._integer_rows, inst._integer_budgets, inst.supplies
    # (root, num, den) per chore j, with p_j / p_root = num / den in lowest
    # terms: the first chore j is tied to.
    ties = [next((x, *b[:2]) for x, b in enumerate(row) if b and b[2]) for row in closure]
    dens = {}
    for root, _, d in ties:
        dens[root] = lcm(dens.get(root, 1), d)
    # The root has ratio 1, so these multipliers have no common factor.
    mult = [n * (dens[root] // d) for root, n, d in ties]
    number = {root: c for c, root in enumerate(sorted(dens))}
    cls = [number[root] for root, _, _ in ties]
    members = [sorted(s) for s in pattern]
    takers = [[] for _ in range(m)]
    for i, mem in enumerate(members):
        for j in mem:
            takers[j].append(i)
    single = [len(mem) == 1 for mem in members]
    sole = [
        lo == hi and len(t) == 1 and not single[t[0]] for (lo, hi), t in zip(bands, takers)
    ]
    flows = {}
    k = max(cls) + 1
    for i, mem in enumerate(members):
        if not single[i]:
            for j in mem:
                if not sole[j]:
                    flows[i, j] = k
                    k += 1
    slack = k
    num = slack + 1
    zero = [0] * num
    cons = []

    def add_wealth(r, i, factor):
        # factor times the price part of agent i's budget times its den.
        for j, x in budgets[i][1]:
            r[cls[j]] += factor * x * mult[j]

    for i, mem in enumerate(members):
        if mem:
            d, scale = rows[i]
            rep = mem[0]
            # Strictly worse ratios outside: d(i,rep) p_j' + s <= d(i,j') p_rep.
            for j, dj in enumerate(d):
                if dj is None or j in pattern[i]:
                    continue
                r = zero[:]
                r[cls[j]] += d[rep] * mult[j]
                r[cls[rep]] -= dj * mult[rep]
                r[slack] = scale
                cons.append(lp.Constraint(tuple(r), lp.LE, 0, scale))
        if single[i] or not mem:
            continue
        # Budget: the flows, free and forced, sum to the agent's budget.
        bden, _, const = budgets[i]
        scale = lcm(bden, *(supplies[j].denominator for j in mem if sole[j]))
        r = zero[:]
        add_wealth(r, i, -(scale // bden))
        for j in mem:
            if sole[j]:
                supply = supplies[j]
                r[cls[j]] += (scale // supply.denominator) * supply.numerator * mult[j]
            else:
                r[flows[i, j]] = scale
        cons.append(lp.Constraint(tuple(r), lp.EQ, (scale // bden) * const, scale))

    # Clearing: the flows into chore j against its supply value, or within
    # its band [lo, hi] of it when epsilon > 0; a one-member set's flow is
    # its agent's budget.  The row with bound b and sign +1 (or -1) is
    # (flows - b p_j) times sign <= 0 (or = 0 when lo = hi), over b's
    # denominator: the lower bound is negated so its slack starts basic.
    for j in range(m):
        if sole[j]:
            continue
        lo, hi = bands[j]
        bounds = [(lp.EQ, 1, hi)] if lo == hi else [(lp.LE, -1, lo), (lp.LE, 1, hi)]
        bscale = lcm(*(budgets[i][0] for i in takers[j] if single[i]))
        for rel, sign, bound in bounds:
            flow = sign * bound.denominator
            r = zero[:]
            rhs = 0
            for i in takers[j]:
                if single[i]:
                    bden, _, const = budgets[i]
                    factor = flow * (bscale // bden)
                    add_wealth(r, i, factor)
                    rhs -= factor * const
                else:
                    r[flows[i, j]] = flow * bscale
            r[cls[j]] -= sign * bound.numerator * mult[j] * bscale
            cons.append(lp.Constraint(tuple(r), rel, rhs, bound.denominator * bscale))

    # Positive prices: s - mult q_c <= 0 for each class's smallest multiplier.
    low = {}
    for c, x in zip(cls, mult):
        low[c] = min(x, low.get(c, x))
    for c, x in low.items():
        r = zero[:]
        r[c] = -x
        r[slack] = 1
        cons.append(lp.Constraint(tuple(r), lp.LE, 0))

    if inst.variant == EXCHANGE:
        # Fix the scale of the price ray; fixed-earnings budgets pin it already.
        r = zero[:]
        for c, x in zip(cls, mult):
            r[c] += x
        cons.append(lp.Constraint(tuple(r), lp.EQ, 1))

    obj = zero[:]
    obj[slack] = 1
    return lp.LinearProgram(num, tuple(cons), tuple(obj)), (cls, mult, flows)


def _solve_pattern(inst: Instance, epsilon: Fraction, bands, pattern, closure):
    """The verified equilibrium read off the optimal vertex of the pattern's
    LP (see :func:`_pattern_lp`), or ``None``.  ``bands`` are the chores'
    clearing bands at ``epsilon``: the LP reads the bands and the check
    reads ``epsilon``.  A one-member set's allocation comes from the
    instance's integer budgets."""
    program, (cls, mult, flows) = _pattern_lp(inst, bands, pattern, closure)
    result = lp.lp_solve(program)
    if result.status != lp.OPTIMAL or result.value <= 0:
        return None
    point = result.point
    # Chore j's price is scaled[j] / den: the class prices over their
    # common denominator, times the chore's multiplier.
    q, den = lp._integer_row(point[: max(cls) + 1])
    scaled = [x * q[c] for c, x in zip(cls, mult)]
    allocation = [[_ZERO] * inst.m for _ in range(inst.n)]
    for i, members in enumerate(pattern):
        for j in members:
            k = flows.get((i, j))
            if k is not None:
                if flow := point[k]:
                    allocation[i][j] = Fraction(flow.numerator * den, flow.denominator * scaled[j])
            elif len(members) == 1:  # the agent's budget, all on j
                bden, wealth, const = inst._integer_budgets[i]
                owed = sum(x * scaled[l] for l, x in wealth) + const * den
                allocation[i][j] = Fraction(owed, bden * scaled[j])
            else:  # j's one taker does its whole supply
                allocation[i][j] = inst.supplies[j]
    cand = EquilibriumCandidate([Fraction(x, den) for x in scaled], allocation)
    if not verify_equilibrium(inst, cand, epsilon).ok:
        return None
    total = sum(scaled)
    return EnumeratedEquilibrium(tuple(Fraction(x, total) for x in scaled), tuple(pattern), cand)


#: A bound ``(num, den, weak)`` on ``p_x / p_y``, with ``num`` and ``den``
#: positive integers, means ``p_x / p_y <= num / den`` when ``weak`` and
#: ``p_x / p_y < num / den`` otherwise.  Bounds compose as ``(n1 * n2, d1 *
#: d2, w1 and w2)`` and are compared by cross-multiplying; of two bounds at
#: one ratio the strict one is tighter.  Stored bounds are in lowest terms.
_UNIT = (1, 1, True)


def _agent_edges(inst: Instance, agent: int, members: frozenset):
    """The price-ratio bounds of one agent's MPB set, as ``(x, y, bound)``.

    With ``r`` the set's smallest chore, a member ``j`` ties with it,
    ``p_j = (d_ij / d_ir) p_r``; any other finite chore ``j`` is strictly
    worse, ``p_j < (d_ij / d_ir) p_r``.  The ratios come in lowest terms
    from the agent's integer disutility row.
    """
    if not members:
        return []
    row = inst._integer_rows[agent][0]
    rep = min(members)
    dr = row[rep]
    edges = []
    for j, dj in enumerate(row):
        if dj is None or j == rep:
            continue
        g = gcd(dj, dr)
        num, den = dj // g, dr // g
        tie = j in members
        edges.append((j, rep, (num, den, tie)))
        if tie:
            edges.append((rep, j, (den, num, True)))
    return edges


def _tighten(closure, edges) -> bool:
    """Add ``edges`` to the ratio closure in place; ``False`` on a bad cycle.

    ``closure[x][y]`` is the tightest bound on ``p_x / p_y`` implied so far,
    or ``None``.  A bad cycle multiplies to less than 1, or to exactly 1
    through a strict bound; then no positive prices meet the bounds.  The
    products are integer pairs, reduced only when one is stored.
    """
    for u, v, (num, den, weak) in edges:
        back = closure[v][u]
        if back is not None:
            lhs, rhs = num * back[0], den * back[1]
            if lhs < rhs or (lhs == rhs and not (weak and back[2])):
                return False
        old = closure[u][v]
        if old is not None:
            lhs, rhs = old[0] * den, num * old[1]
            if lhs < rhs or (lhs == rhs and old[2] <= weak):
                continue  # already implied
        sources = [(row, row[u]) for row in closure if row[u] is not None]
        targets = [(y, b) for y, b in enumerate(closure[v]) if b is not None]
        for row, (n1, d1, w1) in sources:
            n1 *= num
            d1 *= den
            w1 = w1 and weak
            for y, (n2, d2, w2) in targets:
                n, d = n1 * n2, d1 * d2
                old = row[y]
                if old is not None:
                    lhs, rhs = n * old[1], old[0] * d
                    if lhs > rhs or (lhs == rhs and old[2] <= (w1 and w2)):
                        continue
                g = gcd(n, d)
                row[y] = (n // g, d // g, w1 and w2)
    return True


def _patterns(inst: Instance, cap: int) -> Iterator[Tuple[Tuple[frozenset, ...], list]]:
    """Every covering, price-consistent pattern with its ratio closure, in
    agent-product order.

    A depth-first search assigns MPB sets agent by agent, carrying the exact
    closure of the price-ratio bounds chosen so far.  A branch is cut when
    its bounds have a bad cycle, or when its sets and those the remaining
    agents could still take leave a chore uncovered.  Each leaf yields
    ``(pattern, closure)``; the closure holds the pattern's tie ratios,
    which :func:`_pattern_lp` reads its tie classes from.  Raises
    :class:`PatternBudgetExceeded` at the call (see :func:`_agent_options`).
    """
    options = _agent_options(inst, cap)
    if not options:
        return iter(())
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
            yield tuple(chosen), closure
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
    return search(0, frozenset(), unit)


def _search(inst: Instance, epsilon, cap: int) -> Tuple[Iterator, Callable]:
    """Check the arguments (``cap`` must be a nonnegative int, else
    :class:`Malformed`) and start the pattern search (which may raise
    :class:`PatternBudgetExceeded`); return its lazy ``(pattern, closure)``
    leaves and a function that solves one leaf's LP, for the caller to call
    per leaf.  The chores' clearing bands are computed here, once."""
    epsilon = _epsilon(epsilon)
    cap = to_int(cap)
    if cap < 0:
        raise Malformed("cap must be nonnegative")
    patterns = _patterns(inst, cap)
    return patterns, functools.partial(
        _solve_pattern, inst, epsilon, _clearing_bands(inst.supplies, epsilon)
    )


def enumerate_equilibria(
    inst: Instance,
    epsilon: Fraction = Fraction(0),
    cap: int = PATTERN_CAP,
) -> EquilibriumSet:
    """One verified equilibrium price ray per pattern that has an
    equilibrium, with a witness allocation; duplicate rays are kept once.

    Raises :class:`PatternBudgetExceeded` when the pattern space is larger
    than ``cap``, and :class:`Malformed` when ``cap`` is not a nonnegative
    int.
    """
    patterns, solve_pattern = _search(inst, epsilon, cap)
    found = {}
    tried = 0
    for tried, leaf in enumerate(patterns, 1):
        hit = solve_pattern(*leaf)
        if hit is not None:
            found.setdefault(hit.ray, hit)
    return EquilibriumSet(tuple(found.values()), tried)


def exists_equilibrium(
    inst: Instance,
    epsilon: Fraction = Fraction(0),
    cap: int = PATTERN_CAP,
) -> Optional[EnumeratedEquilibrium]:
    """First equilibrium found, or ``None``; stops at the first hit.

    Agents try their sets largest first (see :func:`_agent_options`), so
    which equilibrium comes first depends on that order.
    """
    patterns, solve_pattern = _search(inst, epsilon, cap)
    hits = (solve_pattern(*leaf) for leaf in patterns)
    return next((hit for hit in hits if hit is not None), None)


@dataclass(frozen=True)
class SolverConfig:
    #: Most pattern LPs one solve may run.
    max_iters: int = 20000


@dataclass(frozen=True)
class SolveOutcome:
    """What :func:`solve` found and why it stopped.

    ``iterations`` counts the pattern LPs solved.  ``reason`` is ``"found"``
    (``candidate`` is an exact equilibrium), ``"budget"`` (``max_iters`` LPs
    solved without one) or ``"cap"`` (the pattern space exceeds
    :data:`PATTERN_CAP`, so no LP ran).
    """

    candidate: Optional[EquilibriumCandidate]
    iterations: int
    reason: str

    @property
    def converged(self) -> bool:
        """Whether the search found an equilibrium: ``reason == "found"``."""
        return self.reason == "found"


def solve(inst: Instance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Find one exact equilibrium of an instance that passes both conditions.

    Raises :class:`ConditionViolated` when a condition fails.  Otherwise
    solves the LPs of the exact pattern search in order, each agent's sets
    largest first, at most ``config.max_iters`` of them, and returns the
    first verified equilibrium in the caller's units and variant.  Each LP
    has its forced flows substituted out (see :func:`_pattern_lp`).  The
    conditions guarantee an equilibrium, so a search that runs out of
    patterns is a bug and raises :class:`ConstructionFailed`.  A
    ``max_iters`` that is not a nonnegative int is :class:`Malformed`.
    """
    max_iters = to_int(config.max_iters)
    if max_iters < 0:
        raise Malformed("max_iters must be nonnegative")
    report = check_conditions(inst)
    if not report.condition1.ok:
        raise ConditionViolated(f"condition 1 fails: {report.condition1.witness}")
    if not report.condition2.ok:
        raise ConditionViolated(f"condition 2 fails: order {report.condition2.scc_order}")
    try:
        patterns, solve_pattern = _search(inst, 0, PATTERN_CAP)
    except PatternBudgetExceeded:
        return SolveOutcome(None, 0, "cap")
    solved = 0
    for leaf in patterns:
        if solved == max_iters:
            return SolveOutcome(None, solved, "budget")
        solved += 1
        hit = solve_pattern(*leaf)
        if hit is not None:
            return SolveOutcome(hit.candidate, solved, "found")
    raise ConstructionFailed(f"pattern search ran out after {solved} LPs")
