"""The existence proof's price map, and an exact solver behind the condition gate.

The paper's existence proof prices whole components of the disutility graph.
Prices stay nonnegative, sum to one and balance each component's budget
against its price mass.  One step of its map (:func:`phi_step`) bumps the
price of under-done chores (``q = p + unmet supply``), forms the exchange
matrix ``M`` between components, takes the component masses from a unit-sum
nonnegative null vector of ``M`` (one exact LP), and reallocates greedily at
minimum pain-per-buck, splitting each agent's budget across its tied chores
in proportion to prices.  Equilibria are exactly the fixed points.  The map
computes in rationals, so a solver equilibrium maps to itself exactly.  It
is kept, with its tests, as the documented form of the proof; damped
iteration of it converged on only about a third of the random conditioned
markets, so it is no solver.

:func:`solve` gates on both sufficiency conditions, which guarantee an
equilibrium, and then walks the exact minimum pain-per-buck pattern search
of :mod:`choremarket.enumeration` (the one its ``enumerate_equilibria`` and
``exists_equilibrium`` walk too), solving one exact LP per pattern until a
pattern yields a verified equilibrium or the LP budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import lp
from .errors import (
    ConditionViolated,
    ConstructionFailed,
    Infeasible,
    Malformed,
    PatternBudgetExceeded,
    WrongVariant,
)
from .enumeration import PATTERN_CAP, _search
from .graphs import ComponentDecomposition, check_conditions
from .model import (
    EXCHANGE,
    EquilibriumCandidate,
    Instance,
    agent_budget,
    chore_supply,
    to_fraction,
)
from .verification import mpb_sets

_ZERO = Fraction(0)


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
    ``enumeration.PATTERN_CAP``, so no LP ran).
    """

    converged: bool
    candidate: Optional[EquilibriumCandidate]
    iterations: int
    reason: str


def stochastic_null_vector(Z) -> Tuple[Fraction, ...]:
    """Nonnegative unit-sum vector ``t`` with ``Z t = 0``, exactly.

    ``Z`` is a square matrix of rationals (see :func:`model.to_fraction`)
    with nonnegative off-diagonal entries and zero column sums.  Its null
    space is spanned by nonnegative vectors, one per closed class, so the LP
    ``Z t = 0``, ``1^T t = 1``, ``t >= 0`` is feasible; ``t`` is the vertex
    the simplex reaches (the zero matrix gives ``(1, 0, ..., 0)``).
    """
    rows = [[to_fraction(z) for z in row] for row in Z]
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise Malformed("matrix must be square")
    if any(z < 0 for i, row in enumerate(rows) for j, z in enumerate(row) if i != j):
        raise Malformed("off-diagonal entries must be nonnegative")
    if any(sum(col) != 0 for col in zip(*rows)):
        raise Malformed("column sums must vanish")
    cons = [lp.constraint(row, lp.EQ, 0) for row in rows]
    cons.append(lp.constraint([1] * d, lp.EQ, 1))
    result = lp.lp_solve(lp.LinearProgram(d, tuple(cons), (0,) * d))
    if result.status != lp.OPTIMAL:
        raise ConstructionFailed("matrix has no stochastic null vector")
    return result.point


def rescale_to_unit_supply(inst: Instance) -> Tuple[Instance, Tuple[Fraction, ...]]:
    """Measure each chore in units of its total supply.

    Returns the rescaled exchange instance and the original supplies.  Prices
    transform as ``p_scaled = supply * p``, allocations as
    ``X_scaled = X / supply``; disutilities scale with supply so that
    pain-per-buck ratios are unchanged.
    """
    if inst.variant != EXCHANGE:
        raise WrongVariant("supply rescaling applies to exchange instances")
    supplies = inst.supplies
    d = [
        [None if x is None else x * supplies[j] for j, x in enumerate(row)]
        for row in inst.disutility
    ]
    w = [
        [x / supplies[j] for j, x in enumerate(row)]
        for row in inst.endowment
    ]
    tau = max(
        (x for row in d for x in row if x is not None), default=Fraction(1)
    ) + 1
    scaled = Instance(EXCHANGE, Fraction(tau), tuple(map(tuple, d)), endowment=tuple(map(tuple, w)))
    return scaled, supplies


def _exchange_matrix(inst: Instance, dec: ComponentDecomposition, share):
    """``M = A^T W (C * share) - I``: entry ``(k, l)`` is the endowment that
    component ``k``'s agents hold in component ``l``'s chores, each chore
    weighted by its ``share``, minus one on the diagonal."""
    M = []
    for k, comp in enumerate(dec.components):
        held = [sum(col) for col in zip(*(inst.endowment[a] for a in comp.agents))]
        M.append([
            sum(held[j] * share[j] for j in other.chores) - (1 if k == l else 0)
            for l, other in enumerate(dec.components)
        ])
    return M


def initial_prices(inst: Instance, dec: ComponentDecomposition) -> Tuple[Fraction, ...]:
    """A starting point in the normalized price domain.

    Supported on one chore per component: the component masses are the null
    vector of the exchange matrix with all of each component's share on its
    chosen chore.  Requires unit chore supplies; the prices sum to one.
    """
    if inst.variant != EXCHANGE:
        raise WrongVariant("the price map requires the exchange variant")
    if any(supply != 1 for supply in inst.supplies):
        raise Malformed("operation requires unit chore supplies")
    if dec.d == 0:
        raise ConstructionFailed("no components to price")
    chosen = {comp.chores[0] for comp in dec.components}
    M = _exchange_matrix(inst, dec, [1 if j in chosen else 0 for j in range(inst.m)])
    p = [_ZERO] * inst.m
    for comp, t in zip(dec.components, stochastic_null_vector(M)):
        p[comp.chores[0]] = t
    return tuple(p)


def optimal_allocation(inst: Instance, prices) -> Tuple[Tuple[Fraction, ...], ...]:
    """Greedy budget-clearing response to the given rational prices.

    Each agent spends its whole budget on its exact minimum pain-per-buck
    chores, splitting money in proportion to prices (so tied chores get
    equal units).  Agents with nonpositive budget do nothing.  An agent with
    a positive budget but no positively priced chore it can do raises
    :class:`Infeasible`.
    """
    prices = [to_fraction(p) for p in prices]
    if len(prices) != inst.m:
        raise Malformed("price vector length must match chore count")
    X = []
    for i, mpb in enumerate(mpb_sets(inst, prices)):
        row = [_ZERO] * inst.m
        budget = agent_budget(inst, i, prices)
        if budget > 0:
            if not mpb.members:
                raise Infeasible(f"agent {i} cannot earn {budget}: its chores are priced 0")
            unit = budget / sum(prices[j] for j in mpb.members)
            for j in mpb.members:
                row[j] = unit
        X.append(tuple(row))
    return tuple(X)


def phi_step(inst: Instance, p, X, dec: ComponentDecomposition):
    """One undamped update in rationals: new prices from (p, X), new
    allocation at p.

    With ``Q`` the component masses of ``q``, the exchange matrix is
    ``M = A^T W (C * q / Q[comp]) - I`` (see :func:`_exchange_matrix`) and
    chore ``j`` of component ``k`` gets price ``q_j / Q_k * t_k`` for the
    null vector ``t`` of ``M``.  Returns ``(new_prices, new_allocation)``.
    """
    if inst.variant != EXCHANGE:
        raise WrongVariant("the price map requires the exchange variant")
    p = [to_fraction(x) for x in p]
    done = [sum(col) for col in zip(*([to_fraction(x) for x in row] for row in X))]
    q = [pj + max(chore_supply(inst, j) - done[j], _ZERO) for j, pj in enumerate(p)]
    comp_of = {j: k for k, comp in enumerate(dec.components) for j in comp.chores}
    Q = [sum(q[j] for j in comp.chores) for comp in dec.components]
    if any(mass <= 0 for mass in Q):
        raise ConstructionFailed("a component has zero price mass")
    share = [qj / Q[comp_of[j]] for j, qj in enumerate(q)]
    t = stochastic_null_vector(_exchange_matrix(inst, dec, share))
    new_p = tuple(share[j] * t[comp_of[j]] for j in range(inst.m))
    return new_p, optimal_allocation(inst, p)


def solve(inst: Instance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Find one exact equilibrium of an instance that passes both conditions.

    Raises :class:`ConditionViolated` when a condition fails.  Otherwise
    solves the LPs of the exact pattern search in order, at most
    ``config.max_iters`` of them, and returns the first verified equilibrium
    in the caller's units and variant.  The conditions guarantee an
    equilibrium, so a search that runs out of patterns is a bug and raises
    :class:`ConstructionFailed`.
    """
    if config.max_iters < 0:
        raise Malformed("max_iters must be nonnegative")
    report = check_conditions(inst)
    if not report.condition1.ok:
        raise ConditionViolated(f"condition 1 fails: {report.condition1.witness}")
    if not report.condition2.ok:
        raise ConditionViolated(f"condition 2 fails: order {report.condition2.scc_order}")
    try:
        patterns, solve_pattern = _search(inst, 0, PATTERN_CAP)
    except PatternBudgetExceeded:
        return SolveOutcome(False, None, 0, "cap")
    solved = 0
    for pattern in patterns:
        if solved == config.max_iters:
            return SolveOutcome(False, None, solved, "budget")
        solved += 1
        hit = solve_pattern(pattern)
        if hit is not None:
            return SolveOutcome(True, hit.candidate, solved, "found")
    raise ConstructionFailed(f"pattern search ran out after {solved} LPs")
