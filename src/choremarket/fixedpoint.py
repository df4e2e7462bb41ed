"""The existence proof's price map, and an exact solver behind the condition gate.

The paper's existence proof prices whole components of the disutility graph.
Prices stay nonnegative, sum to one and balance each component's budget
against its price mass.  One step of its map (:func:`phi_step`) bumps the
price of under-done chores (``q = p + unmet supply``), forms the exchange
matrix ``M`` between components from 0/1 agent and chore membership matrices,
takes the component masses from the unit-sum null vector of ``M`` (one
least-squares solve), and reallocates greedily at minimum pain-per-buck,
splitting each agent's budget across its tied chores in proportion to prices.
Equilibria are exactly the fixed points.  The map is kept, with its tests,
as the documented form of the proof; damped iteration of it converged on
only about a third of the random conditioned markets, so it is no solver.
The map computes in floats, on arrays it builds from the exact market data
on every call.

:func:`solve` gates on both sufficiency conditions, which guarantee an
equilibrium, and then walks the exact minimum pain-per-buck pattern search of
:mod:`choremarket.enumeration`, one exact LP per pattern, until a pattern
yields a verified equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .errors import (
    ConditionViolated,
    ConstructionFailed,
    Malformed,
    NotConverged,
    PatternBudgetExceeded,
    WrongVariant,
)
from .enumeration import PATTERN_CAP, _IntegerView, _patterns, _solve_pattern
from .graphs import ComponentDecomposition, check_conditions
from .model import EXCHANGE, EquilibriumCandidate, Instance, agent_budget, chore_supply
from .verification import mpb_sets

#: Tolerances for the numeric machinery.
TOL_P = 1e-9
TOL_NULL = 1e-10
#: Relative tie band of the greedy allocation's MPB sets.
ALLOCATION_TIE_TOL = 1e-9


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


def stochastic_null_vector(Z: np.ndarray) -> np.ndarray:
    """Nonnegative unit-sum vector ``t`` with ``Z t = 0``.

    Requires nonnegative off-diagonal entries and (near-)zero column sums.
    The null space of such a matrix is spanned by nonnegative vectors, one
    per closed class, so the minimum-norm least-squares solution of
    ``[Z; 1^T] t = (0, ..., 0, 1)`` is a positive combination of them.  The
    residual ``max |Z t|`` must reach ``TOL_NULL``.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise Malformed("matrix must be square")
    if not np.isfinite(Z).all():
        raise Malformed("matrix entries must be finite")
    d = Z.shape[0]
    off = Z - np.diag(np.diag(Z))
    if off.min(initial=0.0) < -TOL_P:
        raise Malformed("off-diagonal entries must be nonnegative")
    if np.abs(Z.sum(axis=0)).max(initial=0.0) > TOL_P:
        raise Malformed("column sums must vanish")
    if d == 1:
        return np.array([1.0])
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    t = np.linalg.lstsq(np.vstack([Z, np.ones(d)]), rhs, rcond=None)[0]
    t = np.clip(t, 0.0, None)
    t = t / t.sum()
    if not np.abs(Z @ t).max() <= TOL_NULL:
        raise NotConverged("null-vector residual above tolerance")
    return t


def rescale_to_unit_supply(inst: Instance) -> Tuple[Instance, Tuple[Fraction, ...]]:
    """Measure each chore in units of its total supply.

    Returns the rescaled exchange instance and the original supplies.  Prices
    transform as ``p_scaled = supply * p``, allocations as
    ``X_scaled = X / supply``; disutilities scale with supply so that
    pain-per-buck ratios are unchanged.
    """
    if inst.variant != EXCHANGE:
        raise WrongVariant("supply rescaling applies to exchange instances")
    supplies = tuple(chore_supply(inst, j) for j in range(inst.m))
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


def _float_market(inst: Instance, dec: ComponentDecomposition):
    """Float arrays of the map: chore supplies, the endowment matrix, and the
    0/1 agents x components and chores x components membership matrices."""
    if inst.variant != EXCHANGE:
        raise WrongVariant("the price map requires the exchange variant")
    supply = np.array([float(chore_supply(inst, j)) for j in range(inst.m)])
    W = np.array([[float(w) for w in row] for row in inst.endowment])
    A = np.zeros((inst.n, dec.d))
    C = np.zeros((inst.m, dec.d))
    for k, comp in enumerate(dec.components):
        A[list(comp.agents), k] = 1.0
        C[list(comp.chores), k] = 1.0
    return supply, W, A, C


def initial_prices(inst: Instance, dec: ComponentDecomposition) -> np.ndarray:
    """A starting point in the normalized price domain.

    Supported on one chore per component: solve for component masses with the
    same null-vector machinery applied to the endowment totals of the chosen
    chores.  Requires unit chore supplies.
    """
    supply, W, A, _ = _float_market(inst, dec)
    if np.abs(supply - 1.0).max() > TOL_P:
        raise Malformed("operation requires unit chore supplies")
    if dec.d == 0:
        raise ConstructionFailed("no components to price")
    chosen = [comp.chores[0] for comp in dec.components]
    p = np.zeros(inst.m)
    p[chosen] = stochastic_null_vector(A.T @ W[:, chosen] - np.eye(dec.d))
    if not np.isfinite(p).all() or abs(p.sum() - 1.0) > TOL_P:
        raise ConstructionFailed("initial price vector is not normalized")
    return p


def optimal_allocation(inst: Instance, prices: np.ndarray) -> np.ndarray:
    """Greedy budget-clearing response to the given prices.

    Each agent spends its whole budget on its minimum pain-per-buck chores,
    splitting money in proportion to prices (so tied chores get equal units).
    Agents with nonpositive budget do nothing.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (inst.m,):
        raise Malformed("price vector length must match chore count")
    X = np.zeros((inst.n, inst.m))
    sets = mpb_sets(inst, prices, ALLOCATION_TIE_TOL)
    for i, mpb in enumerate(sets):
        budget = float(agent_budget(inst, i, prices))
        if budget <= 0:
            continue
        members = sorted(mpb.members)
        mass = sum(prices[j] for j in members)
        for j in members:
            X[i, j] = budget / mass
    return X


def phi_step(
    inst: Instance, p: np.ndarray, X: np.ndarray, dec: ComponentDecomposition
):
    """One undamped update: new prices from (p, X), new allocation at p.

    With ``A`` and ``C`` the agent and chore membership matrices and ``Q``
    the component masses of ``q``, the exchange matrix is
    ``M = A^T W (C * q / Q[comp]) - I`` and chore ``j`` of component ``k``
    gets price ``q_j / Q_k * t_k`` for the null vector ``t`` of ``M``.

    Returns ``(new_prices, new_allocation, diagnostics)`` where diagnostics
    carry the price bump ``q - p`` minimum and the worst column-sum error of
    the component matrix.
    """
    supply, W, A, C = _float_market(inst, dec)
    q = p + np.maximum(supply - X.sum(axis=0), 0.0)
    Q = q @ C
    if Q.min(initial=np.inf) <= 0:
        raise ConstructionFailed("a component has zero price mass")
    share = q / (C @ Q)
    M = A.T @ W @ (C * share[:, None]) - np.eye(dec.d)
    colsum_error = float(np.abs(M.sum(axis=0)).max())
    new_p = share * (C @ stochastic_null_vector(M))
    new_X = optimal_allocation(inst, p)
    diagnostics = {
        "min_price_bump": float((q - p).min()),
        "colsum_error": colsum_error,
    }
    return new_p, new_X, diagnostics


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
        patterns = _patterns(inst, PATTERN_CAP)
    except PatternBudgetExceeded:
        return SolveOutcome(False, None, 0, "cap")
    view = _IntegerView(inst, Fraction(0))
    solved = 0
    for pattern in patterns:
        if solved == config.max_iters:
            return SolveOutcome(False, None, solved, "budget")
        solved += 1
        hit = _solve_pattern(view, pattern)
        if hit is not None:
            return SolveOutcome(True, hit.candidate, solved, "found")
    raise ConstructionFailed(f"pattern search ran out after {solved} LPs")
