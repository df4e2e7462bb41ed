"""Float fixed-point price iteration for instances passing both conditions.

The iteration follows the existence proof, which prices whole components of
the disutility graph.  Prices stay nonnegative, sum to one and balance each
component's budget against its price mass.  One step bumps the price of
under-done chores (``q = p + unmet supply``), forms the exchange matrix ``M``
between components from 0/1 agent and chore membership matrices, takes the
component masses from the unit-sum null vector of ``M`` (one least-squares
solve), and reallocates greedily at minimum pain-per-buck, splitting each
agent's budget across its tied chores in proportion to prices.  Equilibria
are exactly the fixed points; the loop damps the update and stops when the
worst clearing residual is small and the candidate passes float verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ConditionViolated,
    ConstructionFailed,
    Malformed,
    NotConverged,
    WrongVariant,
)
from .enumeration import _solve_pattern
from .graphs import ComponentDecomposition, check_conditions
from .model import (
    EXCHANGE,
    FIXED_EARNINGS,
    FLOAT,
    EquilibriumCandidate,
    Instance,
    chore_supply,
)
from .verification import mpb_sets, verify_equilibrium

#: Tolerances for the numeric machinery.
TOL_P = 1e-9
TOL_NULL = 1e-10
RESIDUAL_TOL = 1e-7
DAMPING = 0.5
#: Relative tie band of the greedy allocation's MPB sets.
ALLOCATION_TIE_TOL = 1e-9
#: Float-verification tolerance (MPB and clearing) of a reported candidate.
VERIFY_TOL = 1e-6
#: Every this many iterations, try snapping the near-tie minimum pain-per-buck
#: pattern of the current prices to an exact equilibrium with the pattern LP.
SNAP_INTERVAL = 5
SNAP_TIE_TOL = 1e-6
#: Skip snapping on instances with more agent-chore pairs than this (the
#: exact LP would dominate the run time).
SNAP_SIZE_CAP = 600


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    residual_tol: float = RESIDUAL_TOL
    damping: float = DAMPING


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration invariants, for inspection and testing."""

    iteration: int
    residual: float
    simplex_error: float
    balance_error: float
    min_price_bump: float
    colsum_error: float


@dataclass(frozen=True)
class SolveOutcome:
    converged: bool
    candidate: Optional[EquilibriumCandidate]
    iterations: int
    residual: float
    trace: Tuple[IterationRecord, ...]


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


def _require_unit_supply(inst: Instance) -> None:
    if np.abs(inst.float_supply - 1.0).max() > TOL_P:
        raise Malformed("operation requires unit chore supplies")


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


def initial_prices(inst: Instance, dec: ComponentDecomposition) -> np.ndarray:
    """A starting point in the normalized price domain.

    Supported on one chore per component: solve for component masses with the
    same null-vector machinery applied to the endowment totals of the chosen
    chores.  Requires unit chore supplies.
    """
    if inst.variant != EXCHANGE:
        raise WrongVariant("initial prices require the exchange variant")
    _require_unit_supply(inst)
    if dec.d == 0:
        raise ConstructionFailed("no components to price")
    chosen = dec.chore_membership.argmax(axis=0)  # first chore of each component
    W = dec.agent_membership.T @ inst.float_wealth[:, chosen]
    p = np.zeros(inst.m)
    p[chosen] = stochastic_null_vector(W - np.eye(dec.d))
    if not np.isfinite(p).all() or abs(p.sum() - 1.0) > TOL_P:
        raise ConstructionFailed("initial price vector is not normalized")
    return p


def allocation_bound(inst: Instance) -> float:
    """Upper bound ``m * d_max / d_min`` used to keep allocations compact."""
    finite = [float(x) for row in inst.disutility for x in row if x is not None]
    if not finite:
        return float(inst.m)
    return inst.m * max(finite) / min(finite)


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
    budgets = inst.float_budgets(prices).tolist()
    sets = mpb_sets(inst, prices, ALLOCATION_TIE_TOL)
    for i, (budget, mpb) in enumerate(zip(budgets, sets)):
        if budget <= 0:
            continue
        members = sorted(mpb.members)
        mass = sum(prices[j] for j in members)
        for j in members:
            X[i, j] = budget / mass
    return X


def clearing_residual(inst: Instance, X: np.ndarray) -> float:
    return float(np.abs(inst.float_supply - X.sum(axis=0)).max())


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
    A = dec.agent_membership
    C = dec.chore_membership
    q = p + np.maximum(inst.float_supply - X.sum(axis=0), 0.0)
    Q = q @ C
    if Q.min(initial=np.inf) <= 0:
        raise ConstructionFailed("a component has zero price mass")
    share = q / (C @ Q)
    M = A.T @ inst.float_wealth @ (C * share[:, None]) - np.eye(dec.d)
    colsum_error = float(np.abs(M.sum(axis=0)).max())
    new_p = share * (C @ stochastic_null_vector(M))
    new_X = optimal_allocation(inst, p)
    diagnostics = {
        "min_price_bump": float((q - p).min()),
        "colsum_error": colsum_error,
    }
    return new_p, new_X, diagnostics


def _balance_error(inst: Instance, dec: ComponentDecomposition, p: np.ndarray) -> float:
    spent = inst.float_budgets(p) @ dec.agent_membership
    return float(np.abs(spent - p @ dec.chore_membership).max(initial=0.0))


def _tie_pattern(inst: Instance, p: np.ndarray):
    """Near-tie MPB sets at float prices, as an enumeration pattern."""
    pattern = []
    for i, mpb in enumerate(mpb_sets(inst, p, SNAP_TIE_TOL)):
        if not inst.has_positive_wealth(i):
            pattern.append(frozenset())
        elif mpb.ratio is None:
            return None
        else:
            pattern.append(mpb.members)
    if frozenset().union(*pattern) != frozenset(range(inst.m)):
        return None
    return tuple(pattern)


def _attempts(scaled: Instance, p: np.ndarray, it: int, cleared: bool, attempted: set):
    """Candidates after iteration ``it``: the iterate once it clears, then,
    every ``SNAP_INTERVAL`` iterations, the exact solution of the near-tie
    pattern's LP if that pattern is new."""
    if cleared:
        yield p, optimal_allocation(scaled, p)
    if scaled.n * scaled.m > SNAP_SIZE_CAP or (it + 1) % SNAP_INTERVAL:
        return
    pattern = _tie_pattern(scaled, p)
    if pattern is None or pattern in attempted:
        return
    attempted.add(pattern)
    hit = _solve_pattern(scaled, pattern, Fraction(0))
    if hit is not None:
        yield (
            np.array(hit.candidate.prices, dtype=float),
            np.array(hit.candidate.allocation, dtype=float),
        )


def solve(inst: Instance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Search for an approximate equilibrium by damped fixed-point iteration.

    Gates on both sufficiency conditions (raising
    :class:`ConditionViolated` otherwise), works internally on the
    unit-supply exchange form, and reports a float-mode candidate in the
    original units once its clearing residual is below tolerance and it
    passes float verification.
    """
    report = check_conditions(inst)
    if not report.condition1.ok:
        raise ConditionViolated(f"condition 1 fails: {report.condition1.witness}")
    if not report.condition2.ok:
        raise ConditionViolated(f"condition 2 fails: order {report.condition2.scc_order}")
    ex = inst if inst.variant == EXCHANGE else inst.to_exchange()
    dec = report.condition1.decomposition
    scaled, supplies = rescale_to_unit_supply(ex)
    sup = np.array([float(s) for s in supplies])

    p = initial_prices(scaled, dec)
    X = optimal_allocation(scaled, p)
    trace: List[IterationRecord] = []
    attempted: set = set()
    gamma = config.damping
    residual = clearing_residual(scaled, X)

    for it in range(config.max_iters):
        new_p, X, diag = phi_step(scaled, p, X, dec)
        p = (1.0 - gamma) * p + gamma * new_p
        total = p.sum()
        if total <= 0:
            raise ConstructionFailed("price iterate collapsed to zero")
        p = p / total
        residual = clearing_residual(scaled, X)
        trace.append(
            IterationRecord(
                iteration=it,
                residual=residual,
                simplex_error=abs(float(p.sum()) - 1.0),
                balance_error=_balance_error(scaled, dec, p),
                min_price_bump=diag["min_price_bump"],
                colsum_error=diag["colsum_error"],
            )
        )
        cleared = residual <= config.residual_tol
        for cand_p, cand_X in _attempts(scaled, p, it, cleared, attempted):
            cand_residual = clearing_residual(scaled, cand_X)
            if cand_residual > config.residual_tol:
                continue
            candidate = _to_original(inst, cand_p, cand_X, sup)
            if verify_equilibrium(
                inst, candidate, tol_mpb=VERIFY_TOL, tol_clearing=VERIFY_TOL
            ).ok:
                return SolveOutcome(True, candidate, it + 1, cand_residual, tuple(trace))
    return SolveOutcome(False, None, config.max_iters, residual, tuple(trace))


def _to_original(
    inst: Instance, p: np.ndarray, X: np.ndarray, supplies: np.ndarray
) -> EquilibriumCandidate:
    """Map a unit-supply iterate back to the caller's units and variant."""
    orig_p = p / supplies
    orig_X = X * supplies
    if inst.variant == FIXED_EARNINGS:
        total_value = float(sum(
            float(chore_supply(inst, j)) * orig_p[j] for j in range(inst.m)
        ))
        total_earning = float(sum(inst.earning))
        if total_value > 0:
            orig_p = orig_p * (total_earning / total_value)
    return EquilibriumCandidate(
        tuple(float(x) for x in orig_p),
        tuple(tuple(float(x) for x in row) for row in orig_X),
        mode=FLOAT,
    )
