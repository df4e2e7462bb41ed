"""Float fixed-point price iteration for instances passing both conditions.

The iteration works on the normalized price domain: nonnegative prices that
sum to one and balance each component's budget against its price mass.  One
step bumps the price of under-done chores (``q = p + unmet supply``), rebuilds
component price masses through the null vector of a column-sum-zero matrix,
and reallocates greedily at minimum pain-per-buck, splitting each agent's
budget across its tied chores in proportion to prices.  Equilibria are exactly
the fixed points; the loop damps the update and stops when the worst clearing
residual is small and the candidate passes float verification.
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
MAX_NULL_ITERS = 10**6
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


@dataclass
class IterationState:
    prices: np.ndarray
    allocation: np.ndarray
    iteration: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    converged: bool
    candidate: Optional[EquilibriumCandidate]
    iterations: int
    residual: float
    trace: Tuple[IterationRecord, ...]


def stochastic_null_vector(Z: np.ndarray) -> np.ndarray:
    """Nonnegative unit-sum vector ``t`` with ``Z t = 0``.

    Requires nonnegative off-diagonal entries and (near-)zero column sums;
    then ``Z / lam + I`` is column stochastic for large ``lam`` and has a
    stochastic fixed vector.  A direct nullspace solve is tried first, with
    power iteration on the stochastic matrix as fallback (at most
    ``MAX_NULL_ITERS`` steps).  The residual ``max |Z t|`` must reach
    ``TOL_NULL``.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise Malformed("matrix must be square")
    d = Z.shape[0]
    off = Z - np.diag(np.diag(Z))
    if off.min(initial=0.0) < -TOL_P:
        raise Malformed("off-diagonal entries must be nonnegative")
    if np.abs(Z.sum(axis=0)).max(initial=0.0) > TOL_P:
        raise Malformed("column sums must vanish")
    if d == 1:
        return np.array([1.0])

    def _residual(t):
        return np.abs(Z @ t).max()

    scale = max(np.abs(Z).max(), 1.0)
    try:
        _, svals, vt = np.linalg.svd(Z)
    except np.linalg.LinAlgError:
        svals = None
    if svals is not None and svals[-1] <= 1e-12 * scale and (
        d < 2 or svals[-2] > 1e-8 * scale
    ):
        t = vt[-1]
        if t.sum() < 0:
            t = -t
        if t.min() > -1e-8 * max(t.sum(), 1e-30):
            t = np.clip(t, 0.0, None)
            if t.sum() > 0:
                t = t / t.sum()
                if _residual(t) <= TOL_NULL:
                    return t

    lam = scale + 1.0
    t = np.full(d, 1.0 / d)
    for _ in range(MAX_NULL_ITERS):
        if _residual(t) <= TOL_NULL:
            return t
        t = t + (Z @ t) / lam
        t = np.clip(t, 0.0, None)
        total = t.sum()
        if total <= 0:
            raise NotConverged("power iteration collapsed to zero")
        t = t / total
    if _residual(t) <= TOL_NULL:
        return t
    raise NotConverged("null-vector power iteration hit the iteration cap")


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
    d = dec.d
    if d == 0:
        raise ConstructionFailed("no components to price")
    chosen = [comp.chores[0] for comp in dec.components]
    W = np.zeros((d, d))
    for k, comp in enumerate(dec.components):
        for kk, b in enumerate(chosen):
            W[k, kk] = float(sum(inst.endowment[a][b] for a in comp.agents))
    W -= np.eye(d)
    t = stochastic_null_vector(W)
    p = np.zeros(inst.m)
    for k, b in enumerate(chosen):
        p[b] = t[k]
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


def phi_step(inst: Instance, state: IterationState, dec: ComponentDecomposition):
    """One undamped update: new prices from (p, X), new allocation at p.

    Returns ``(new_prices, new_allocation, diagnostics)`` where diagnostics
    carry the price bump ``q - p`` minimum and the worst column-sum error of
    the component matrix.
    """
    p = state.prices
    X = state.allocation
    q = p + np.maximum(inst.float_supply - X.sum(axis=0), 0.0)
    d = dec.d
    Q = np.zeros(d)
    comp_of = np.full(inst.m, -1)
    for k, comp in enumerate(dec.components):
        for b in comp.chores:
            comp_of[b] = k
        Q[k] = sum(q[b] for b in comp.chores)
    if Q.min(initial=np.inf) <= 0:
        raise ConstructionFailed("a component has zero price mass")
    M = np.zeros((d, d))
    w = inst.float_wealth
    for k, comp in enumerate(dec.components):
        for a in comp.agents:
            for j in range(inst.m):
                kk = comp_of[j]
                if kk >= 0 and w[a, j] > 0:
                    M[k, kk] += w[a, j] * q[j] / Q[kk]
    M -= np.eye(d)
    colsum_error = float(np.abs(M.sum(axis=0)).max())
    mass = stochastic_null_vector(M)
    new_p = np.zeros(inst.m)
    for j in range(inst.m):
        new_p[j] = q[j] / Q[comp_of[j]] * mass[comp_of[j]]
    new_X = optimal_allocation(inst, p)
    diagnostics = {
        "min_price_bump": float((q - p).min()),
        "colsum_error": colsum_error,
    }
    return new_p, new_X, diagnostics


def _balance_error(inst: Instance, dec: ComponentDecomposition, p: np.ndarray) -> float:
    worst = 0.0
    budgets = inst.float_budgets(p).tolist()
    for comp in dec.components:
        spent = sum(budgets[a] for a in comp.agents)
        mass = sum(p[b] for b in comp.chores)
        worst = max(worst, abs(spent - mass))
    return worst


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


def _try_snap(scaled: Instance, p: np.ndarray, attempted: set):
    """Solve the pattern LP for the current near-tie pattern, if new."""
    pattern = _tie_pattern(scaled, p)
    if pattern is None or pattern in attempted:
        return None
    attempted.add(pattern)
    return _solve_pattern(scaled, pattern, Fraction(0))


def solve(inst: Instance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Search for an approximate equilibrium by damped fixed-point iteration.

    Gates on both sufficiency conditions (raising
    :class:`ConditionViolated` otherwise), works internally on the
    unit-supply exchange form, and reports a float-mode candidate in the
    original units once the clearing residual is below tolerance and the
    candidate passes float verification.
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
        state = IterationState(p, X, it)
        new_p, new_X, diag = phi_step(scaled, state, dec)
        p = (1.0 - gamma) * p + gamma * new_p
        total = p.sum()
        if total <= 0:
            raise ConstructionFailed("price iterate collapsed to zero")
        p = p / total
        X = new_X
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
        if residual <= config.residual_tol:
            final_X = optimal_allocation(scaled, p)
            if clearing_residual(scaled, final_X) <= config.residual_tol:
                candidate = _to_original(inst, p, final_X, sup)
                report = verify_equilibrium(
                    inst,
                    candidate,
                    tol_mpb=VERIFY_TOL,
                    tol_clearing=VERIFY_TOL,
                )
                if report.ok:
                    return SolveOutcome(
                        True, candidate, it + 1, residual, tuple(trace)
                    )
        if scaled.n * scaled.m <= SNAP_SIZE_CAP and (it + 1) % SNAP_INTERVAL == 0:
            hit = _try_snap(scaled, p, attempted)
            if hit is not None:
                snap_p = np.array([float(x) for x in hit.candidate.prices])
                snap_X = np.array(
                    [[float(x) for x in row] for row in hit.candidate.allocation]
                )
                residual = clearing_residual(scaled, snap_X)
                candidate = _to_original(inst, snap_p, snap_X, sup)
                report = verify_equilibrium(
                    inst,
                    candidate,
                    tol_mpb=VERIFY_TOL,
                    tol_clearing=VERIFY_TOL,
                )
                if report.ok and residual <= config.residual_tol:
                    return SolveOutcome(
                        True, candidate, it + 1, residual, tuple(trace)
                    )
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
