"""Equilibrium verification, fairness reporting, and efficiency checks.

A candidate is a competitive equilibrium when every agent earns exactly its
budget, does so only through minimum pain-per-buck (MPB) chores below the
dislike threshold, and every chore is fully done.  The clearing condition may
be relaxed to a ``(1 - epsilon)`` band; the MPB and budget conditions are
never relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, Infeasible, Malformed
from .model import (
    EXACT,
    EquilibriumCandidate,
    Instance,
    agent_budget,
    chore_supply,
)
from . import lp

#: Default tolerances for float-mode verification.
TOL_MPB = 1e-9
TOL_CLEARING = 1e-7

#: Float allocation entries at or below this are treated as zero.
POS_TOL = 1e-12


@dataclass(frozen=True)
class MPBSet:
    """Minimum pain-per-buck chores of one agent at given prices.

    ``ratio`` is the attained minimum of ``d(i, j) / p_j`` (a Fraction on
    exact prices, a float on float prices); ``None`` when the agent has no
    usable chore (all finite-disutility chores priced at zero, or no
    finite-disutility chore at all), in which case ``members`` is empty and
    ``degenerate`` is set.
    """

    members: frozenset
    ratio: Optional[Fraction]
    degenerate: bool = False


def mpb_sets(inst: Instance, prices: Sequence, tol: float = 0) -> Tuple[MPBSet, ...]:
    """MPB sets for all agents, exact or within a relative tie band.

    With ``tol=0`` a chore is a member exactly when its ratio equals the
    minimum; on Fraction prices the sets are exact.  With ``tol > 0`` (meant
    for float prices) a chore is a member when its ratio is at most
    ``(1 + tol)`` times the minimum.  Ratios on float prices are
    ``float(d) / p``.  Zero-price chores are never members: a
    finite-disutility chore at price zero has unbounded pain per buck.
    """
    if len(prices) != inst.m:
        raise DimensionMismatch("price vector length must match chore count")
    out = []
    for i in range(inst.n):
        ratios = {
            j: inst.disutility[i][j] / prices[j]
            for j in inst.finite_chores(i)
            if prices[j] > 0
        }
        if not ratios:
            out.append(MPBSet(frozenset(), None, degenerate=bool(inst.finite_chores(i))))
            continue
        best = min(ratios.values())
        bound = best * (1 + tol) if tol else best
        out.append(
            MPBSet(frozenset(j for j, r in ratios.items() if r <= bound), best)
        )
    return tuple(out)


@dataclass(frozen=True)
class VerificationReport:
    mpb_ok: bool
    threshold_ok: bool
    budget_ok: bool
    clearing_ok: bool
    epsilon: Fraction
    mode: str
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.mpb_ok and self.threshold_ok and self.budget_ok and self.clearing_ok


def verify_equilibrium(
    inst: Instance,
    cand: EquilibriumCandidate,
    epsilon: Fraction = Fraction(0),
    tol_mpb: float = TOL_MPB,
    tol_clearing: float = TOL_CLEARING,
) -> VerificationReport:
    """Check the equilibrium conditions, exactly or within float tolerances.

    ``epsilon`` relaxes only the clearing condition to the band
    ``(1 - eps) * supply <= done <= supply / (1 - eps)``.  A zero (or
    negative) price on any chore fails the price-positivity part of the MPB
    condition outright.
    """
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon < 1:
        raise Malformed("epsilon must lie in [0, 1)")
    if cand.n != inst.n or cand.m != inst.m:
        raise DimensionMismatch("candidate shape must match instance")
    exact = cand.mode == EXACT
    violations: List[str] = []
    mpb_ok = threshold_ok = budget_ok = clearing_ok = True

    pos = (lambda x: x > 0) if exact else (lambda x: x > POS_TOL)
    prices = cand.prices
    X = cand.allocation
    flow = cand.money_flow()

    for j, pj in enumerate(prices):
        if pj <= 0:
            mpb_ok = False
            violations.append(f"chore {j} has non-positive price")

    sets = mpb_sets(inst, prices, 0 if exact else tol_mpb) if mpb_ok else None

    for i in range(inst.n):
        for j in range(inst.m):
            if not pos(X[i][j]):
                continue
            if inst.disutility[i][j] is None:
                threshold_ok = False
                violations.append(f"agent {i} does forbidden chore {j}")
                continue
            if sets is not None and j not in sets[i].members:
                mpb_ok = False
                violations.append(f"agent {i} does non-MPB chore {j}")

    for i in range(inst.n):
        budget = agent_budget(inst, i, prices)
        earned = sum(flow[i])
        if exact:
            bad = earned != budget
        else:
            bad = abs(float(earned) - float(budget)) > tol_mpb * max(1.0, abs(float(budget)))
        if bad:
            budget_ok = False
            violations.append(
                f"agent {i} earns {earned} but owes {budget}"
            )

    for j in range(inst.m):
        supply = chore_supply(inst, j)
        done = sum(X[i][j] for i in range(inst.n))
        lo = (1 - epsilon) * supply
        hi = supply / (1 - epsilon)
        if exact:
            bad = not (lo <= done <= hi)
        else:
            slack = tol_clearing * max(1.0, float(supply))
            bad = float(done) < float(lo) - slack or float(done) > float(hi) + slack
        if bad:
            clearing_ok = False
            violations.append(f"chore {j}: {done} done of supply {supply}")

    return VerificationReport(
        mpb_ok,
        threshold_ok,
        budget_ok,
        clearing_ok,
        epsilon,
        cand.mode,
        tuple(violations),
    )


# ---------------------------------------------------------------------------
# Fairness


@dataclass(frozen=True)
class PairComparison:
    """Weighted envy comparison of agent ``i`` against agent ``other``.

    ``lhs`` is ``i``'s own disutility per unit of budget; ``rhs`` is the
    disutility rate ``i`` would suffer doing ``other``'s bundle, scaled by
    ``other``'s budget.  ``None`` stands for an infinite rate.
    """

    i: int
    other: int
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    ok: bool


@dataclass(frozen=True)
class FairnessReport:
    profile: Tuple[Optional[Fraction], ...]
    comparisons: Tuple[PairComparison, ...]
    excluded_agents: Tuple[int, ...]

    @property
    def weighted_envy_free(self) -> bool:
        return all(c.ok for c in self.comparisons)


def _exact_candidate(cand: EquilibriumCandidate) -> EquilibriumCandidate:
    if cand.mode == EXACT:
        return cand
    return EquilibriumCandidate(
        [Fraction(p) for p in cand.prices],
        [[Fraction(x) for x in row] for row in cand.allocation],
        mode=EXACT,
    )


def disutility_profile(inst: Instance, allocation) -> Tuple[Optional[Fraction], ...]:
    """Total disutility each agent suffers; ``None`` when a forbidden chore
    is touched."""
    profile = []
    for i in range(inst.n):
        total = Fraction(0)
        for j in range(inst.m):
            x = allocation[i][j]
            if x == 0:
                continue
            d = inst.disutility[i][j]
            if d is None:
                total = None
                break
            total += d * x
        profile.append(total)
    return tuple(profile)


def fairness_report(inst: Instance, cand: EquilibriumCandidate) -> FairnessReport:
    """Disutility profile and pairwise weighted envy comparisons.

    Agent ``i`` does not envy ``i'`` when ``D_i / budget_i`` is at most the
    rate ``i`` would pay for ``i'``'s bundle divided by ``i'``'s budget.
    Zero-budget agents are excluded from comparisons (their rates are
    undefined) and reported separately.
    """
    cand = _exact_candidate(cand)
    profile = disutility_profile(inst, cand.allocation)
    budgets = [agent_budget(inst, i, cand.prices) for i in range(inst.n)]
    excluded = tuple(i for i, b in enumerate(budgets) if b == 0)
    comparisons = []
    for i in range(inst.n):
        if budgets[i] == 0:
            continue
        for other in range(inst.n):
            if other == i or budgets[other] == 0:
                continue
            lhs = None if profile[i] is None else profile[i] / budgets[i]
            cross = Fraction(0)
            for j in range(inst.m):
                x = cand.allocation[other][j]
                if x == 0:
                    continue
                d = inst.disutility[i][j]
                if d is None:
                    cross = None
                    break
                cross += d * x
            rhs = None if cross is None else cross / budgets[other]
            if rhs is None:
                ok = True
            elif lhs is None:
                ok = False
            else:
                ok = lhs <= rhs
            comparisons.append(PairComparison(i, other, lhs, rhs, ok))
    return FairnessReport(profile, tuple(comparisons), excluded)


# ---------------------------------------------------------------------------
# Pareto optimality


@dataclass(frozen=True)
class ParetoResult:
    optimal: bool
    dominated_agent: Optional[int] = None
    witness: Optional[tuple] = None


def check_pareto(inst: Instance, allocation) -> ParetoResult:
    """Decide Pareto optimality of a full assignment by one LP per agent.

    For each agent ``t``, minimize ``t``'s disutility over complete
    assignments that keep every other agent at most as badly off.  The input
    must fully assign every chore using only finite-disutility pairs.
    """
    allocation = tuple(tuple(Fraction(x) for x in row) for row in allocation)
    if len(allocation) != inst.n or any(len(row) != inst.m for row in allocation):
        raise DimensionMismatch("allocation shape must match instance")
    for i in range(inst.n):
        for j in range(inst.m):
            if allocation[i][j] > 0 and inst.disutility[i][j] is None:
                raise Infeasible(f"assignment uses forbidden pair ({i}, {j})")
            if allocation[i][j] < 0:
                raise Infeasible("assignment entries must be nonnegative")
    for j in range(inst.m):
        if sum(row[j] for row in allocation) != chore_supply(inst, j):
            raise Infeasible(f"chore {j} is not exactly fully assigned")

    profile = disutility_profile(inst, allocation)
    pairs = [(i, j) for i in range(inst.n) for j in inst.finite_chores(i)]
    index = {pair: k for k, pair in enumerate(pairs)}
    num = len(pairs)

    for t in range(inst.n):
        cons = []
        for j in range(inst.m):
            row = [Fraction(0)] * num
            for i in range(inst.n):
                k = index.get((i, j))
                if k is not None:
                    row[k] = Fraction(1)
            cons.append(lp.constraint(row, lp.EQ, chore_supply(inst, j)))
        for i in range(inst.n):
            if i == t:
                continue
            row = [Fraction(0)] * num
            for j in inst.finite_chores(i):
                row[index[(i, j)]] = inst.disutility[i][j]
            cons.append(lp.constraint(row, lp.LE, profile[i]))
        obj = [Fraction(0)] * num
        for j in inst.finite_chores(t):
            obj[index[(t, j)]] = inst.disutility[t][j]
        result = lp.lp_solve(
            lp.LinearProgram(num, tuple(cons), tuple(obj), maximize=False)
        )
        if result.status != lp.OPTIMAL:
            continue  # no alternative assignment exists for this agent
        if result.value < profile[t]:
            witness = [[Fraction(0)] * inst.m for _ in range(inst.n)]
            for (i, j), k in index.items():
                witness[i][j] = result.point[k]
            return ParetoResult(
                optimal=False,
                dominated_agent=t,
                witness=tuple(tuple(row) for row in witness),
            )
    return ParetoResult(optimal=True)
