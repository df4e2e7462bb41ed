"""Equilibrium verification, fairness reporting, and efficiency checks.

A candidate is a competitive equilibrium when every agent earns exactly its
budget, does so only through minimum pain-per-buck (MPB) chores below the
dislike threshold, and every chore is fully done.  The clearing condition may
be relaxed to a ``(1 - epsilon)`` band; the MPB and budget conditions are
never relaxed.

The exact check runs on integers: prices and allocation over their common
denominators, and budgets from the instance's cached integer budgets, so
each budget and each chore's clearing band is one comparison of integer
cross-products.  MPB membership comes from :func:`mpb_sets`, the package's
one MPB routine, which on exact prices compares integer cross-products of
the instance's cached integer disutility rows and the prices over their
common denominator, so a passing exact check adds, multiplies and divides
no Fraction.  The float check has its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, Infeasible
from .model import (
    _ZERO,
    EXACT,
    EquilibriumCandidate,
    Instance,
    _clearing_bands,
    _epsilon,
    _tolerance,
    agent_budget,
    to_fraction,
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
    exact prices, a float on float prices).  An agent with no usable chore
    has empty ``members`` and ``ratio`` ``None``; ``degenerate`` is set
    when it has finite-disutility chores but every one is priced at or
    below zero, and not when it has no finite-disutility chore at all.
    """

    members: frozenset
    ratio: Optional[Fraction]
    degenerate: bool = False


def mpb_sets(inst: Instance, prices: Sequence, tol: float = 0) -> Tuple[MPBSet, ...]:
    """MPB sets for all agents, exact or within a relative tie band.

    With ``tol=0`` a chore is a member exactly when its ratio equals the
    minimum.  On exact prices (every price a Fraction or an int) the sets
    come from integer cross-products: with the prices written ``P_j / D``
    over their common denominator and agent ``i``'s disutility row in
    integers ``R_ij`` (see :class:`~choremarket.model.Instance`), chore
    ``j`` has a lower ratio than chore ``k`` when ``R_ij P_k < R_ik P_j``,
    and each agent's ``ratio`` is the one Fraction built.  With ``tol >
    0`` (meant for float prices) a chore is a member when its ratio is at
    most ``(1 + tol)`` times the minimum.  Dividing a Fraction disutility
    by a float price gives the float ``float(d) / p``.  Chores priced at
    or below zero are never members: a finite-disutility chore at price
    zero has unbounded pain per buck.  A ``tol`` that is not a finite
    nonnegative number (a bool included) is :class:`Malformed`.
    """
    _tolerance(tol)
    if len(prices) != inst.m:
        raise DimensionMismatch("price vector length must match chore count")
    out = []
    if not tol and set(map(type, prices)) <= {Fraction, int}:
        P, D = lp._integer_row(prices)
        positive = [j for j, x in enumerate(P) if x > 0]
        for row, scale in inst._integer_rows:
            members = []  # the chores at the least ratio so far, first one first
            for j in positive:
                dj = row[j]
                if dj is None:
                    continue
                if members:
                    lhs, rhs = dj * P[members[0]], row[members[0]] * P[j]
                    if lhs > rhs:
                        continue
                    if lhs < rhs:
                        members = []
                members.append(j)
            if members:
                best = members[0]
                out.append(MPBSet(frozenset(members), Fraction(row[best] * D, scale * P[best])))
            else:
                degenerate = any(d is not None for d in row)
                out.append(MPBSet(frozenset(), None, degenerate=degenerate))
        return tuple(out)
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
    condition outright.  Every allocation entry must be nonnegative (in
    float mode: at least ``-POS_TOL``); a negative one fails the clearing
    condition, named by agent and chore.  Agent ``i`` earns
    ``sum_j allocation[i][j] * prices[j]``.  A tolerance that is not a
    finite nonnegative number (a bool included), and an ``epsilon`` that is
    not a rational in ``[0, 1)``, are :class:`Malformed`.
    """
    _tolerance(tol_mpb)
    _tolerance(tol_clearing)
    epsilon = _epsilon(epsilon)
    if cand.n != inst.n or cand.m != inst.m:
        raise DimensionMismatch("candidate shape must match instance")
    exact = cand.mode == EXACT
    violations: List[str] = []
    mpb_ok = True
    prices = cand.prices
    # An exact price has its numerator's sign: one int comparison each.
    for j, pj in enumerate(map(attrgetter("numerator"), prices) if exact else prices):
        if pj <= 0:
            mpb_ok = False
            violations.append(f"chore {j} has non-positive price")

    sets = mpb_sets(inst, prices, 0 if exact else tol_mpb) if mpb_ok else None
    if exact:
        flags = _exact_conditions(inst, cand, epsilon, sets, violations)
    else:
        flags = _float_conditions(inst, cand, epsilon, sets, tol_mpb, tol_clearing, violations)
    cells_mpb_ok, threshold_ok, budget_ok, clearing_ok = flags
    return VerificationReport(
        mpb_ok and cells_mpb_ok,
        threshold_ok,
        budget_ok,
        clearing_ok,
        epsilon,
        cand.mode,
        tuple(violations),
    )


def _exact_conditions(inst, cand, epsilon, sets, violations):
    """``(mpb_ok, threshold_ok, budget_ok, clearing_ok)`` of an exact
    candidate's cells, budgets and chores, appending their violations.

    The sums run in integers: prices ``P_j / D`` and allocation
    ``X_ij / L`` over their common denominators ``D`` and ``L``.  A
    Fraction is built only to write a violation.  The cell scan skips
    the shared zero ``_ZERO`` unread and truth-tests any other entry.
    """
    mpb_ok = threshold_ok = budget_ok = clearing_ok = True
    cells = []  # (i, j, x) per nonzero entry, in row order
    for i, row in enumerate(cand.allocation):
        for j, x in enumerate(row):
            if x is _ZERO or not x:
                continue
            cells.append((i, j, x))
            if x.numerator < 0:
                clearing_ok = False
                violations.append(f"agent {i} does negative amount {x} of chore {j}")
            elif inst.disutility[i][j] is None:
                threshold_ok = False
                violations.append(f"agent {i} does forbidden chore {j}")
            elif sets is not None and j not in sets[i].members:
                mpb_ok = False
                violations.append(f"agent {i} does non-MPB chore {j}")

    prices, D = lp._integer_row(cand.prices)
    L = lcm(*(x.denominator for _, _, x in cells))
    earned = [0] * inst.n
    done = [0] * inst.m
    for i, j, x in cells:
        amount = x.numerator * (L // x.denominator)
        earned[i] += amount * prices[j]
        done[j] += amount

    # Agent i earns earned[i] / (L D) and owes owed / (den D).
    for i, (den, wealth, const) in enumerate(inst._integer_budgets):
        owed = sum(x * prices[j] for j, x in wealth) + const * D
        if earned[i] * den != owed * L:
            budget_ok = False
            violations.append(
                f"agent {i} earns {Fraction(earned[i], L * D)} but owes {Fraction(owed, den * D)}"
            )

    # Chore j is done done[j] / L, within its band lo <= done[j] / L <= hi.
    supplies = inst.supplies
    for j, (supply, amount, (lo, hi)) in enumerate(
        zip(supplies, done, _clearing_bands(supplies, epsilon))
    ):
        if (
            lo.numerator * L > lo.denominator * amount
            or hi.denominator * amount > hi.numerator * L
        ):
            clearing_ok = False
            violations.append(f"chore {j}: {Fraction(amount, L)} done of supply {supply}")
    return mpb_ok, threshold_ok, budget_ok, clearing_ok


def _float_conditions(inst, cand, epsilon, sets, tol_mpb, tol_clearing, violations):
    """``(mpb_ok, threshold_ok, budget_ok, clearing_ok)`` of a float
    candidate within the tolerances, appending their violations."""
    mpb_ok = threshold_ok = budget_ok = clearing_ok = True
    prices = cand.prices

    # One visit per nonzero entry (in a large market most are zero) checks
    # the cell and adds it to its agent's earnings and its chore's done
    # amount.  The sums start at a zero of the price type, so an all-zero
    # float row earns 0.0 (``abs``: a negative float price gives -0.0).
    zero = _ZERO * abs(prices[0])
    earned = [zero] * inst.n
    done = [zero] * inst.m
    chores = range(inst.m)
    for i, row in enumerate(cand.allocation):
        for j in compress(chores, row):
            x = row[j]
            earned[i] += x * prices[j]
            done[j] += x
            if not x > POS_TOL:
                if x < -POS_TOL:
                    clearing_ok = False
                    violations.append(f"agent {i} does negative amount {x} of chore {j}")
                continue
            if inst.disutility[i][j] is None:
                threshold_ok = False
                violations.append(f"agent {i} does forbidden chore {j}")
                continue
            if sets is not None and j not in sets[i].members:
                mpb_ok = False
                violations.append(f"agent {i} does non-MPB chore {j}")

    for i, earned_i in enumerate(earned):
        budget = agent_budget(inst, i, prices)
        if abs(float(earned_i) - float(budget)) > tol_mpb * max(1.0, abs(float(budget))):
            budget_ok = False
            violations.append(
                f"agent {i} earns {earned_i} but owes {budget}"
            )

    supplies = inst.supplies
    for j, (supply, done_j, (lo, hi)) in enumerate(
        zip(supplies, done, _clearing_bands(supplies, epsilon))
    ):
        slack = tol_clearing * max(1.0, float(supply))
        if float(done_j) < float(lo) - slack or float(done_j) > float(hi) + slack:
            clearing_ok = False
            violations.append(f"chore {j}: {done_j} done of supply {supply}")
    return mpb_ok, threshold_ok, budget_ok, clearing_ok


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


def _bundle_disutility(inst: Instance, agent: int, row) -> Optional[Fraction]:
    """Disutility ``agent`` suffers for the bundle ``row``; ``None`` when the
    bundle holds a chore the agent cannot do."""
    total = Fraction(0)
    for j in range(inst.m):
        x = row[j]
        if x == 0:
            continue
        d = inst.disutility[agent][j]
        if d is None:
            return None
        total += d * x
    return total


def disutility_profile(inst: Instance, allocation) -> Tuple[Optional[Fraction], ...]:
    """Total disutility each agent suffers; ``None`` when a forbidden chore
    is touched."""
    return tuple(_bundle_disutility(inst, i, allocation[i]) for i in range(inst.n))


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
            cross = _bundle_disutility(inst, i, cand.allocation[other])
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
    """Decide Pareto optimality of a full assignment by one LP.

    Minimize the sum of disutilities over complete assignments that leave
    every agent at most as badly off.  The given assignment is feasible, so
    it is Pareto optimal exactly when the optimum equals its own sum;
    otherwise the optimal point is the witness, and ``dominated_agent`` is
    the lowest agent strictly better off under it.  The input must fully
    assign every chore using only finite-disutility pairs; its entries are
    read by :func:`~choremarket.model.to_fraction`, so a float, a bool or
    an unreadable string is :class:`Malformed`.
    """
    allocation = tuple(tuple(to_fraction(x) for x in row) for row in allocation)
    if len(allocation) != inst.n or any(len(row) != inst.m for row in allocation):
        raise DimensionMismatch("allocation shape must match instance")
    for i in range(inst.n):
        for j in range(inst.m):
            if allocation[i][j] > 0 and inst.disutility[i][j] is None:
                raise Infeasible(f"assignment uses forbidden pair ({i}, {j})")
            if allocation[i][j] < 0:
                raise Infeasible("assignment entries must be nonnegative")
    supplies = inst.supplies
    for j in range(inst.m):
        if sum(row[j] for row in allocation) != supplies[j]:
            raise Infeasible(f"chore {j} is not exactly fully assigned")

    profile = disutility_profile(inst, allocation)
    pairs = [(i, j) for i in range(inst.n) for j in inst.finite_chores(i)]
    index = {pair: k for k, pair in enumerate(pairs)}
    num = len(pairs)

    cons = []
    for j in range(inst.m):
        row = [Fraction(0)] * num
        for i in range(inst.n):
            k = index.get((i, j))
            if k is not None:
                row[k] = Fraction(1)
        cons.append(lp.constraint(row, lp.EQ, supplies[j]))
    for i in range(inst.n):
        row = [Fraction(0)] * num
        for j in inst.finite_chores(i):
            row[index[(i, j)]] = inst.disutility[i][j]
        cons.append(lp.constraint(row, lp.LE, profile[i]))
    obj = [inst.disutility[i][j] for i, j in pairs]
    result = lp.lp_solve(lp.LinearProgram(num, tuple(cons), tuple(obj), maximize=False))
    if result.value == sum(profile):
        return ParetoResult(optimal=True)
    witness = [[Fraction(0)] * inst.m for _ in range(inst.n)]
    for (i, j), k in index.items():
        witness[i][j] = result.point[k]
    better = disutility_profile(inst, witness)
    return ParetoResult(
        optimal=False,
        dominated_agent=next(i for i in range(inst.n) if better[i] < profile[i]),
        witness=tuple(tuple(row) for row in witness),
    )
