"""The existence proof's price map in exact rationals: a test oracle.

The paper proves that its two conditions give an equilibrium by way of a
fixed-point map on prices.  The map acts on an exchange market measured in
units of chore supply (:func:`rescale_to_unit_supply`).  Prices stay
nonnegative, sum to one and balance each component of the disutility graph's
budget against its price mass.  One step (:func:`phi`) raises the price of
under-done chores (``q = p + unmet supply``), forms the exchange matrix
between components, and takes the component masses from a unit-sum
nonnegative null vector of it (:func:`stochastic_null_vector`, one exact LP).
Equilibria are exactly its fixed points.  The package finds equilibria by
pattern search instead, and the tests check its answers against this map.
"""

from fractions import Fraction

from choremarket import lp
from choremarket.errors import Infeasible
from choremarket.model import EXCHANGE, Instance, agent_budget, chore_supply
from choremarket.verification import mpb_sets

F = Fraction


def stochastic_null_vector(Z):
    """Nonnegative unit-sum ``t`` with ``Z t = 0``, for a square rational
    ``Z`` with nonnegative off-diagonal entries and zero column sums: the
    vertex the exact simplex reaches (the zero matrix gives ``(1, 0, ...)``)."""
    d = len(Z)
    cons = [lp.constraint(row, lp.EQ, 0) for row in Z]
    cons.append(lp.constraint([1] * d, lp.EQ, 1))
    result = lp.lp_solve(lp.LinearProgram(d, tuple(cons), (0,) * d))
    assert result.status == lp.OPTIMAL, "the matrix has no stochastic null vector"
    return result.point


def rescale_to_unit_supply(inst):
    """The exchange market measured in units of each chore's supply, and the
    supplies.  Prices scale as ``supply * p`` and allocations as
    ``X / supply``; disutilities scale with supply, so pain-per-buck ratios
    stay the same."""
    s = inst.supplies
    d = [[None if x is None else x * s[j] for j, x in enumerate(row)] for row in inst.disutility]
    w = [[x / s[j] for j, x in enumerate(row)] for row in inst.endowment]
    tau = max((x for row in d for x in row if x is not None), default=F(1)) + 1
    return Instance(EXCHANGE, tau, tuple(map(tuple, d)), endowment=tuple(map(tuple, w))), s


def _component_of(dec):
    return {j: k for k, comp in enumerate(dec.components) for j in comp.chores}


def _component_masses(inst, dec, share):
    """Null vector of the exchange matrix: entry ``(k, l)`` is the endowment
    that component ``k``'s agents hold in component ``l``'s chores, each
    chore weighted by its ``share``, minus one on the diagonal."""
    comp_of = _component_of(dec)
    M = [[F(-1) if k == l else F(0) for l in range(dec.d)] for k in range(dec.d)]
    for k, comp in enumerate(dec.components):
        for a in comp.agents:
            for j in range(inst.m):
                M[k][comp_of[j]] += inst.endowment[a][j] * share[j]
    return stochastic_null_vector(M)


def initial_prices(inst, dec):
    """A start in the normalised price domain of a unit-supply market: each
    component's mass, from the exchange matrix, on its first chore."""
    first = [comp.chores[0] for comp in dec.components]
    masses = _component_masses(inst, dec, [int(j in first) for j in range(inst.m)])
    p = [F(0)] * inst.m
    for j, t in zip(first, masses):
        p[j] = t
    return tuple(p)


def optimal_allocation(inst, prices):
    """Each agent spends its whole budget on its minimum pain-per-buck
    chores, in proportion to prices, so tied chores get equal units.  An
    agent with a positive budget and no positively priced chore it can do
    raises :class:`Infeasible`."""
    X = []
    for i, mpb in enumerate(mpb_sets(inst, prices)):
        row = [F(0)] * inst.m
        budget = agent_budget(inst, i, prices)
        if budget > 0:
            if not mpb.members:
                raise Infeasible(f"agent {i} cannot earn {budget}: its chores are priced 0")
            unit = budget / sum(prices[j] for j in mpb.members)
            for j in mpb.members:
                row[j] = unit
        X.append(tuple(row))
    return tuple(X)


def phi(inst, p, X, dec):
    """The map's new prices at prices ``p`` and allocation ``X``: chore
    ``j`` of component ``k`` gets ``q_j / Q_k * t_k``, with ``Q`` the
    component masses of ``q`` and ``t`` the null vector of the exchange
    matrix weighted by ``q / Q``."""
    comp_of = _component_of(dec)
    q = [p[j] + max(chore_supply(inst, j) - sum(row[j] for row in X), 0) for j in range(inst.m)]
    Q = [sum(q[j] for j in comp.chores) for comp in dec.components]
    share = [q[j] / Q[comp_of[j]] for j in range(inst.m)]
    mass = _component_masses(inst, dec, share)
    return tuple(share[j] * mass[comp_of[j]] for j in range(inst.m))
