"""Exact rational linear programming.

A small two-phase tableau simplex over :class:`fractions.Fraction` with
Bland's anti-cycling rule.  Every variable is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import Malformed

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Constraint:
    coeffs: Tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """``max/min c.x`` subject to linear constraints and ``x >= 0``."""

    num_vars: int
    constraints: Tuple[Constraint, ...]
    objective: Tuple[Fraction, ...]
    maximize: bool = True

    def __post_init__(self):
        if self.num_vars <= 0:
            raise Malformed("linear program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise Malformed("objective length must equal num_vars")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise Malformed("constraint width must equal num_vars")
            if con.rel not in (LE, EQ, GE):
                raise Malformed(f"unknown relation {con.rel!r}")


@dataclass(frozen=True)
class LPResult:
    status: str
    point: Optional[Tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None


def constraint(coeffs, rel, rhs) -> Constraint:
    return Constraint(tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [x - factor * y for x, y in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, basis, cost):
    """Maximize, in place.  ``cost`` is the reduced-cost row (last entry =
    current objective value).  Returns "optimal" or "unbounded"."""
    num_cols = len(cost) - 1
    while True:
        enter = -1
        for j in range(num_cols):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for r, line in enumerate(tableau):
            if line[enter] > 0:
                ratio = line[-1] / line[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)
        factor = cost[enter]
        cost[:] = [x - factor * y for x, y in zip(cost, tableau[leave])]


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve the program exactly; returns status plus an optimal point."""
    num_vars = lp.num_vars
    sign = _ONE if lp.maximize else -_ONE
    obj = [sign * c for c in lp.objective]

    # Standard form: equalities with slack columns, rhs >= 0.
    num_slack = sum(1 for con in lp.constraints if con.rel != EQ)
    total = num_vars + num_slack
    tableau = []
    slack_col = num_vars
    for con in lp.constraints:
        line = list(con.coeffs) + [_ZERO] * num_slack + [con.rhs]
        if con.rel != EQ:
            line[slack_col] = _ONE if con.rel == LE else -_ONE
            slack_col += 1
        if line[-1] < 0:
            line = [-x for x in line]
        tableau.append(line)

    # Phase 1: identity basis from usable slack columns, artificials elsewhere.
    basis = [-1] * len(tableau)
    art_cols = []
    for r, line in enumerate(tableau):
        found = -1
        for j in range(num_vars, total):
            if line[j] == 1 and all(
                other[j] == 0 for rr, other in enumerate(tableau) if rr != r
            ):
                found = j
                break
        if found >= 0:
            basis[r] = found
        else:
            col = total + len(art_cols)
            art_cols.append(col)
            basis[r] = col
    if art_cols:
        for r, line in enumerate(tableau):
            rhs = line.pop()
            line.extend(_ZERO for _ in art_cols)
            line.append(rhs)
            if basis[r] >= total:
                line[basis[r]] = _ONE
        width = total + len(art_cols)
        # Phase-1 objective: maximize -(sum of artificials), priced out.
        cost = [_ZERO] * (width + 1)
        for col in art_cols:
            cost[col] = -_ONE
        for r, line in enumerate(tableau):
            if basis[r] >= total:
                cost = [x + y for x, y in zip(cost, line)]
        _run_simplex(tableau, basis, cost)
        if cost[-1] != 0:
            return LPResult(INFEASIBLE)
        # Drive remaining zero-level artificials out of the basis.
        drop_rows = []
        for r in range(len(tableau)):
            if basis[r] >= total:
                col = next(
                    (j for j in range(total) if tableau[r][j] != 0), None
                )
                if col is None:
                    drop_rows.append(r)
                else:
                    _pivot(tableau, basis, r, col)
        for r in sorted(drop_rows, reverse=True):
            del tableau[r]
            del basis[r]
        tableau = [line[:total] + [line[-1]] for line in tableau]

    # Phase 2.
    cost = obj + [_ZERO] * num_slack + [_ZERO]
    for r, line in enumerate(tableau):
        if cost[basis[r]] != 0:
            factor = cost[basis[r]]
            cost = [x - factor * y for x, y in zip(cost, line)]
    status = _run_simplex(tableau, basis, cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    point = [_ZERO] * num_vars
    for r, col in enumerate(basis):
        if col < num_vars:
            point[col] = tableau[r][-1]
    value = sum(c * x for c, x in zip(lp.objective, point))
    return LPResult(OPTIMAL, tuple(point), value)
