"""Exact rational linear programming.

A small two-phase tableau simplex with Bland's anti-cycling rule.  Every
variable is nonnegative.  Programs come in and points go out as
:class:`fractions.Fraction`; inside, each tableau row is an integer row, a
positive multiple of its rational row (scaled by the lcm of its
denominators).  A pivot negates the pivot row if its pivot is negative,
then eliminates the other rows fraction-free (``line * pivot - f * prow``)
over the pivot row's nonzero columns only, and divides each result by the
gcd of its entries.  Positive row multiples leave every sign and every
ratio test as in the rational tableau, so the pivots are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple

from .errors import Malformed

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


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


def _integer_row(values):
    """``values`` times the lcm of their denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _reduce(line):
    """``line`` divided by the gcd of its entries."""
    g = gcd(*line)
    return [x // g for x in line] if g > 1 else line


def _eliminate(line, col, prow, nonzeros):
    """Zero ``line[col]`` with the pivot row ``prow`` (``prow[col] > 0``).

    ``line * prow[col] - line[col] * prow``, subtracting only at the pivot
    row's ``nonzeros`` (column, value) pairs, then gcd-reduced.  The factor
    ``prow[col]`` is positive, so every sign in ``line`` keeps its meaning.
    """
    piv = prow[col]
    f = line[col]
    out = [x * piv for x in line] if piv != 1 else list(line)
    for j, y in nonzeros:
        out[j] -= f * y
    return _reduce(out)


def _pivot(tableau, basis, row, col):
    """Make ``col`` basic in ``row``; returns the pivot row's nonzeros.

    A negative pivot, met only when phase 1 drives a zero-level artificial
    out, first negates the pivot row so that its multiple stays positive.
    """
    if tableau[row][col] < 0:
        tableau[row] = [-x for x in tableau[row]]
    prow = tableau[row]
    nonzeros = [(j, x) for j, x in enumerate(prow) if x]
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            tableau[r] = _eliminate(line, col, prow, nonzeros)
    basis[row] = col
    return nonzeros


def _run_simplex(tableau, basis, cost):
    """Maximize, in place.  ``cost`` is a positive multiple of the
    reduced-cost row (last entry: minus the current objective value).
    Returns "optimal" or "unbounded"."""
    num_cols = len(cost) - 1
    while True:
        enter = next((j for j in range(num_cols) if cost[j] > 0), -1)
        if enter < 0:
            return OPTIMAL
        # Ratio test on rhs/a by cross-multiplying (a > 0); ties go to the
        # lowest basic index.
        leave = -1
        for r, line in enumerate(tableau):
            a = line[enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                lhs = line[-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return UNBOUNDED
        nonzeros = _pivot(tableau, basis, leave, enter)
        cost[:] = _eliminate(cost, enter, tableau[leave], nonzeros)


def _price_out(cost, tableau, basis):
    """Zero the cost entries of the basic columns."""
    for r, line in enumerate(tableau):
        if cost[basis[r]]:
            nonzeros = [(j, x) for j, x in enumerate(line) if x]
            cost = _eliminate(cost, basis[r], line, nonzeros)
    return cost


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve the program exactly; returns status plus an optimal point."""
    num_vars = lp.num_vars
    obj, _ = _integer_row(lp.objective)
    if not lp.maximize:
        obj = [-c for c in obj]

    # Standard form: equalities with slack columns, rhs >= 0, each row
    # scaled by the lcm of its denominators.
    num_slack = sum(1 for con in lp.constraints if con.rel != EQ)
    total = num_vars + num_slack
    tableau = []
    scales = []
    slack_col = num_vars
    for con in lp.constraints:
        line, scale = _integer_row((*con.coeffs, con.rhs))
        line[-1:-1] = [0] * num_slack
        if con.rel != EQ:
            line[slack_col] = scale if con.rel == LE else -scale
            slack_col += 1
        if line[-1] < 0:
            line = [-x for x in line]
        tableau.append(line)
        scales.append(scale)

    # Phase 1: identity basis from usable slack columns, artificials
    # elsewhere.  A slack column is nonzero in its own row only, so a
    # positive entry makes it a unit column.
    basis = [-1] * len(tableau)
    art_cols = []
    for r, line in enumerate(tableau):
        found = next((j for j in range(num_vars, total) if line[j] > 0), -1)
        if found >= 0:
            basis[r] = found
        else:
            col = total + len(art_cols)
            art_cols.append(col)
            basis[r] = col
    if art_cols:
        for r, line in enumerate(tableau):
            line[-1:-1] = [0] * len(art_cols)
            if basis[r] >= total:
                line[basis[r]] = scales[r]
    tableau = [_reduce(line) for line in tableau]
    if art_cols:
        # Phase-1 objective: maximize -(sum of artificials), priced out.
        cost = [0] * (total + len(art_cols) + 1)
        for col in art_cols:
            cost[col] = -1
        cost = _price_out(cost, tableau, basis)
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
    cost = _price_out(obj + [0] * (num_slack + 1), tableau, basis)
    status = _run_simplex(tableau, basis, cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    point = [_ZERO] * num_vars
    for r, col in enumerate(basis):
        if col < num_vars:
            point[col] = Fraction(tableau[r][-1], tableau[r][col])
    value = sum(c * x for c, x in zip(lp.objective, point))
    return LPResult(OPTIMAL, tuple(point), value)
