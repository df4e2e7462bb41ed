"""Exact rational linear programming.

A small two-phase tableau simplex with Bland's anti-cycling rule.  Every
variable is nonnegative.  A program's constraints are integer rows, each
with a positive ``scale``: the rational row is the integers divided by
``scale``, so a slack or artificial column has entry ``scale`` (the
rational 1) in its row.  :func:`constraint` builds such a row from rational
coefficients.  Points and values come out as :class:`fractions.Fraction`.

The tableau is condensed: a row keeps its entries in the nonbasic columns
(``labels``) and the right-hand side, plus its ``head``, its entry in its
own basic column, which is the only nonzero entry of a basic column.  Every
row is a positive integer multiple of its rational row, divided by the gcd
of its entries and head.  A pivot on row ``r`` at position ``k`` with entry
``a`` (negated with the row when negative, met only when phase 1 drives a
zero-level artificial out) swaps ``a`` and the head, and the leaving column
takes position ``k``.  Every other row with ``f = T[i][k] != 0`` becomes
``T[i] * a - f * T[r]`` with ``-f * head[r]`` at ``k``, its head is
multiplied by ``a``, and row and head are divided by their gcd.  These are
the integers, Bland choices, statuses and points of the same simplex on the
full tableau, without the basic columns' zeros.
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
    """``coeffs . x  rel  rhs``, all divided by ``scale``: integer
    ``coeffs`` and ``rhs`` and a positive integer ``scale``."""

    coeffs: Tuple[int, ...]
    rel: str
    rhs: int
    scale: int = 1


@dataclass(frozen=True)
class LinearProgram:
    """``max/min c.x`` subject to linear constraints and ``x >= 0``.

    ``objective`` holds rationals (ints or Fractions)."""

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
            if con.scale <= 0:
                raise Malformed("constraint scale must be positive")


@dataclass(frozen=True)
class LPResult:
    status: str
    point: Optional[Tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None


def constraint(coeffs, rel, rhs) -> Constraint:
    """The constraint ``coeffs . x  rel  rhs`` over rationals."""
    line, scale = _integer_row([Fraction(c) for c in coeffs] + [Fraction(rhs)])
    return Constraint(tuple(line[:-1]), rel, line[-1], scale)


def _integer_row(values):
    """``values`` times the lcm of their denominators, and that lcm; a
    ``None`` entry stays ``None``."""
    scale = lcm(*(v.denominator for v in values if v is not None))
    ints = [None if v is None else v.numerator * (scale // v.denominator) for v in values]
    return ints, scale


class _Tableau:
    """Rows over the nonbasic columns ``labels`` plus a right-hand side;
    ``heads[r]`` is row ``r``'s entry in its basic column ``basis[r]``.
    ``cost`` is a positive multiple of the reduced-cost row in the same
    layout (last entry: minus the objective value), or ``None``."""

    __slots__ = ("rows", "heads", "basis", "labels", "cost")

    def __init__(self, rows, heads, basis, labels):
        self.rows = rows
        self.heads = heads
        self.basis = basis
        self.labels = labels
        self.cost = None


def _pivot(tab, row, pos):
    """Make the column at position ``pos`` basic in ``row``; the leaving
    column takes ``pos``.  Updates every other row and the cost row."""
    prow = tab.rows[row]
    a = prow[pos]
    head = tab.heads[row]
    if a < 0:
        prow = [-x for x in prow]
        a, head = -a, -head
        tab.rows[row] = prow
    prow[pos] = head
    tab.heads[row] = a
    tab.basis[row], tab.labels[pos] = tab.labels[pos], tab.basis[row]
    rows, heads = tab.rows, tab.heads
    for i, line in enumerate(rows):
        f = line[pos]
        if f and i != row:
            out = [x * a - f * y for x, y in zip(line, prow)]
            out[pos] = -f * head
            h = heads[i] * a
            g = gcd(h, *out)
            if g > 1:
                out = [x // g for x in out]
                h //= g
            rows[i] = out
            heads[i] = h
    cost = tab.cost
    if cost is not None and cost[pos]:
        f = cost[pos]
        out = [x * a - f * y for x, y in zip(cost, prow)]
        out[pos] = -f * head
        g = gcd(*out)
        tab.cost = [x // g for x in out] if g > 1 else out


def _run_simplex(tab):
    """Maximize, in place; returns "optimal" or "unbounded"."""
    rows, basis, labels = tab.rows, tab.basis, tab.labels
    while True:
        # Bland: the lowest column index with a positive reduced cost.
        entering = [lab for lab, c in zip(labels, tab.cost) if c > 0]
        if not entering:
            return OPTIMAL
        pos = labels.index(min(entering))
        # Ratio test on rhs/a by cross-multiplying (a > 0); ties go to the
        # lowest basic index.
        leave = -1
        for r, line in enumerate(rows):
            a = line[pos]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                lhs = line[-1] * rows[leave][pos]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, leave, pos)


def _price_out(tab, costs):
    """The reduced-cost row of the column costs ``costs``, gcd-reduced:
    ``costs`` minus every basic row divided by its head, times its cost."""
    priced = [(costs[b], r) for r, b in enumerate(tab.basis) if costs[b]]
    scale = lcm(*(tab.heads[r] for _, r in priced))
    out = [costs[lab] * scale for lab in tab.labels]
    out.append(0)
    for c, r in priced:
        f = c * (scale // tab.heads[r])
        out = [x - f * y for x, y in zip(out, tab.rows[r])]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve the program exactly; returns status plus an optimal point."""
    num_vars = lp.num_vars
    obj, _ = _integer_row(lp.objective)
    if not lp.maximize:
        obj = [-c for c in obj]

    # Standard form: equalities with slack columns, rhs >= 0.  A row whose
    # slack entry is positive starts with the slack basic (head ``scale``);
    # any other row gets an artificial column with head ``scale``, and its
    # negative slack, if any, is nonbasic.
    num_slack = sum(1 for con in lp.constraints if con.rel != EQ)
    total = num_vars + num_slack
    basis = []
    labels = list(range(num_vars))
    layout = []  # per row: its sign, and the position of a nonbasic slack
    slack_col = num_vars
    num_art = 0
    for con in lp.constraints:
        sign = -1 if con.rhs < 0 else 1
        slack_pos = None
        if con.rel != EQ and (sign > 0) == (con.rel == LE):
            basis.append(slack_col)
        else:
            if con.rel != EQ:
                slack_pos = len(labels)
                labels.append(slack_col)
            basis.append(total + num_art)
            num_art += 1
        slack_col += con.rel != EQ
        layout.append((sign, slack_pos))
    rows = []
    heads = []
    for con, (sign, slack_pos) in zip(lp.constraints, layout):
        line = [sign * c for c in con.coeffs]
        line += [0] * (len(labels) - num_vars)
        line.append(sign * con.rhs)
        if slack_pos is not None:
            line[slack_pos] = -con.scale
        head = con.scale
        g = gcd(head, *line)
        if g > 1:
            line = [x // g for x in line]
            head //= g
        rows.append(line)
        heads.append(head)
    tab = _Tableau(rows, heads, basis, labels)

    if num_art:
        # Phase 1: maximize -(sum of artificials).
        tab.cost = _price_out(tab, [0] * total + [-1] * num_art)
        _run_simplex(tab)
        if tab.cost[-1] != 0:
            return LPResult(INFEASIBLE)
        # Drive remaining zero-level artificials out of the basis.
        tab.cost = None
        drop_rows = []
        for r in range(len(tab.rows)):
            if tab.basis[r] >= total:
                line = tab.rows[r]
                pos = min(
                    ((lab, k) for k, lab in enumerate(tab.labels) if lab < total and line[k]),
                    default=None,
                )
                if pos is None:
                    drop_rows.append(r)
                else:
                    _pivot(tab, r, pos[1])
        for r in reversed(drop_rows):
            del tab.rows[r]
            del tab.heads[r]
            del tab.basis[r]
        keep = [k for k, lab in enumerate(tab.labels) if lab < total]
        keep.append(len(tab.labels))
        tab.rows = [[line[k] for k in keep] for line in tab.rows]
        tab.labels = [tab.labels[k] for k in keep[:-1]]

    # Phase 2.
    tab.cost = _price_out(tab, obj + [0] * num_slack)
    if _run_simplex(tab) == UNBOUNDED:
        return LPResult(UNBOUNDED)

    point = [_ZERO] * num_vars
    for line, head, col in zip(tab.rows, tab.heads, tab.basis):
        if col < num_vars:
            point[col] = Fraction(line[-1], head)
    value = sum(c * x for c, x in zip(lp.objective, point))
    return LPResult(OPTIMAL, tuple(point), value)
