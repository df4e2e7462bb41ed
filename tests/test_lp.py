"""Exact simplex: hand cases, an enumeration oracle and a reference simplex."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from choremarket import enumeration, lp
from choremarket.enumeration import (
    PATTERN_CAP,
    _pattern_lp,
    _patterns,
    enumerate_equilibria,
)
from choremarket.errors import Malformed

from conftest import (
    PATTERN_MARKETS,
    pattern_market,
    random_conditioned_instance,
)

F = Fraction


def solve(num, cons, obj, maximize=True):
    return lp.lp_solve(
        lp.LinearProgram(
            num,
            tuple(lp.constraint(c, r, b) for c, r, b in cons),
            tuple(F(x) for x in obj),
            maximize=maximize,
        )
    )


class TestHandCases:
    def test_simple_max(self):
        res = solve(2, [((1, 1), lp.LE, 4), ((1, 0), lp.LE, 3)], (2, 1))
        assert res.status == lp.OPTIMAL
        assert res.value == 7  # x = (3, 1)

    def test_equality(self):
        res = solve(2, [((1, 1), lp.EQ, 5), ((1, -1), lp.EQ, 1)], (1, 0))
        assert res.status == lp.OPTIMAL
        assert res.point == (F(3), F(2))

    def test_infeasible(self):
        res = solve(1, [((1,), lp.GE, 2), ((1,), lp.LE, 1)], (1,))
        assert res.status == lp.INFEASIBLE

    def test_unbounded(self):
        res = solve(1, [((1,), lp.GE, 0)], (1,))
        assert res.status == lp.UNBOUNDED

    def test_minimize(self):
        res = solve(1, [((1,), lp.GE, 3)], (1,), maximize=False)
        assert res.status == lp.OPTIMAL and res.value == 3

    def test_exact_rationals(self):
        res = solve(
            2,
            [((3, 1), lp.EQ, 1), ((1, 3), lp.EQ, 1)],
            (1, 1),
        )
        assert res.status == lp.OPTIMAL
        assert res.point == (F(1, 4), F(1, 4))

    def test_degenerate_no_cycling(self):
        res = solve(
            3,
            [
                ((1, 1, 1), lp.LE, 0),
                ((1, -1, 0), lp.LE, 0),
                ((0, 1, -1), lp.LE, 0),
            ],
            (1, 1, 1),
        )
        assert res.status == lp.OPTIMAL and res.value == 0

    def test_malformed(self):
        with pytest.raises(Malformed):
            lp.LinearProgram(2, (), (F(1),))
        with pytest.raises(Malformed, match="scale"):
            lp.LinearProgram(1, (lp.Constraint((1,), lp.LE, 1, 0),), (F(1),))

    def test_constraint_scales_by_the_lcm_of_denominators(self):
        con = lp.constraint((F(1, 2), 1), lp.LE, F(3, 4))
        assert con == lp.Constraint((2, 4), lp.LE, 3, 4)


# ---------------------------------------------------------------------------
# Vertex-enumeration oracle


def _solve_square(rows, rhs):
    n = len(rhs)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _oracle_box(num, cons, obj, box):
    planes = [(c, b) for c, _, b in cons]
    for i in range(num):
        unit = [F(0)] * num
        unit[i] = F(1)
        planes.append((tuple(unit), F(0)))
        planes.append((tuple(unit), box))

    def feasible(x):
        for c, rel, b in cons:
            val = sum(ci * xi for ci, xi in zip(c, x))
            if rel == lp.LE and val > b:
                return False
            if rel == lp.GE and val < b:
                return False
            if rel == lp.EQ and val != b:
                return False
        return all(0 <= xi <= box for xi in x)

    best = None
    for subset in combinations(range(len(planes)), num):
        rows = [planes[k][0] for k in subset]
        rhs = [planes[k][1] for k in subset]
        x = _solve_square(rows, rhs)
        if x is None or not feasible(x):
            continue
        val = sum(c * xi for c, xi in zip(obj, x))
        if best is None or val > best:
            best = val
    return best


def _oracle(num, cons, obj):
    b1 = _oracle_box(num, cons, obj, F(10**8))
    if b1 is None:
        return lp.INFEASIBLE, None
    b2 = _oracle_box(num, cons, obj, F(2 * 10**8))
    if b2 > b1:
        return lp.UNBOUNDED, None
    return lp.OPTIMAL, b1


def _random_program(rng, num, rows):
    cons = []
    for _ in range(rows):
        coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(num))
        rel = rng.choice([lp.LE, lp.GE, lp.EQ])
        cons.append((coeffs, rel, F(rng.randint(-6, 10))))
    obj = tuple(F(rng.randint(-5, 5)) for _ in range(num))
    return cons, obj


@pytest.mark.parametrize("seed", range(6))
def test_oracle_equivalence_sample(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        num = rng.randint(1, 3)
        cons, obj = _random_program(rng, num, rng.randint(1, 5))
        res = solve(num, cons, obj)
        status, value = _oracle(num, cons, obj)
        assert res.status == status
        if status == lp.OPTIMAL:
            assert res.value == value


# ---------------------------------------------------------------------------
# Reference simplex: the same two-phase Bland simplex on a full Fraction
# tableau, each row divided through by its pivot, recording every pivot as
# ``(row, entering column)``.  ``lp_solve`` keeps every row as an integer
# multiple of these rows, without the basic columns, so it must make the same
# pivots and return the same point.


def _ref_pivot(tableau, basis, row, col, pivots):
    pivots.append((row, col))
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [x - factor * y for x, y in zip(line, tableau[row])]
    basis[row] = col


def _ref_run_simplex(tableau, basis, cost, pivots):
    num_cols = len(cost) - 1
    while True:
        enter = next((j for j in range(num_cols) if cost[j] > 0), -1)
        if enter < 0:
            return lp.OPTIMAL
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
            return lp.UNBOUNDED
        _ref_pivot(tableau, basis, leave, enter, pivots)
        factor = cost[enter]
        cost[:] = [x - factor * y for x, y in zip(cost, tableau[leave])]


def _reference_solve(program):
    """``(status, point, value)`` of ``program`` by the Fraction simplex,
    and its pivots."""
    pivots = []
    num_vars = program.num_vars
    sign = 1 if program.maximize else -1
    num_slack = sum(1 for con in program.constraints if con.rel != lp.EQ)
    total = num_vars + num_slack
    tableau = []
    slack_col = num_vars
    for con in program.constraints:
        line = [F(c, con.scale) for c in con.coeffs]
        line += [F(0)] * num_slack + [F(con.rhs, con.scale)]
        if con.rel != lp.EQ:
            line[slack_col] = F(1) if con.rel == lp.LE else F(-1)
            slack_col += 1
        if line[-1] < 0:
            line = [-x for x in line]
        tableau.append(line)
    basis = [-1] * len(tableau)
    art_cols = []
    for r, line in enumerate(tableau):
        found = next(
            (
                j
                for j in range(num_vars, total)
                if line[j] == 1
                and all(o[j] == 0 for rr, o in enumerate(tableau) if rr != r)
            ),
            -1,
        )
        if found < 0:
            found = total + len(art_cols)
            art_cols.append(found)
        basis[r] = found
    if art_cols:
        for r, line in enumerate(tableau):
            line[-1:-1] = [F(0)] * len(art_cols)
            if basis[r] >= total:
                line[basis[r]] = F(1)
        cost = [F(0)] * (total + len(art_cols) + 1)
        for col in art_cols:
            cost[col] = F(-1)
        for r, line in enumerate(tableau):
            if basis[r] >= total:
                cost = [x + y for x, y in zip(cost, line)]
        _ref_run_simplex(tableau, basis, cost, pivots)
        if cost[-1] != 0:
            return (lp.INFEASIBLE, None, None), pivots
        drop_rows = []
        for r in range(len(tableau)):
            if basis[r] >= total:
                col = next((j for j in range(total) if tableau[r][j] != 0), None)
                if col is None:
                    drop_rows.append(r)
                else:
                    _ref_pivot(tableau, basis, r, col, pivots)
        for r in reversed(drop_rows):
            del tableau[r]
            del basis[r]
        tableau = [line[:total] + [line[-1]] for line in tableau]
    cost = [sign * c for c in program.objective] + [F(0)] * (num_slack + 1)
    for r, line in enumerate(tableau):
        factor = cost[basis[r]]
        if factor != 0:
            cost = [x - factor * y for x, y in zip(cost, line)]
    if _ref_run_simplex(tableau, basis, cost, pivots) == lp.UNBOUNDED:
        return (lp.UNBOUNDED, None, None), pivots
    point = [F(0)] * num_vars
    for r, col in enumerate(basis):
        if col < num_vars:
            point[col] = tableau[r][-1]
    value = sum(c * x for c, x in zip(program.objective, point))
    return (lp.OPTIMAL, tuple(point), value), pivots


def _program(num, cons, obj, maximize=True):
    return lp.LinearProgram(
        num,
        tuple(lp.constraint(c, r, b) for c, r, b in cons),
        tuple(F(x) for x in obj),
        maximize=maximize,
    )


def _solve_recording(program):
    """``lp_solve(program)`` and its pivots as ``(row, entering column)``."""
    pivots = []
    pivot = lp._pivot

    def recorded(tab, row, pos):
        pivots.append((row, tab.labels[pos]))
        return pivot(tab, row, pos)

    lp._pivot = recorded
    try:
        res = lp.lp_solve(program)
    finally:
        lp._pivot = pivot
    return (res.status, res.point, res.value), pivots


def _assert_matches_reference(program):
    assert _solve_recording(program) == _reference_solve(program)


def _redundant_program(rng, num):
    """Equality rows plus negated, scaled and summed copies of them, so
    phase 1 ends with artificials at zero level: in rows that reduce to
    zero, and in rows where a drive-out pivot is needed."""
    base = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(num)]
        base.append((coeffs, F(rng.randint(-6, 6), rng.randint(1, 2))))
    cons = [(c, lp.EQ, b) for c, b in base]
    for _ in range(rng.randint(1, 3)):
        k = F(rng.choice([-3, -2, -1, 1, 2]), rng.randint(1, 3))
        (c1, b1), (c2, b2) = rng.choice(base), rng.choice(base)
        cons.append(([k * x + y for x, y in zip(c1, c2)], lp.EQ, k * b1 + b2))
    for _ in range(rng.randint(0, 2)):
        coeffs = [F(rng.randint(-4, 4)) for _ in range(num)]
        cons.append((coeffs, rng.choice([lp.LE, lp.GE]), F(rng.randint(-6, 10))))
    rng.shuffle(cons)
    obj = [F(rng.randint(-5, 5)) for _ in range(num)]
    return cons, obj


class TestReferenceSimplex:
    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_programs(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(10):
            num = rng.randint(1, 3)
            cons, obj = _random_program(rng, num, rng.randint(1, 5))
            for maximize in (True, False):
                _assert_matches_reference(_program(num, cons, obj, maximize))

    def test_redundant_and_negated_equalities(self, monkeypatch):
        negative_pivots = 0
        pivot = lp._pivot

        def watched(tab, row, pos):
            nonlocal negative_pivots
            negative_pivots += tab.rows[row][pos] < 0
            return pivot(tab, row, pos)

        monkeypatch.setattr(lp, "_pivot", watched)
        rng = random.Random(7)
        statuses = set()
        for _ in range(300):
            num = rng.randint(2, 5)
            cons, obj = _redundant_program(rng, num)
            program = _program(num, cons, obj, rng.random() < 0.5)
            _assert_matches_reference(program)
            statuses.add(lp.lp_solve(program).status)
        assert negative_pivots > 0  # a drive-out pivot on a negative entry
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    @pytest.mark.parametrize("name", PATTERN_MARKETS)
    def test_pattern_programs(self, name, request):
        inst = pattern_market(name, request)
        for epsilon in (F(0), F(1, 10)):
            for pattern, closure in _patterns(inst, PATTERN_CAP):
                program, _ = _pattern_lp(inst, epsilon, pattern, closure)
                _assert_matches_reference(program)


def test_pivot_counts_on_conditioned_seeds(monkeypatch):
    """Pins the pattern search's cuts and the Bland pivot sequence of exact
    search on the 50 conftest seeds, and ``_pivot`` as the one function
    called once per pivot.  Of the 314 covering patterns, the 114 that are
    price-consistent reach an LP; with the forced flows substituted out,
    their programs take 482 pivots (989 with every flow a variable)."""
    counts = {"lp_solve": 0, "_pivot": 0}

    def counting(name):
        original = getattr(lp, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(lp, name, counting(name))
    for k in range(50):
        enumerate_equilibria(random_conditioned_instance(random.Random(k)))
    assert counts == {"lp_solve": 114, "_pivot": 482}


def test_solve_lp_counts_on_conditioned_seeds():
    """Pins where ``solve`` stops in the same pattern search, largest sets
    first, on the 50 conftest seeds: 59 LPs in all, at most 4 (seed 17),
    more than one on 7 seeds."""
    config = enumeration.SolverConfig(max_iters=300)
    iterations = tuple(
        enumeration.solve(random_conditioned_instance(random.Random(k)), config).iterations
        for k in range(50)
    )
    assert iterations == (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 4, 1, 1, 1, 2, 1, 2, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1,
    )


#: One call per input check of :class:`lp.LinearProgram`, its exception type
#: and a fragment of its message.
REJECTED = {
    "no-variables": (
        lambda: lp.LinearProgram(0, (), ()), Malformed, "needs at least one variable"),
    "constraint-width": (
        lambda: lp.LinearProgram(2, (lp.constraint([1], lp.LE, 1),), (1, 1)),
        Malformed, "constraint width must equal num_vars"),
    "unknown-relation": (
        lambda: lp.LinearProgram(1, (lp.constraint([1], "<", 1),), (1,)),
        Malformed, "unknown relation '<'"),
}


@pytest.mark.parametrize("call, error, fragment", REJECTED.values(), ids=list(REJECTED))
def test_rejected_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
