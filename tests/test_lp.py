"""Exact simplex: hand cases and an enumeration oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from choremarket import lp
from choremarket.errors import Malformed

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
