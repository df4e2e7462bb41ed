"""Encoding 3-CNF satisfiability as fixed-earnings chore markets.

Each variable becomes a two-agent, two-chore gadget whose equilibrium prices
take one of two shapes -- read as true/false.  Each clause adds three light
agents, one balancing agent, and three clause chores wired to the literal
gadgets so that the clause money can only clear when at least one literal is
satisfied.  A satisfying assignment maps to an explicit exact equilibrium, and
an equilibrium maps back to a satisfying assignment by inspecting the money
flow inside the variable gadgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import (
    BadParams,
    Malformed,
    NonIntegralEarnings,
    NotGadget,
    NotSatisfying,
)
from .model import (
    _ZERO,
    EXACT,
    FIXED_EARNINGS,
    EquilibriumCandidate,
    Instance,
    _gadget_from_json,
    _gadget_to_json,
    _json_array,
    _plain,
    to_fraction,
    to_int,
)


@dataclass(frozen=True)
class CNFFormula:
    """A 3-CNF formula.

    ``clauses`` holds triples of nonzero signed variable indices (1-based);
    a negative literal means the negated variable.  No clause may mention a
    variable twice.
    """

    num_vars: int
    clauses: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if to_int(self.num_vars) <= 0:
            raise Malformed("formula needs at least one variable")
        clauses = tuple(tuple(c) for c in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        if not clauses:
            raise Malformed("formula needs at least one clause")
        for clause in clauses:
            if len(clause) != 3:
                raise Malformed("every clause must have exactly three literals")
            seen = set()
            for lit in clause:
                if to_int(lit) == 0:
                    raise Malformed("literals are nonzero signed integers")
                var = abs(lit)
                if var > self.num_vars:
                    raise Malformed(f"literal {lit} exceeds variable count")
                if var in seen:
                    raise Malformed("a clause may not repeat a variable")
                seen.add(var)

    def satisfies(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise Malformed("assignment length must match variable count")
        return all(
            any(
                assignment[abs(lit) - 1] == (lit > 0)
                for lit in clause
            )
            for clause in self.clauses
        )


def _dimacs_int(token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise Malformed(f"bad DIMACS integer: {token!r}") from exc


def parse_dimacs(text: str) -> CNFFormula:
    """Parse DIMACS CNF; clauses must have exactly three literals, and as
    many as the problem line declares."""
    num_vars = num_clauses = None
    clauses = []
    pending = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):  # SATLIB's files end the clause list with "%"
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise Malformed(f"bad DIMACS header: {line!r}")
            num_vars = _dimacs_int(parts[2])
            num_clauses = _dimacs_int(parts[3])
            continue
        for token in line.split():
            lit = _dimacs_int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise Malformed("missing DIMACS problem line")
    if len(clauses) != num_clauses:
        raise Malformed(
            f"DIMACS problem line declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CNFFormula(num_vars, tuple(clauses))


@dataclass(frozen=True)
class SATGadgetParams:
    """Numeric knobs of the reduction.

    ``eps`` sizes the clause economy, ``eps_prime`` the deficit of the
    balancing agent, and ``tau`` the dislike threshold.  The constraints
    ``0 < eps_prime < eps / 2`` and ``eps_prime / (6 eps) > 1/12 - gap``
    keep the clause chores priceable exactly when the clause is satisfied.
    Each field is read as :func:`~choremarket.model.to_fraction` reads it,
    so a float, a bool or an unreadable string is :class:`Malformed`.
    """

    eps: Fraction = Fraction(1, 10)
    eps_prime: Fraction = Fraction(1, 30)
    tau: Fraction = Fraction(100)
    gap: Fraction = Fraction(1, 30)

    def __post_init__(self):
        for name in ("eps", "eps_prime", "tau", "gap"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))
        if not 0 < self.eps_prime < self.eps / 2:
            raise BadParams("need 0 < eps_prime < eps / 2")
        if not self.eps_prime / (6 * self.eps) > Fraction(1, 12) - self.gap:
            raise BadParams("eps_prime too small for the requested gap")
        if self.tau <= 3:
            raise BadParams("tau must exceed every finite disutility (> 3)")
        if self.eps >= 1:
            raise BadParams("eps must be below one")


@dataclass(frozen=True)
class SATGadget:
    """A built instance together with the index maps of its parts."""

    formula: CNFFormula
    params: SATGadgetParams
    instance: Instance
    agent_labels: Tuple[str, ...]
    chore_labels: Tuple[str, ...]

    # Index helpers (all 0-based; ``var`` and ``clause`` are 0-based too).
    def a(self, var: int, half: int) -> int:
        return _variable_index(var, half)

    def b(self, var: int, half: int) -> int:
        return _variable_index(var, half)

    def clause_agent(self, clause: int, slot: int) -> int:
        return _clause_agent(self.formula.num_vars, clause, slot)

    def balancer(self, clause: int) -> int:
        return _clause_agent(self.formula.num_vars, clause, 3)

    def clause_chore(self, clause: int, slot: int) -> int:
        return _clause_chore(self.formula.num_vars, clause, slot)


def _variable_index(var: int, half: int) -> int:
    """Index of agent ``a_half`` and of chore ``b_half`` of variable ``var``
    (``half`` is 1 or 2): variable gadgets come first, two of each."""
    return 2 * var + (half - 1)


def _clause_agent(num_vars: int, clause: int, slot: int) -> int:
    """Agent ``slot`` of ``clause``: slots 0-2 are its literals' light
    agents, slot 3 its balancer."""
    return 2 * num_vars + 4 * clause + slot


def _clause_chore(num_vars: int, clause: int, slot: int) -> int:
    """Chore of literal ``slot`` (0-2) of ``clause``."""
    return 2 * num_vars + 3 * clause + slot


def balancer_earning(clause: Tuple[int, int, int], params: SATGadgetParams) -> Fraction:
    """Earning of the clause's balancing agent.

    With its three literal agents, who earn ``eps`` each, a clause's four
    agents earn ``pos * 3 eps / 2 + neg * 2 eps - eps_prime``, where
    ``pos``/``neg`` count its positive/negated literals.
    """
    pos = sum(1 for lit in clause if lit > 0)
    neg = 3 - pos
    return pos * params.eps / 2 + neg * params.eps - params.eps_prime


def build_sat_gadget(
    formula: CNFFormula, params: SATGadgetParams = SATGadgetParams()
) -> SATGadget:
    """Build the market whose equilibria encode satisfying assignments."""
    n, mm = formula.num_vars, len(formula.clauses)
    # The first index past the last clause is the count.
    num_agents = _clause_agent(n, mm, 0)
    num_chores = _clause_chore(n, mm, 0)
    d = [[None] * num_chores for _ in range(num_agents)]
    earning = [_ZERO] * num_agents
    agent_labels = []
    chore_labels = []
    # The reduction's constants, each computed once and shared by every entry.
    one, three, two_thirds = Fraction(1), Fraction(3), Fraction(2, 3)
    eps = params.eps
    negated = 4 * eps / 3  # a clause chore's disutility for a negated literal

    for v in range(n):
        agent_labels += [f"a1[{v + 1}]", f"a2[{v + 1}]"]
        chore_labels += [f"b1[{v + 1}]", f"b2[{v + 1}]"]
        a1, a2 = _variable_index(v, 1), _variable_index(v, 2)
        b1, b2 = a1, a2
        earning[a1] = one
        earning[a2] = one
        d[a1][b1] = one
        d[a1][b2] = three
        d[a2][b2] = one

    for r, clause in enumerate(formula.clauses):
        heavy = _clause_agent(n, r, 3)
        for slot, lit in enumerate(clause):
            agent_labels.append(f"n[{r + 1},{abs(lit)}]")
            chore_labels.append(f"m[{r + 1},{abs(lit)}]")
            earning[_clause_agent(n, r, slot)] = eps
        agent_labels.append(f"nn[{r + 1}]")
        earning[heavy] = balancer_earning(clause, params)
        for slot, lit in enumerate(clause):
            v = abs(lit) - 1
            chore = _clause_chore(n, r, slot)
            for agent in (_clause_agent(n, r, slot), heavy):
                if lit > 0:
                    d[agent][_variable_index(v, 2)] = one
                    d[agent][chore] = eps
                else:
                    d[agent][_variable_index(v, 1)] = two_thirds
                    d[agent][chore] = negated

    # Every entry is already a Fraction or None; Instance validates them all.
    inst = Instance(FIXED_EARNINGS, params.tau, d, earning=earning)
    return SATGadget(formula, params, inst, tuple(agent_labels), tuple(chore_labels))


def assignment_to_equilibrium(
    gadget: SATGadget, assignment: Sequence[bool]
) -> EquilibriumCandidate:
    """Exact equilibrium realizing the given satisfying assignment.

    Raises :class:`NotSatisfying` when the assignment does not satisfy the
    formula.
    """
    formula, params = gadget.formula, gadget.params
    assignment = [bool(x) for x in assignment]
    if not formula.satisfies(assignment):
        raise NotSatisfying("assignment does not satisfy the formula")
    eps = params.eps
    inst = gadget.instance
    prices = [_ZERO] * inst.m
    allocation = [[_ZERO] * inst.m for _ in range(inst.n)]

    for v in range(formula.num_vars):
        a1, a2 = gadget.a(v, 1), gadget.a(v, 2)
        b1, b2 = gadget.b(v, 1), gadget.b(v, 2)
        allocation[a1][b1] = Fraction(1)
        if assignment[v]:
            prices[b1], prices[b2] = Fraction(1), Fraction(1)
            allocation[a2][b2] = Fraction(1)
        else:
            # a1 earns 1/2 on each chore, a2 earns 1 on b2.
            prices[b1], prices[b2] = Fraction(1, 2), Fraction(3, 2)
            allocation[a1][b2] = Fraction(1, 3)
            allocation[a2][b2] = Fraction(2, 3)

    for r, clause in enumerate(formula.clauses):
        heavy = gadget.balancer(r)
        extra = balancer_earning(clause, params)
        chores = [gadget.clause_chore(r, slot) for slot in range(3)]
        sat = [
            slot for slot, lit in enumerate(clause)
            if assignment[abs(lit) - 1] == (lit > 0)
        ]
        unsat = [slot for slot in range(3) if slot not in sat]
        if unsat:
            demand = sum(
                Fraction(3, 2) * eps if clause[slot] > 0 else 2 * eps
                for slot in unsat
            )
            alpha = (len(unsat) * eps + extra) / demand
            for slot in range(3):
                unit = Fraction(3, 2) if clause[slot] > 0 else Fraction(2)
                prices[chores[slot]] = alpha * unit * eps if slot in unsat else eps
        else:
            positive = [slot for slot in range(3) if clause[slot] > 0]
            # All literals satisfied: the balancing money rides on the chores
            # whose satisfied shape leaves price headroom (positive literals,
            # or all three when the clause has none).
            carriers = positive if positive else list(range(3))
            for slot in range(3):
                share = extra / len(carriers) if slot in carriers else 0
                prices[chores[slot]] = eps + share
        # Each clause agent earns eps on its chore, the balancer the rest.
        for slot, chore in enumerate(chores):
            part = eps / prices[chore]
            allocation[gadget.clause_agent(r, slot)][chore] = part
            if part != 1:
                allocation[heavy][chore] = 1 - part

    return EquilibriumCandidate(prices, allocation)


def equilibrium_to_assignment(
    gadget: SATGadget, cand: EquilibriumCandidate
) -> Tuple[bool, ...]:
    """Read the truth assignment off an equilibrium of the gadget.

    Variable ``v`` is false exactly when its first agent earns money,
    ``allocation * price``, on the variable's second chore.
    """
    if not isinstance(gadget, SATGadget):
        raise NotGadget("gadget metadata required to read an assignment")
    inst = gadget.instance
    if cand.n != inst.n or cand.m != inst.m:
        raise NotGadget("candidate shape does not match the gadget")
    threshold = 0 if cand.mode == EXACT else 1e-9
    out = []
    for v in range(gadget.formula.num_vars):
        b2 = gadget.b(v, 2)
        out.append(not cand.allocation[gadget.a(v, 1)][b2] * cand.prices[b2] > threshold)
    return tuple(out)


def expand_to_equal_earnings(
    inst: Instance, unit: Fraction = Fraction(1)
) -> Tuple[Instance, Tuple[Tuple[int, ...], ...]]:
    """Split each agent into ``earning / unit`` unit-earning copies.

    Earnings must be nonnegative integer multiples of ``unit``, a rational
    read as :func:`~choremarket.model.to_fraction` reads it; agents with
    zero earning are dropped.  Returns the expanded instance and, per
    original agent, the tuple of its copy indices.
    """
    if inst.variant != FIXED_EARNINGS:
        raise Malformed("equal-earnings expansion applies to fixed earnings")
    unit = to_fraction(unit)
    if unit <= 0:
        raise BadParams("unit must be positive")
    counts = []
    for e in inst.earning:
        ratio = e / unit
        if ratio.denominator != 1:
            raise NonIntegralEarnings(
                f"earning {e} is not an integer multiple of {unit}"
            )
        counts.append(int(ratio))
    rows = []
    groups = []
    for i, count in enumerate(counts):
        start = len(rows)
        for _ in range(count):
            rows.append(inst.disutility[i])
        groups.append(tuple(range(start, start + count)))
    if not rows:
        raise NonIntegralEarnings("all agents have zero earning")
    expanded = Instance(
        FIXED_EARNINGS,
        inst.tau,
        tuple(rows),
        earning=tuple([unit] * len(rows)),
        supply=inst.supply,
    )
    return expanded, tuple(groups)


# ---------------------------------------------------------------------------
# JSON round-tripping of gadgets


def gadget_to_json(gadget: SATGadget) -> dict:
    fields = {"formula": _plain(gadget.formula), "params": _plain(gadget.params)}
    return _gadget_to_json(gadget, "sat-gadget", fields)


def _read_metadata(meta: dict) -> tuple:
    formula = CNFFormula(
        meta["formula"]["num_vars"],
        _json_array(meta["formula"]["clauses"], "clauses", nested=True),
    )
    names = ("eps", "eps_prime", "tau", "gap")
    return formula, SATGadgetParams(**{name: meta["params"][name] for name in names})


def gadget_from_json(doc: dict) -> SATGadget:
    """The gadget of a file :func:`gadget_to_json` wrote, checked against it."""
    return _gadget_from_json(doc, "sat-gadget", _read_metadata, build_sat_gadget)
