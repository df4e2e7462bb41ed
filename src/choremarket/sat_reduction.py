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
    FIXED_EARNINGS,
    EquilibriumCandidate,
    Instance,
    fixed_earnings_instance,
    format_rational,
    instance_to_json,
    to_fraction,
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
        if self.num_vars <= 0:
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
                if not isinstance(lit, int) or lit == 0:
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
    """Parse DIMACS CNF; clauses must have exactly three literals."""
    num_vars = None
    clauses = []
    pending = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise Malformed(f"bad DIMACS header: {line!r}")
            num_vars = _dimacs_int(parts[2])
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
    return CNFFormula(num_vars, tuple(clauses))


@dataclass(frozen=True)
class SATGadgetParams:
    """Numeric knobs of the reduction.

    ``eps`` sizes the clause economy, ``eps_prime`` the deficit of the
    balancing agent, and ``tau`` the dislike threshold.  The constraints
    ``0 < eps_prime < eps / 2`` and ``eps_prime / (6 eps) > 1/12 - gap``
    keep the clause chores priceable exactly when the clause is satisfied.
    """

    eps: Fraction = Fraction(1, 10)
    eps_prime: Fraction = Fraction(1, 30)
    tau: Fraction = Fraction(100)
    gap: Fraction = Fraction(1, 30)

    def __post_init__(self):
        for name in ("eps", "eps_prime", "tau", "gap"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
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
        return 2 * var + (half - 1)

    def b(self, var: int, half: int) -> int:
        return 2 * var + (half - 1)

    def clause_agent(self, clause: int, slot: int) -> int:
        return 2 * self.formula.num_vars + 4 * clause + slot

    def balancer(self, clause: int) -> int:
        return self.clause_agent(clause, 3)

    def clause_chore(self, clause: int, slot: int) -> int:
        return 2 * self.formula.num_vars + 3 * clause + slot


def balancer_earning(clause: Tuple[int, int, int], params: SATGadgetParams) -> Fraction:
    """Earning of the clause's balancing agent."""
    pos = sum(1 for lit in clause if lit > 0)
    neg = 3 - pos
    return pos * params.eps / 2 + neg * params.eps - params.eps_prime


def clause_money(clause: Tuple[int, int, int], params: SATGadgetParams) -> Fraction:
    """Total earning of a clause's four agents.

    Equals ``pos * 3 eps / 2 + neg * 2 eps - eps_prime`` where ``pos``/``neg``
    count positive/negated literals.
    """
    return 3 * params.eps + balancer_earning(clause, params)


def build_sat_gadget(
    formula: CNFFormula, params: SATGadgetParams = SATGadgetParams()
) -> SATGadget:
    """Build the market whose equilibria encode satisfying assignments."""
    n, mm = formula.num_vars, len(formula.clauses)
    num_agents = 2 * n + 4 * mm
    num_chores = 2 * n + 3 * mm
    d = [[None] * num_chores for _ in range(num_agents)]
    earning = [Fraction(0)] * num_agents
    agent_labels = []
    chore_labels = []

    for v in range(n):
        agent_labels += [f"a1[{v + 1}]", f"a2[{v + 1}]"]
        chore_labels += [f"b1[{v + 1}]", f"b2[{v + 1}]"]
        a1, a2 = 2 * v, 2 * v + 1
        b1, b2 = 2 * v, 2 * v + 1
        earning[a1] = Fraction(1)
        earning[a2] = Fraction(1)
        d[a1][b1] = Fraction(1)
        d[a1][b2] = Fraction(3)
        d[a2][b2] = Fraction(1)

    for r, clause in enumerate(formula.clauses):
        base_a = 2 * n + 4 * r
        base_b = 2 * n + 3 * r
        for slot, lit in enumerate(clause):
            agent_labels.append(f"n[{r + 1},{abs(lit)}]")
            chore_labels.append(f"m[{r + 1},{abs(lit)}]")
            earning[base_a + slot] = params.eps
        agent_labels.append(f"nn[{r + 1}]")
        earning[base_a + 3] = balancer_earning(clause, params)
        for slot, lit in enumerate(clause):
            v = abs(lit) - 1
            light = base_a + slot
            heavy = base_a + 3
            chore = base_b + slot
            if lit > 0:
                for agent in (light, heavy):
                    d[agent][2 * v + 1] = Fraction(1)  # b2 of the variable
                    d[agent][chore] = params.eps
            else:
                for agent in (light, heavy):
                    d[agent][2 * v] = Fraction(2, 3)  # b1 of the variable
                    d[agent][chore] = 4 * params.eps / 3

    inst = fixed_earnings_instance(params.tau, d, earning)
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
    prices = [Fraction(0)] * inst.m
    flow = [[Fraction(0)] * inst.m for _ in range(inst.n)]

    for v in range(formula.num_vars):
        a1, a2 = gadget.a(v, 1), gadget.a(v, 2)
        b1, b2 = gadget.b(v, 1), gadget.b(v, 2)
        if assignment[v]:
            prices[b1], prices[b2] = Fraction(1), Fraction(1)
            flow[a1][b1] = Fraction(1)
            flow[a2][b2] = Fraction(1)
        else:
            prices[b1], prices[b2] = Fraction(1, 2), Fraction(3, 2)
            flow[a1][b1] = Fraction(1, 2)
            flow[a1][b2] = Fraction(1, 2)
            flow[a2][b2] = Fraction(1)

    for r, clause in enumerate(formula.clauses):
        heavy = gadget.balancer(r)
        extra = balancer_earning(clause, params)
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
                chore = gadget.clause_chore(r, slot)
                if slot in unsat:
                    unit = Fraction(3, 2) if clause[slot] > 0 else Fraction(2)
                    prices[chore] = alpha * unit * eps
                    flow[heavy][chore] = prices[chore] - eps
                else:
                    prices[chore] = eps
                flow[gadget.clause_agent(r, slot)][chore] = eps
        else:
            positive = [slot for slot in range(3) if clause[slot] > 0]
            # All literals satisfied: the balancing money rides on the chores
            # whose satisfied shape leaves price headroom (positive literals,
            # or all three when the clause has none).
            carriers = positive if positive else list(range(3))
            for slot in range(3):
                chore = gadget.clause_chore(r, slot)
                prices[chore] = eps
                flow[gadget.clause_agent(r, slot)][chore] = eps
            for slot in carriers:
                chore = gadget.clause_chore(r, slot)
                prices[chore] += extra / len(carriers)
                flow[heavy][chore] = extra / len(carriers)

    allocation = [
        [flow[i][j] / prices[j] for j in range(inst.m)] for i in range(inst.n)
    ]
    return EquilibriumCandidate(
        prices, allocation, flow=tuple(map(tuple, flow))
    )


def equilibrium_to_assignment(
    gadget: SATGadget, cand: EquilibriumCandidate
) -> Tuple[bool, ...]:
    """Read the truth assignment off an equilibrium of the gadget.

    Variable ``v`` is false exactly when its first agent sends money to the
    variable's second chore.
    """
    if not isinstance(gadget, SATGadget):
        raise NotGadget("gadget metadata required to read an assignment")
    inst = gadget.instance
    if cand.n != inst.n or cand.m != inst.m:
        raise NotGadget("candidate shape does not match the gadget")
    flow = cand.money_flow()
    threshold = 0 if cand.mode == "exact" else 1e-9
    out = []
    for v in range(gadget.formula.num_vars):
        f = flow[gadget.a(v, 1)][gadget.b(v, 2)]
        out.append(not f > threshold)
    return tuple(out)


def expand_to_equal_earnings(
    inst: Instance, unit: Fraction = Fraction(1)
) -> Tuple[Instance, Tuple[Tuple[int, ...], ...]]:
    """Split each agent into ``earning / unit`` unit-earning copies.

    Earnings must be nonnegative integer multiples of ``unit``; agents with
    zero earning are dropped.  Returns the expanded instance and, per
    original agent, the tuple of its copy indices.
    """
    if inst.variant != FIXED_EARNINGS:
        raise Malformed("equal-earnings expansion applies to fixed earnings")
    unit = Fraction(unit)
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
    return {
        "instance": instance_to_json(gadget.instance),
        "metadata": {
            "kind": "sat-gadget",
            "formula": {
                "num_vars": gadget.formula.num_vars,
                "clauses": [list(c) for c in gadget.formula.clauses],
            },
            "params": {
                "eps": format_rational(gadget.params.eps),
                "eps_prime": format_rational(gadget.params.eps_prime),
                "tau": format_rational(gadget.params.tau),
                "gap": format_rational(gadget.params.gap),
            },
            "agents": list(gadget.agent_labels),
            "chores": list(gadget.chore_labels),
        },
    }


def gadget_from_json(doc: dict) -> SATGadget:
    meta = doc.get("metadata") if isinstance(doc, dict) else None
    if not isinstance(meta, dict) or meta.get("kind") != "sat-gadget":
        raise NotGadget("document lacks sat-gadget metadata")
    try:
        formula = CNFFormula(
            meta["formula"]["num_vars"],
            tuple(tuple(c) for c in meta["formula"]["clauses"]),
        )
        params = SATGadgetParams(
            eps=to_fraction(meta["params"]["eps"]),
            eps_prime=to_fraction(meta["params"]["eps_prime"]),
            tau=to_fraction(meta["params"]["tau"]),
            gap=to_fraction(meta["params"]["gap"]),
        )
    except KeyError as exc:
        raise Malformed(f"sat-gadget metadata missing field {exc}") from exc
    except TypeError as exc:
        raise Malformed(f"sat-gadget metadata has a badly shaped field: {exc}") from exc
    return build_sat_gadget(formula, params)
