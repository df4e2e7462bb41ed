"""An exact equilibrium solver behind the paper's condition gate.

:func:`solve` checks both sufficiency conditions, which guarantee an
equilibrium, and then walks the exact minimum pain-per-buck pattern search
of :mod:`choremarket.enumeration` (the one its ``enumerate_equilibria`` and
``exists_equilibrium`` walk too), solving one exact LP per pattern until a
pattern yields a verified equilibrium or the LP budget runs out.

The module is named for the paper's existence proof, a fixed point of a
price map.  The package does not run that map.  The test suite keeps it as
an oracle and checks that every equilibrium :func:`solve` returns is one of
its fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConditionViolated, ConstructionFailed, Malformed, PatternBudgetExceeded
from .enumeration import PATTERN_CAP, _search
from .graphs import check_conditions
from .model import EquilibriumCandidate, Instance


@dataclass(frozen=True)
class SolverConfig:
    #: Most pattern LPs one solve may run.
    max_iters: int = 20000


@dataclass(frozen=True)
class SolveOutcome:
    """What :func:`solve` found and why it stopped.

    ``iterations`` counts the pattern LPs solved.  ``reason`` is ``"found"``
    (``candidate`` is an exact equilibrium), ``"budget"`` (``max_iters`` LPs
    solved without one) or ``"cap"`` (the pattern space exceeds
    ``enumeration.PATTERN_CAP``, so no LP ran).
    """

    converged: bool
    candidate: Optional[EquilibriumCandidate]
    iterations: int
    reason: str


def solve(inst: Instance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Find one exact equilibrium of an instance that passes both conditions.

    Raises :class:`ConditionViolated` when a condition fails.  Otherwise
    solves the LPs of the exact pattern search in order, at most
    ``config.max_iters`` of them, and returns the first verified equilibrium
    in the caller's units and variant.  The conditions guarantee an
    equilibrium, so a search that runs out of patterns is a bug and raises
    :class:`ConstructionFailed`.
    """
    if config.max_iters < 0:
        raise Malformed("max_iters must be nonnegative")
    report = check_conditions(inst)
    if not report.condition1.ok:
        raise ConditionViolated(f"condition 1 fails: {report.condition1.witness}")
    if not report.condition2.ok:
        raise ConditionViolated(f"condition 2 fails: order {report.condition2.scc_order}")
    try:
        patterns, solve_pattern = _search(inst, 0, PATTERN_CAP)
    except PatternBudgetExceeded:
        return SolveOutcome(False, None, 0, "cap")
    solved = 0
    for leaf in patterns:
        if solved == config.max_iters:
            return SolveOutcome(False, None, solved, "budget")
        solved += 1
        hit = solve_pattern(*leaf)
        if hit is not None:
            return SolveOutcome(True, hit.candidate, solved, "found")
    raise ConstructionFailed(f"pattern search ran out after {solved} LPs")
