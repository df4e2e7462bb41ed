"""Competitive equilibria for chore division with a dislike threshold.

Markets where agents are paid to do divisible chores they dislike, with a
threshold above which an agent refuses a chore outright.  The package checks
the structural conditions under which equilibria exist, verifies,
enumerates and finds exact equilibria by a search over minimum pain-per-buck
patterns, and builds the reductions that tie equilibrium existence to
satisfiability and threshold polymatrix games.
"""

from .errors import ChoreMarketError
from .model import (
    EXACT,
    EXCHANGE,
    FIXED_EARNINGS,
    FLOAT,
    INFINITE,
    EquilibriumCandidate,
    Instance,
    agent_budget,
    candidate_from_json,
    candidate_to_json,
    exchange_instance,
    fixed_earnings_instance,
    instance_from_json,
    instance_to_json,
    load_json,
    normalize_prices,
    save_json,
)
from .graphs import (
    build_disutility_graph,
    build_exchange_graph,
    check_condition1,
    check_condition2,
    check_conditions,
)
from .verification import (
    check_pareto,
    fairness_report,
    mpb_sets,
    verify_equilibrium,
)
from .enumeration import SolverConfig, enumerate_equilibria, exists_equilibrium, solve
from .sat_reduction import (
    CNFFormula,
    SATGadgetParams,
    assignment_to_equilibrium,
    build_sat_gadget,
    equilibrium_to_assignment,
    expand_to_equal_earnings,
)
from .polymatrix import (
    PolymatrixGame,
    PPADGadgetParams,
    build_polymatrix_gadget,
    recover_strategy,
    verify_gadget_properties,
    verify_polymatrix_equilibrium,
)

__version__ = "1.0.0"

__all__ = [
    "ChoreMarketError",
    "EXACT",
    "EXCHANGE",
    "FIXED_EARNINGS",
    "FLOAT",
    "INFINITE",
    "EquilibriumCandidate",
    "Instance",
    "agent_budget",
    "candidate_from_json",
    "candidate_to_json",
    "exchange_instance",
    "fixed_earnings_instance",
    "instance_from_json",
    "instance_to_json",
    "load_json",
    "normalize_prices",
    "save_json",
    "build_disutility_graph",
    "build_exchange_graph",
    "check_condition1",
    "check_condition2",
    "check_conditions",
    "check_pareto",
    "fairness_report",
    "mpb_sets",
    "verify_equilibrium",
    "enumerate_equilibria",
    "exists_equilibrium",
    "SolverConfig",
    "solve",
    "CNFFormula",
    "SATGadgetParams",
    "assignment_to_equilibrium",
    "build_sat_gadget",
    "equilibrium_to_assignment",
    "expand_to_equal_earnings",
    "PolymatrixGame",
    "PPADGadgetParams",
    "build_polymatrix_gadget",
    "recover_strategy",
    "verify_gadget_properties",
    "verify_polymatrix_equilibrium",
]
