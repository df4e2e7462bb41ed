"""Command-line interface.

Every command reads and writes JSON.  Exit codes: 0 on success (or a passing
check), 1 when a check fails, a search comes up empty or a search exceeds its
budget (``--cap``, ``--max-iters``), 2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import enumeration, fixedpoint, graphs, polymatrix, sat_reduction, verification
from .errors import (
    BadGame,
    BadParams,
    ChoreMarketError,
    ConditionViolated,
    DegenerateSize,
    DimensionMismatch,
    Malformed,
    NotGadget,
    NotSatisfying,
    OutOfBand,
    WrongVariant,
)
from .model import (
    candidate_from_json,
    candidate_to_json,
    format_rational,
    instance_from_json,
    instance_to_json,
    load_json,
    to_fraction,
)

_USAGE_ERRORS = (
    Malformed,
    DimensionMismatch,
    WrongVariant,
    NotGadget,
    BadParams,
    BadGame,
    DegenerateSize,
)


def _num(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if x is None:
        return None
    return float(x)


def _emit(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load_instance(path):
    return instance_from_json(load_json(path))


def _load_candidate(path):
    return candidate_from_json(load_json(path))


# ---------------------------------------------------------------------------
# Report serialization


def _condition1_doc(res):
    doc = {"ok": res.ok}
    if res.decomposition is not None:
        doc["components"] = [
            {"agents": list(c.agents), "chores": list(c.chores)}
            for c in res.decomposition.components
        ]
        doc["isolated_agents"] = list(res.decomposition.isolated_agents)
    if res.witness is not None:
        w = {"kind": res.witness.kind}
        if res.witness.chore is not None:
            w["chore"] = res.witness.chore
        if res.witness.agent is not None:
            w["agent"] = res.witness.agent
        if res.witness.missing_pair is not None:
            w["missing_pair"] = list(res.witness.missing_pair)
        if res.witness.component is not None:
            w["component"] = {
                "agents": list(res.witness.component.agents),
                "chores": list(res.witness.component.chores),
            }
        doc["witness"] = w
    return doc


def _condition2_doc(res):
    if res is None:
        return None
    doc = {"ok": res.ok}
    if res.scc_order is not None:
        doc["scc_order"] = [sorted(s) for s in res.scc_order]
    return doc


def _verification_doc(report):
    return {
        "ok": report.ok,
        "mpb_ok": report.mpb_ok,
        "threshold_ok": report.threshold_ok,
        "budget_ok": report.budget_ok,
        "clearing_ok": report.clearing_ok,
        "epsilon": format_rational(report.epsilon),
        "mode": report.mode,
        "violations": list(report.violations),
    }


# ---------------------------------------------------------------------------
# Commands


def _cmd_check_conditions(args):
    inst = _load_instance(args.instance)
    report = graphs.check_conditions(inst)
    _emit(
        {
            "ok": report.ok,
            "condition1": _condition1_doc(report.condition1),
            "condition2": _condition2_doc(report.condition2),
        },
        args.output,
    )
    return 0 if report.ok else 1


def _cmd_verify(args):
    inst = _load_instance(args.instance)
    cand = _load_candidate(args.equilibrium)
    report = verification.verify_equilibrium(
        inst,
        cand,
        epsilon=to_fraction(args.epsilon),
        tol_mpb=args.tol_mpb,
        tol_clearing=args.tol_clearing,
    )
    _emit(_verification_doc(report), args.output)
    return 0 if report.ok else 1


def _cmd_enumerate(args):
    inst = _load_instance(args.instance)
    result = enumeration.enumerate_equilibria(
        inst, epsilon=to_fraction(args.epsilon), cap=args.cap
    )
    _emit(
        {
            "count": len(result.equilibria),
            "patterns_tried": result.patterns_tried,
            "equilibria": [
                {
                    "ray": [_num(p) for p in e.ray],
                    "pattern": [sorted(s) for s in e.pattern],
                    "equilibrium": candidate_to_json(e.candidate),
                }
                for e in result.equilibria
            ],
        },
        args.output,
    )
    return 0 if result.equilibria else 1


def _cmd_solve_fixedpoint(args):
    inst = _load_instance(args.instance)
    config = fixedpoint.SolverConfig(max_iters=args.max_iters)
    try:
        outcome = fixedpoint.solve(inst, config)
    except ConditionViolated as exc:
        _emit({"converged": False, "error": str(exc)}, args.output)
        return 1
    doc = {
        "converged": outcome.converged,
        "iterations": outcome.iterations,
        "reason": outcome.reason,
        "residual": 0.0 if outcome.converged else None,
        "equilibrium": (
            candidate_to_json(outcome.candidate) if outcome.candidate else None
        ),
        "trace": [],
    }
    _emit(doc, args.output)
    return 0 if outcome.converged else 1


def _sat_params(args):
    kwargs = {}
    if args.eps is not None:
        kwargs["eps"] = to_fraction(args.eps)
    if args.eps_prime is not None:
        kwargs["eps_prime"] = to_fraction(args.eps_prime)
    if args.tau is not None:
        kwargs["tau"] = to_fraction(args.tau)
    return sat_reduction.SATGadgetParams(**kwargs)


def _load_formula(path):
    with open(path, "r", encoding="utf-8") as handle:
        return sat_reduction.parse_dimacs(handle.read())


def _cmd_gen_sat(args):
    formula = _load_formula(args.cnf)
    gadget = sat_reduction.build_sat_gadget(formula, _sat_params(args))
    _emit(sat_reduction.gadget_to_json(gadget), args.output)
    return 0


def _parse_assignment(text, num_vars):
    mapping = {"0": False, "1": True, "f": False, "t": True}
    values = []
    for ch in text.strip():
        if ch.lower() not in mapping:
            raise Malformed(f"bad assignment character {ch!r}")
        values.append(mapping[ch.lower()])
    if len(values) != num_vars:
        raise Malformed("assignment length must match variable count")
    return values


def _cmd_sat_equilibrium(args):
    formula = _load_formula(args.cnf)
    gadget = sat_reduction.build_sat_gadget(formula, _sat_params(args))
    assignment = _parse_assignment(args.assignment, formula.num_vars)
    try:
        cand = sat_reduction.assignment_to_equilibrium(gadget, assignment)
    except NotSatisfying as exc:
        _emit({"error": str(exc)}, args.output)
        return 1
    _emit(candidate_to_json(cand), args.output)
    return 0


def _cmd_sat_readback(args):
    gadget = sat_reduction.gadget_from_json(load_json(args.instance))
    cand = _load_candidate(args.equilibrium)
    assignment = sat_reduction.equilibrium_to_assignment(gadget, cand)
    satisfies = gadget.formula.satisfies(assignment)
    _emit(
        {
            "assignment": "".join("1" if v else "0" for v in assignment),
            "satisfies": satisfies,
        },
        args.output,
    )
    return 0 if satisfies else 1


def _cmd_expand_equal_earnings(args):
    inst = _load_instance(args.instance)
    expanded, groups = sat_reduction.expand_to_equal_earnings(
        inst, to_fraction(args.unit)
    )
    _emit(
        {
            "instance": instance_to_json(expanded),
            "groups": [list(g) for g in groups],
        },
        args.output,
    )
    return 0


def _cmd_gen_polymatrix(args):
    game = polymatrix.game_from_json(load_json(args.game))
    gadget = polymatrix.build_polymatrix_gadget(game)
    _emit(polymatrix.gadget_to_json(gadget), args.output)
    return 0


def _cmd_check_gadget(args):
    gadget = polymatrix.gadget_from_json(load_json(args.instance))
    cand = _load_candidate(args.equilibrium) if args.equilibrium else None
    report = polymatrix.verify_gadget_properties(gadget, cand, tol=args.tol)
    _emit(
        {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "details": list(c.details)}
                for c in report.checks
            ],
        },
        args.output,
    )
    return 0 if report.ok else 1


def _cmd_recover_strategy(args):
    gadget = polymatrix.gadget_from_json(load_json(args.instance))
    cand = _load_candidate(args.equilibrium)
    try:
        x = polymatrix.recover_strategy(gadget, cand, tol=args.tol)
    except OutOfBand as exc:
        _emit({"error": str(exc)}, args.output)
        return 1
    _emit({"x": list(x)}, args.output)
    return 0


def _cmd_verify_polymatrix(args):
    game = polymatrix.game_from_json(load_json(args.game))
    doc = load_json(args.strategy)
    try:
        x = [float(to_fraction(v)) if isinstance(v, str) else float(v) for v in doc["x"]]
    except KeyError as exc:
        raise Malformed(f"strategy document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise Malformed(f"strategy document has a bad value: {exc}") from exc
    verdict = polymatrix.verify_polymatrix_equilibrium(game, x, slack=args.slack)
    _emit({"ok": verdict.ok, "violations": list(verdict.violations)}, args.output)
    return 0 if verdict.ok else 1


# ---------------------------------------------------------------------------
# Parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="choremarket",
        description="Competitive equilibria for chore division with a dislike threshold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", help="write JSON here instead of stdout")
        return p

    p = add("check-conditions", _cmd_check_conditions, "check the two sufficiency conditions")
    p.add_argument("--instance", required=True)

    p = add("verify", _cmd_verify, "verify an equilibrium candidate")
    p.add_argument("--instance", required=True)
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--epsilon", default="0")
    p.add_argument("--tol-mpb", type=float, default=verification.TOL_MPB)
    p.add_argument("--tol-clearing", type=float, default=verification.TOL_CLEARING)

    p = add("enumerate", _cmd_enumerate, "enumerate all equilibrium price rays")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", default="0")
    p.add_argument("--cap", type=int, default=enumeration.PATTERN_CAP)

    p = add("solve-fixedpoint", _cmd_solve_fixedpoint, "exact equilibrium by pattern search")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--max-iters",
        type=int,
        default=fixedpoint.SolverConfig.max_iters,
        help="most pattern LPs to solve",
    )

    p = add("gen-sat", _cmd_gen_sat, "build the market gadget of a 3-CNF formula")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file")
    p.add_argument("--eps")
    p.add_argument("--eps-prime")
    p.add_argument("--tau")

    p = add("sat-equilibrium", _cmd_sat_equilibrium, "equilibrium of a satisfying assignment")
    p.add_argument("--cnf", required=True)
    p.add_argument("--assignment", required=True, help="e.g. 101 or TFT")
    p.add_argument("--eps")
    p.add_argument("--eps-prime")
    p.add_argument("--tau")

    p = add("sat-readback", _cmd_sat_readback, "read an assignment off an equilibrium")
    p.add_argument("--instance", required=True, help="gadget JSON with metadata")
    p.add_argument("--equilibrium", required=True)

    p = add("expand-equal-earnings", _cmd_expand_equal_earnings, "unit-earning agent copies")
    p.add_argument("--instance", required=True)
    p.add_argument("--unit", default="1")

    p = add("gen-polymatrix", _cmd_gen_polymatrix, "build the market gadget of a game")
    p.add_argument("--game", required=True)

    p = add("check-gadget", _cmd_check_gadget, "verify gadget structure and price shape")
    p.add_argument("--instance", required=True, help="gadget JSON with metadata")
    p.add_argument("--equilibrium")
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("recover-strategy", _cmd_recover_strategy, "strategy from top-layer prices")
    p.add_argument("--instance", required=True, help="gadget JSON with metadata")
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("verify-polymatrix", _cmd_verify_polymatrix, "check a threshold equilibrium")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True, help='JSON {"x": [...]}')
    p.add_argument("--slack", type=float, default=1e-6)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*_USAGE_ERRORS, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChoreMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
