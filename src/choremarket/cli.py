"""Command-line interface.

Every command reads JSON and returns one JSON document and whether it passed;
:func:`main` alone writes the document, to stdout or the ``-o`` file.  Exit
codes: 0 on success (or a passing check); 1 when a check fails, a search comes
up empty or exceeds its budget (``--cap``, ``--max-iters``), or on any other
package error that is not :class:`Malformed`, written as ``{"error": message}``
and to stderr; 2 on malformed or undecodable input, usage errors or an
unwritable ``-o``.  Exits 0 and 1 always write a document, exit 2 writes none.

A report document holds its result type's fields, written by
:func:`model._plain`: keys are field names and ``None`` fields are left out.
Candidates and markets keep their own codecs in :mod:`model`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import enumeration, graphs, polymatrix, sat_reduction, verification
from .errors import ChoreMarketError, Malformed
from .model import (
    _json_array,
    _json_text,
    _plain,
    _tolerance,
    candidate_from_json,
    candidate_to_json,
    instance_from_json,
    instance_to_json,
    load_json,
    save_json,
    to_fraction,
)


def _load_instance(path):
    return instance_from_json(load_json(path))


def _load_candidate(path):
    return candidate_from_json(load_json(path))


def _condition1_doc(res):
    """Condition 1's result, with its decomposition's two fields at the top."""
    doc = _plain(res)
    doc.update(doc.pop("decomposition", {}))
    return doc


# ---------------------------------------------------------------------------
# Commands


def _cmd_check_conditions(args):
    inst = _load_instance(args.instance)
    report = graphs.check_conditions(inst)
    return {
        "ok": report.ok,
        "condition1": _condition1_doc(report.condition1),
        "condition2": _plain(report.condition2),
    }, report.ok


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
    return {**_plain(report), "ok": report.ok}, report.ok


def _cmd_enumerate(args):
    inst = _load_instance(args.instance)
    result = enumeration.enumerate_equilibria(
        inst, epsilon=to_fraction(args.epsilon), cap=args.cap
    )
    return {
        "count": len(result.equilibria),
        "patterns_tried": result.patterns_tried,
        "equilibria": [
            {
                "ray": _plain(e.ray),
                "pattern": _plain(e.pattern),
                "equilibrium": candidate_to_json(e.candidate),
            }
            for e in result.equilibria
        ],
    }, bool(result.equilibria)


def _cmd_solve_fixedpoint(args):
    inst = _load_instance(args.instance)
    config = enumeration.SolverConfig(max_iters=args.max_iters)
    outcome = enumeration.solve(inst, config)
    return {
        "converged": outcome.converged,
        "iterations": outcome.iterations,
        "reason": outcome.reason,
        "equilibrium": (
            candidate_to_json(outcome.candidate) if outcome.candidate else None
        ),
    }, outcome.converged


def _sat_params(args):
    names = ("eps", "eps_prime", "tau")
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    return sat_reduction.SATGadgetParams(**given)


def _load_formula(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise Malformed(f"{exc} (reading {path})") from exc
    return sat_reduction.parse_dimacs(text)


def _cmd_gen_sat(args):
    formula = _load_formula(args.cnf)
    gadget = sat_reduction.build_sat_gadget(formula, _sat_params(args))
    return sat_reduction.gadget_to_json(gadget), True


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
    cand = sat_reduction.assignment_to_equilibrium(gadget, assignment)
    return candidate_to_json(cand), True


def _cmd_sat_readback(args):
    gadget = sat_reduction.gadget_from_json(load_json(args.instance))
    cand = _load_candidate(args.equilibrium)
    assignment = sat_reduction.equilibrium_to_assignment(gadget, cand)
    satisfies = gadget.formula.satisfies(assignment)
    return {
        "assignment": "".join("1" if v else "0" for v in assignment),
        "satisfies": satisfies,
    }, satisfies


def _cmd_expand_equal_earnings(args):
    inst = _load_instance(args.instance)
    expanded, groups = sat_reduction.expand_to_equal_earnings(
        inst, to_fraction(args.unit)
    )
    return {
        "instance": instance_to_json(expanded),
        "groups": _plain(groups),
    }, True


def _cmd_gen_polymatrix(args):
    game = polymatrix.game_from_json(load_json(args.game))
    gadget = polymatrix.build_polymatrix_gadget(game)
    return polymatrix.gadget_to_json(gadget), True


def _cmd_check_gadget(args):
    gadget = polymatrix.gadget_from_json(load_json(args.instance))
    cand = _load_candidate(args.equilibrium) if args.equilibrium else None
    report = polymatrix.verify_gadget_properties(gadget, cand, tol=args.tol)
    return {**_plain(report), "ok": report.ok}, report.ok


def _cmd_recover_strategy(args):
    gadget = polymatrix.gadget_from_json(load_json(args.instance))
    cand = _load_candidate(args.equilibrium)
    x = polymatrix.recover_strategy(gadget, cand, tol=args.tol)
    return {"x": _plain(x)}, True


def _cmd_verify_polymatrix(args):
    game = polymatrix.game_from_json(load_json(args.game))
    doc = load_json(args.strategy)
    if not isinstance(doc, dict):
        raise Malformed("strategy document must be a JSON object")
    x = _json_array(doc.get("x"), "x")
    verdict = polymatrix.verify_polymatrix_equilibrium(game, x, slack=args.slack)
    return _plain(verdict), verdict.ok


# ---------------------------------------------------------------------------
# Parser


def _tolerance_flag(text):
    """A finite, nonnegative float (see :func:`model._tolerance`)."""
    try:
        return _tolerance(float(text))
    except (ValueError, Malformed) as exc:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite nonnegative number: {text!r}"
        ) from exc


@functools.cache
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
    p.add_argument("--tol-mpb", type=_tolerance_flag, default=verification.TOL_MPB)
    p.add_argument("--tol-clearing", type=_tolerance_flag, default=verification.TOL_CLEARING)

    p = add("enumerate", _cmd_enumerate, "one verified equilibrium price ray per pattern")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", default="0")
    p.add_argument("--cap", type=int, default=enumeration.PATTERN_CAP)

    p = add("solve-fixedpoint", _cmd_solve_fixedpoint, "exact equilibrium by pattern search")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--max-iters",
        type=int,
        default=enumeration.SolverConfig.max_iters,
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
    p.add_argument("--tol", type=_tolerance_flag, default=1e-6)

    p = add("recover-strategy", _cmd_recover_strategy, "strategy from top-layer prices")
    p.add_argument("--instance", required=True, help="gadget JSON with metadata")
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--tol", type=_tolerance_flag, default=1e-6)

    p = add("verify-polymatrix", _cmd_verify_polymatrix, "check a threshold equilibrium")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True, help='JSON {"x": [...]}')
    p.add_argument("--slack", type=_tolerance_flag, default=1e-6)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            doc, ok = args.func(args)
        except Malformed:
            raise
        except ChoreMarketError as exc:
            print(f"error: {exc}", file=sys.stderr)
            doc, ok = {"error": str(exc)}, False
        if args.output:
            save_json(doc, args.output)
        else:
            print(_json_text(doc))
    except (Malformed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
