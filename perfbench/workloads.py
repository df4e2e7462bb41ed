"""Inputs, operations and output checks of the benchmark workloads.

A workload is a fixed list of operations built from the seed.  Every
operation calls the library through a module attribute looked up at call
time, so the tracer's wrappers see the call when they are installed.  Every
operation has a check that classifies its output as ``SOLVED``, ``UNSOLVED``
(a correct "no answer within the budget") or wrong, in which case the check
returns the reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List, Optional

import choremarket as cm
from choremarket import cli, errors

SOLVED = "solved"
UNSOLVED = "unsolved"

#: Block structures of the random conditioned instances: those of
#: ``random_conditioned_instance(random.Random(k))`` in ``tests/conftest.py``.
STRUCTURES = range(50)
#: Value draws per structure.  The seed redraws disutilities and endowments
#: but never the block structure, so every seed searches the same pattern
#: space and the heavy instances (49 patterns) are in every run.
ENUM_DRAWS = 2
#: solve-seeds takes the enum-seeds markets plus four more draws.  A solve's
#: cost hinges on whether it converges, which the values decide, so two
#: draws leave the median latency swinging by a third from seed to seed.
SOLVE_DRAWS = 6
#: Iteration bound of the acceptance test that runs ``solve`` on these seeds.
SOLVE_MAX_ITERS = 300
#: Iteration bound of the one GAME2 ``solve-fixedpoint`` call (~25 ms each).
GAME2_MAX_ITERS = 20
#: (variables, clauses) of the planted 3-CNF formulas, from 3x1 up to the
#: 12x20 formula whose gadget is 104 agents by 84 chores.
SAT_SHAPES = tuple(
    (3 + (i * 9) // 15, 1 + (i * 19) // 15) for i in range(16)
)
#: Random two-player games besides GAME2.
RANDOM_GAMES = 7

REFERENCE_FILE = Path(__file__).with_name("reference_rays.json")

F = Fraction


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    #: Maps the call's return value (or the exception it raised) to
    #: ``SOLVED``, ``UNSOLVED`` or the reason the output is wrong.
    check: Callable[[Any], str]
    #: Untimed step run before the call, e.g. removing a stale output file.
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    ops: List[Op]
    #: Ops run once, untimed, before measuring (lazy imports, first calls).
    warmup: List[Op]


# ---------------------------------------------------------------------------
# Instances shared by enum-seeds and solve-seeds


def fixtures():
    """The four named markets of ``tests/conftest.py``."""
    half = F(1, 2)
    return {
        "warmup": cm.fixed_earnings_instance(100, [[1, 3], [None, 1]], [1, 1]),
        "intro": cm.exchange_instance(
            100, [[1, 3], [3, 1]], [[half, half], [half, half]]
        ),
        "example1": cm.exchange_instance(
            100, [[1, None], [1, 2]], [[1, 1], [1, 1]]
        ),
        "example2": cm.exchange_instance(
            100, [[1, None], [None, 1]], [[1, half], [0, half]]
        ),
    }


def conditioned_instance(seed: int, structure: int, draw: int):
    """Random exchange instance passing both existence conditions.

    Same generator as ``random_conditioned_instance`` in ``tests/conftest.py``:
    block-complete disutility components and positive endowments.  The block
    sizes come from ``random.Random(structure)``; seed 0, draw 0 continues
    that generator and so reproduces the conftest instance exactly, while
    other (seed, draw) pairs draw the values afresh.
    """
    rng = random.Random(structure)
    sizes = []
    chores_left = 6
    for _ in range(rng.randint(1, 3)):
        nc = rng.randint(1, min(2, chores_left))
        sizes.append((rng.randint(1, 2), nc))
        chores_left -= nc
        if chores_left == 0:
            break
    if seed != 0 or draw != 0:
        rng = random.Random(f"{seed}/{structure}/{draw}")
    total_agents = sum(a for a, _ in sizes)
    total_chores = sum(c for _, c in sizes)
    d = [[None] * total_chores for _ in range(total_agents)]
    a0 = c0 = 0
    for na, nc in sizes:
        for i in range(a0, a0 + na):
            for j in range(c0, c0 + nc):
                d[i][j] = F(rng.randint(1, 5), rng.randint(1, 3))
        a0 += na
        c0 += nc
    w = [
        [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(total_chores)]
        for _ in range(total_agents)
    ]
    return cm.exchange_instance(100, d, w)


def market_instances(seed: int, draws: int = ENUM_DRAWS):
    """(name, instance) pairs: the fixtures, then the random instances."""
    out = list(fixtures().items())
    for draw in range(draws):
        for k in STRUCTURES:
            out.append((f"random-{k}.{draw}", conditioned_instance(seed, k, draw)))
    return out


def load_reference():
    with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def ray_key(ray):
    return tuple(F(x) for x in ray)


def _raised(out) -> Optional[str]:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


# ---------------------------------------------------------------------------
# enum-seeds


def enum_check(inst, conditions_ok: bool, expected_rays):
    """Check of one ``check_conditions`` + ``enumerate_equilibria`` op.

    ``expected_rays`` is the reference ray set, or ``None`` off the default
    seed, where every ray is re-verified exactly and a conditioned instance
    must have at least one.
    """

    def check(out) -> str:
        if _raised(out):
            return _raised(out)
        report, found = out
        if report.ok != conditions_ok:
            return f"condition verdict {report.ok}, expected {conditions_ok}"
        rays = set()
        for e in found.equilibria:
            if e.candidate.mode != cm.EXACT:
                return "candidate is not exact"
            if not cm.verify_equilibrium(inst, e.candidate).ok:
                return "candidate fails exact verification"
            if cm.normalize_prices(e.candidate.prices) != tuple(e.ray):
                return "ray is not the candidate's normalized price vector"
            rays.add(tuple(e.ray))
        if len(rays) != len(found.equilibria):
            return "duplicate rays"
        if expected_rays is not None:
            if rays != expected_rays:
                return f"{len(rays)} rays differ from the {len(expected_rays)} reference rays"
        elif conditions_ok and not rays:
            return "no equilibrium on a conditioned instance"
        return SOLVED

    return check


def enum_seeds(seed: int, reference=None) -> Workload:
    """One op = ``check_conditions`` + ``enumerate_equilibria`` on one market."""
    if reference is None:
        reference = load_reference()
    fixture_names = set(fixtures())
    ops = []
    for name, inst in market_instances(seed):
        ref = reference[name] if (seed == 0 or name in fixture_names) else None
        if ref is not None:
            conditions_ok = ref["conditions_ok"]
            expected = {ray_key(r) for r in ref["rays"]}
        else:
            conditions_ok, expected = True, None

        def call(inst=inst):
            return cm.check_conditions(inst), cm.enumerate_equilibria(inst)

        ops.append(Op(name, call, enum_check(inst, conditions_ok, expected)))
    return Workload(ops, warmup=ops[:4])


# ---------------------------------------------------------------------------
# solve-seeds


def solve_check(inst, conditions_ok: bool):
    def check(out) -> str:
        if isinstance(out, errors.ConditionViolated):
            if conditions_ok:
                return "ConditionViolated on an instance that passes the conditions"
            return SOLVED
        if _raised(out):
            return _raised(out)
        if not conditions_ok:
            return "solve ran on an instance that fails the conditions"
        if not out.converged:
            return UNSOLVED
        if out.candidate is None:
            return "converged without a candidate"
        report = cm.verify_equilibrium(
            inst, out.candidate, tol_mpb=1e-6, tol_clearing=1e-6
        )
        return SOLVED if report.ok else "converged candidate fails float verification"

    return check


def solve_seeds(seed: int, reference=None) -> Workload:
    """One op = ``solve(inst, SolverConfig(max_iters=300))`` on one market.

    A solve that stops unconverged is correct but ``UNSOLVED``;
    ``ConditionViolated`` is the right answer exactly where the conditions
    fail.
    """
    if reference is None:
        reference = load_reference()
    config = cm.SolverConfig(max_iters=SOLVE_MAX_ITERS)
    fixture_names = set(fixtures())
    ops = []
    for name, inst in market_instances(seed, SOLVE_DRAWS):
        ref = reference[name] if name in fixture_names else None
        conditions_ok = True if ref is None else ref["conditions_ok"]

        def call(inst=inst):
            return cm.solve(inst, config)

        ops.append(Op(name, call, solve_check(inst, conditions_ok)))
    return Workload(ops, warmup=ops[:4])


# ---------------------------------------------------------------------------
# gadgets-cli

GAME2_PAYOFF = [
    [1, 0, 1, 0],
    [0, 1, 1, 0],
    [1, 0, 0, 1],
    [0, 1, F(1, 2), F(1, 2)],
]


def planted_formula(rng: random.Random, num_vars: int, num_clauses: int):
    """Random 3-CNF formula satisfied by a random planted assignment."""
    assignment = [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    while len(clauses) < num_clauses:
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clause = [v if rng.random() < 0.5 else -v for v in chosen]
        if any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return assignment, clauses


def random_game_payoff(rng: random.Random):
    """2-player payoff rows with entries in quarters and pair sums one."""
    rows = []
    for _ in range(4):
        row = []
        for _ in range(2):
            a = F(rng.randint(0, 4), 4)
            row += [a, 1 - a]
        rows.append(row)
    return rows


def endpoint_prices(gadget, signs):
    """Alternating band-endpoint prices; ``signs[pair]`` picks the branch.

    The same synthetic prices as ``tests/test_polymatrix.py``; top-layer
    pair ``i`` then reads as the pure strategy given by ``top_signs``.
    """
    params = gadget.params
    prices = [0.0] * gadget.instance.m
    for k in range(1, params.K + 1):
        a = float(params.alpha[k - 1])
        for pair in range(params.n):
            s = signs[pair] * (-1) ** k
            prices[gadget.chore(k, 2 * pair)] = 1 + s * a
            prices[gadget.chore(k, 2 * pair + 1)] = 1 - s * a
    zeros = [[0.0] * gadget.instance.m for _ in range(gadget.instance.n)]
    return {"mode": "float", "prices": prices, "allocation": zeros}


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_op(name, argv, out: Path, check_doc):
    """One ``cli.main(argv + ["-o", out])`` call; ``check_doc(rc, doc)``."""
    argv = [str(a) for a in argv] + ["-o", str(out)]

    def prepare():
        if out.exists():
            out.unlink()

    def check(rc) -> str:
        if _raised(rc):
            return _raised(rc)
        if not out.exists():
            return f"exit {rc} without output"
        try:
            doc = _read_json(out)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        return check_doc(rc, doc)

    return Op(name, lambda: cli.main(argv), check, prepare)


def _expect(rc, want_rc, problems) -> str:
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    return problems or SOLVED


def gadgets_cli(seed: int, workdir: Path) -> Workload:
    """SAT and polymatrix reduction pipelines as CLI calls on JSON files."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops: List[Op] = []
    warmup: List[Op] = []

    for idx, (num_vars, num_clauses) in enumerate(SAT_SHAPES):
        rng = random.Random(f"{seed}/sat/{idx}")
        assignment, clauses = planted_formula(rng, num_vars, num_clauses)
        bits = "".join("1" if v else "0" for v in assignment)
        cnf = workdir / f"sat{idx}.cnf"
        cnf.write_text(
            f"p cnf {num_vars} {num_clauses}\n"
            + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses),
            encoding="utf-8",
        )
        agents = 2 * num_vars + 4 * num_clauses
        chores = 2 * num_vars + 3 * num_clauses
        gadget, eq = workdir / f"sat{idx}.gadget.json", workdir / f"sat{idx}.eq.json"

        def gen_ok(rc, doc, clauses=clauses, agents=agents, chores=chores):
            meta = doc.get("metadata", {})
            rows = doc.get("instance", {}).get("disutility", [])
            bad = None
            if meta.get("kind") != "sat-gadget" or meta["formula"]["clauses"] != clauses:
                bad = "gadget metadata does not match the formula"
            elif len(rows) != agents or any(len(r) != chores for r in rows):
                bad = "gadget has the wrong shape"
            return _expect(rc, 0, bad)

        def eq_ok(rc, doc, chores=chores):
            bad = None
            if doc.get("mode") != "exact" or len(doc.get("prices", [])) != chores:
                bad = "planted equilibrium is not an exact price vector of the gadget"
            return _expect(rc, 0, bad)

        def verify_ok(rc, doc):
            bad = None
            if doc.get("ok") is not True or doc.get("mode") != "exact":
                bad = f"exact verification rejects the planted equilibrium: {doc.get('violations')}"
            return _expect(rc, 0, bad)

        def readback_ok(rc, doc, bits=bits):
            bad = None
            if doc.get("assignment") != bits or doc.get("satisfies") is not True:
                bad = f"read back {doc.get('assignment')}, planted {bits}"
            return _expect(rc, 0, bad)

        formula_ops = [
            _cli_op(f"gen-sat {idx}", ["gen-sat", "--cnf", cnf], gadget, gen_ok),
            _cli_op(
                f"sat-equilibrium {idx}",
                ["sat-equilibrium", "--cnf", cnf, "--assignment", bits],
                eq,
                eq_ok,
            ),
            _cli_op(
                f"verify {idx}",
                ["verify", "--instance", gadget, "--equilibrium", eq],
                workdir / f"sat{idx}.verify.json",
                verify_ok,
            ),
            _cli_op(
                f"sat-readback {idx}",
                ["sat-readback", "--instance", gadget, "--equilibrium", eq],
                workdir / f"sat{idx}.readback.json",
                readback_ok,
            ),
        ]
        ops += formula_ops
        if idx == 0:
            warmup += formula_ops

    game2 = None
    games = [("GAME2", GAME2_PAYOFF, (1, 1))]
    for idx in range(RANDOM_GAMES):
        rng = random.Random(f"{seed}/game/{idx}")
        payoff = random_game_payoff(rng)
        games.append((f"random-game{idx}", payoff, (rng.choice((1, -1)), rng.choice((1, -1)))))

    for label, payoff, signs in games:
        game = cm.PolymatrixGame(2, payoff)
        built = cm.build_polymatrix_gadget(game)
        top = [s * (-1) ** built.params.K for s in signs]
        expected_x = [v for s in top for v in ((1.0, 0.0) if s > 0 else (0.0, 1.0))]
        game_file = workdir / f"{label}.game.json"
        _write_json(game_file, {"n": 2, "payoff": [[str(F(x)) for x in row] for row in payoff]})
        endpoints = workdir / f"{label}.endpoints.json"
        _write_json(endpoints, endpoint_prices(built, signs))
        gadget = workdir / f"{label}.gadget.json"
        shape = (built.instance.n, built.instance.m)

        def gen_ok(rc, doc, shape=shape):
            rows = doc.get("instance", {}).get("disutility", [])
            bad = None
            if doc.get("metadata", {}).get("kind") != "polymatrix-gadget":
                bad = "output lacks polymatrix-gadget metadata"
            elif (len(rows), len(rows[0]) if rows else 0) != shape:
                bad = "gadget has the wrong shape"
            return _expect(rc, 0, bad)

        def gadget_ok(rc, doc):
            failed = [c["name"] for c in doc.get("checks", []) if not c.get("ok")]
            bad = None
            if doc.get("ok") is not True or failed or not doc.get("checks"):
                bad = f"gadget checks fail on endpoint prices: {failed}"
            return _expect(rc, 0, bad)

        def strategy_ok(rc, doc, expected_x=expected_x):
            bad = None
            if doc.get("x") != expected_x:
                bad = f"recovered {doc.get('x')}, expected pure strategy {expected_x}"
            return _expect(rc, 0, bad)

        game_ops = [
            _cli_op(f"gen-polymatrix {label}", ["gen-polymatrix", "--game", game_file], gadget, gen_ok),
            _cli_op(
                f"check-gadget {label}",
                ["check-gadget", "--instance", gadget, "--equilibrium", endpoints],
                workdir / f"{label}.check.json",
                gadget_ok,
            ),
            _cli_op(
                f"recover-strategy {label}",
                ["recover-strategy", "--instance", gadget, "--equilibrium", endpoints],
                workdir / f"{label}.strategy.json",
                strategy_ok,
            ),
        ]
        ops += game_ops
        if label == "GAME2":
            warmup += game_ops
            game2 = built

    def solved_ok(rc, doc):
        if rc == 1 and doc.get("converged") is False:
            return UNSOLVED
        if rc != 0 or doc.get("converged") is not True or not doc.get("equilibrium"):
            return f"exit {rc} with converged={doc.get('converged')}"
        cand = cm.candidate_from_json(doc["equilibrium"])
        report = cm.verify_equilibrium(
            game2.instance, cand, tol_mpb=1e-6, tol_clearing=1e-6
        )
        return SOLVED if report.ok else "converged candidate fails float verification"

    solve_op = _cli_op(
        "solve-fixedpoint GAME2",
        [
            "solve-fixedpoint",
            "--instance",
            workdir / "GAME2.gadget.json",
            "--max-iters",
            GAME2_MAX_ITERS,
        ],
        workdir / "GAME2.solve.json",
        solved_ok,
    )
    ops.append(solve_op)
    warmup.append(solve_op)
    return Workload(ops, warmup)


def build(name: str, seed: int, workdir: Path, reference=None) -> Workload:
    if name == "enum-seeds":
        return enum_seeds(seed, reference)
    if name == "solve-seeds":
        return solve_seeds(seed, reference)
    if name == "gadgets-cli":
        return gadgets_cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
