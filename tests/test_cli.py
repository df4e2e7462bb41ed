"""Command-line interface: exit codes, JSON round trips, determinism."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from choremarket import polymatrix, sat_reduction
from choremarket.cli import main
from choremarket.errors import Malformed, NotGadget
from choremarket.model import (
    candidate_from_json,
    candidate_to_json,
    fixed_earnings_instance,
    instance_to_json,
    save_json,
)
from choremarket.polymatrix import PolymatrixGame, build_polymatrix_gadget, game_to_json
from test_polymatrix import GAME2, k2_equilibria, synthetic_endpoint_prices

F = Fraction

DIMACS = "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"


@pytest.fixture
def paths(tmp_path, warmup, example1, example2):
    files = {}
    for name, inst in (
        ("warmup", warmup),
        ("example1", example1),
        ("example2", example2),
    ):
        path = tmp_path / f"{name}.json"
        save_json(instance_to_json(inst), str(path))
        files[name] = str(path)
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(DIMACS)
    files["cnf"] = str(cnf)
    game = tmp_path / "game.json"
    payoff = [
        [1, 0, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [0, 1, F(1, 2), F(1, 2)],
    ]
    save_json(game_to_json(PolymatrixGame(2, payoff)), str(game))
    files["game"] = str(game)
    files["tmp"] = str(tmp_path)
    return files


def run(*argv):
    return main(list(argv))


class TestConditions:
    def test_pass_and_fail_exit_codes(self, paths, capsys):
        assert run("check-conditions", "--instance", paths["example1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["condition1"]["ok"]
        assert doc["condition2"] is None

    def test_example2_condition2(self, paths, capsys):
        assert run("check-conditions", "--instance", paths["example2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["condition1"]["ok"] and not doc["condition2"]["ok"]

    def test_missing_file_is_usage_error(self, paths):
        assert run("check-conditions", "--instance", "/nonexistent.json") == 2

    def test_missing_endowment_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"variant": "exchange", "tau": "10", "disutility": [["1"]]})
        )
        assert run("check-conditions", "--instance", str(path)) == 2
        assert "endowment" in capsys.readouterr().err

    def test_missing_earning_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"variant": "fixed_earnings", "tau": "10", "disutility": [["1"]]})
        )
        assert run("check-conditions", "--instance", str(path)) == 2

    @pytest.mark.parametrize(
        "disutility, earning, witness",
        [
            ([[1, None]], [1], {"kind": "uncovered-chore", "chore": 1}),
            ([[1], [None]], [1, 1], {"kind": "isolated-agent", "agent": 1}),
        ],
    )
    def test_witness_names_its_chore_or_agent(
        self, tmp_path, capsys, disutility, earning, witness
    ):
        path = tmp_path / "inst.json"
        inst = fixed_earnings_instance(10, disutility, earning)
        save_json(instance_to_json(inst), str(path))
        assert run("check-conditions", "--instance", str(path)) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["condition2"] is None
        assert doc["condition1"] == {"ok": False, "witness": witness}

    def test_internal_value_error_is_not_usage_error(self, paths, monkeypatch):
        def broken(inst):
            raise ValueError("internal bug")

        monkeypatch.setattr("choremarket.graphs.check_conditions", broken)
        with pytest.raises(ValueError, match="internal bug"):
            run("check-conditions", "--instance", paths["warmup"])


class TestEnumerateAndVerify:
    def test_roundtrip(self, paths, capsys, tmp_path):
        out = tmp_path / "enum.json"
        assert run("enumerate", "--instance", paths["warmup"], "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 2
        rays = {tuple(e["ray"]) for e in doc["equilibria"]}
        assert ("1/2", "1/2") in {tuple(r) for r in rays}

        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps(doc["equilibria"][0]["equilibrium"]))
        assert (
            run(
                "verify",
                "--instance",
                paths["warmup"],
                "--equilibrium",
                str(eq),
            )
            == 0
        )

    def test_empty_enumeration_exits_one(self, paths, capsys):
        assert run("enumerate", "--instance", paths["example1"]) == 1
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_cap_exhaustion_exits_one(self, paths, capsys):
        assert run("enumerate", "--instance", paths["warmup"], "--cap", "1") == 1
        assert "exceed the cap" in capsys.readouterr().err

    def test_cap_exhaustion_overwrites_the_output_file(self, paths, tmp_path, capsys):
        # An exit-1 answer is a document too: a stale -o file must not survive.
        out = tmp_path / "out.json"
        out.write_text('{"count": 2}\n')
        argv = ["enumerate", "--instance", paths["warmup"], "--cap", "1", "-o", str(out)]
        assert run(*argv) == 1
        doc = json.loads(out.read_text())
        assert list(doc) == ["error"] and "exceed the cap" in doc["error"]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {doc['error']}\n"

    @pytest.mark.parametrize("cap, code", [("1000", 0), ("1", 1)])
    def test_unwritable_output_is_usage_error(self, paths, tmp_path, capsys, cap, code):
        argv = ["enumerate", "--instance", paths["warmup"], "--cap", cap]
        assert run(*argv) == code
        capsys.readouterr()
        out = tmp_path / "missing" / "out.json"
        assert run(*argv, "-o", str(out)) == 2
        assert capsys.readouterr().out == "" and not out.exists()

    def test_negative_cap_is_usage_error(self, paths, capsys):
        assert run("enumerate", "--instance", paths["warmup"], "--cap", "-1") == 2
        assert "cap must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("stale", [[["1", "0"], ["0", "1"]], [["7", "0"], ["0", "7"]], "10"])
    def test_stale_flow_key_is_ignored(self, paths, tmp_path, stale):
        doc = {"mode": "exact", "prices": ["1", "1"], "allocation": [["1", "0"], ["0", "1"]]}
        assert candidate_from_json(dict(doc, flow=stale)) == candidate_from_json(doc)
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps(dict(doc, flow=stale)))
        assert run("verify", "--instance", paths["warmup"], "--equilibrium", str(eq)) == 0

    def test_overlong_literal_is_usage_error(self, paths, tmp_path, capsys):
        # int() refuses strings past its digit limit (4,300 by default).
        eq = tmp_path / "eq.json"
        doc = {"prices": ["1" * 5000 + "/3", "1/2"], "allocation": [["0/1"] * 2] * 2}
        eq.write_text(json.dumps(doc))
        argv = ["verify", "--instance", paths["warmup"], "--equilibrium", str(eq)]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad rational literal" in captured.err

    @pytest.mark.parametrize(
        "prices, allocation",
        [
            (["1/2", "1/2"], [[None, "0/1"], ["0/1", "1/1"]]),
            ([None, "1/2"], [["1/1", "0/1"], ["0/1", "1/1"]]),
        ],
    )
    def test_null_entry_without_flow_is_usage_error(
        self, paths, tmp_path, capsys, prices, allocation
    ):
        eq = tmp_path / "eq.json"
        doc = {"mode": "exact", "prices": prices, "allocation": allocation}
        eq.write_text(json.dumps(doc))
        argv = ["verify", "--instance", paths["warmup"], "--equilibrium", str(eq)]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exact candidate entries must be rational numbers" in captured.err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_negative_allocation_fails_clearing(self, tmp_path, capsys, mode):
        # Budgets and chore totals balance, but agent 0 "does" -1/2 of its
        # forbidden chore 1.
        inst = tmp_path / "inst.json"
        market = fixed_earnings_instance(100, [[1, None], [1, 1]], [1, 1])
        save_json(instance_to_json(market), str(inst))
        eq = tmp_path / "eq.json"
        if mode == "exact":
            doc = {"prices": ["1/1", "1/1"], "allocation": [["3/2", "-1/2"], ["-1/2", "3/2"]]}
        else:
            doc = {"mode": "float", "prices": [1.0, 1.0], "allocation": [[1.5, -0.5], [-0.5, 1.5]]}
        eq.write_text(json.dumps(doc))
        assert run("verify", "--instance", str(inst), "--equilibrium", str(eq)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["clearing_ok"] is False
        assert report["mpb_ok"] and report["threshold_ok"] and report["budget_ok"]
        assert "agent 0 does negative amount" in report["violations"][0]

    def test_determinism(self, paths, capsys):
        run("enumerate", "--instance", paths["warmup"])
        first = capsys.readouterr().out
        run("enumerate", "--instance", paths["warmup"])
        assert capsys.readouterr().out == first


class TestSolve:
    def test_condition_failure_exits_one(self, paths, capsys):
        assert run("solve-fixedpoint", "--instance", paths["example1"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert list(doc) == ["error"] and doc["error"].startswith("condition 1 fails")
        assert captured.err == f"error: {doc['error']}\n"

    @pytest.fixture
    def intro_path(self, intro, tmp_path):
        path = tmp_path / "intro.json"
        save_json(instance_to_json(intro), str(path))
        return str(path)

    def test_converged_solve(self, intro_path, capsys):
        assert run("solve-fixedpoint", "--instance", intro_path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True and doc["reason"] == "found"
        eq = doc["equilibrium"]
        assert eq["mode"] == "exact"
        values = eq["prices"] + [x for row in eq["allocation"] for x in row]
        assert all(isinstance(x, str) and Fraction(x) >= 0 for x in values)
        assert sorted(doc) == ["converged", "equilibrium", "iterations", "reason"]

    def test_budget_exhaustion_exits_one(self, intro_path, capsys):
        assert run("solve-fixedpoint", "--instance", intro_path, "--max-iters", "0") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"converged": False, "equilibrium": None, "iterations": 0, "reason": "budget"}

    def test_negative_budget_is_usage_error(self, intro_path, capsys):
        assert run("solve-fixedpoint", "--instance", intro_path, "--max-iters", "-1") == 2
        assert "max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [("--trace",), ("--tol", "1e-7"), ("--damping", "0.5")]
    )
    def test_removed_flags_are_usage_errors(self, intro_path, flags):
        with pytest.raises(SystemExit) as exc:
            run("solve-fixedpoint", "--instance", intro_path, *flags)
        assert exc.value.code == 2


class TestSatCommands:
    def test_gen_sat(self, paths, capsys):
        assert run("gen-sat", "--cnf", paths["cnf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["kind"] == "sat-gadget"
        assert len(doc["instance"]["earning"]) == 14

    def test_equilibrium_readback_roundtrip(self, paths, tmp_path, capsys):
        gadget = tmp_path / "gadget.json"
        eq = tmp_path / "eq.json"
        assert run("gen-sat", "--cnf", paths["cnf"], "-o", str(gadget)) == 0
        assert (
            run(
                "sat-equilibrium",
                "--cnf",
                paths["cnf"],
                "--assignment",
                "101",
                "-o",
                str(eq),
            )
            == 0
        )
        assert (
            run(
                "sat-readback",
                "--instance",
                str(gadget),
                "--equilibrium",
                str(eq),
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["assignment"] == "101" and doc["satisfies"]

    def test_non_integer_literal_is_usage_error(self, tmp_path, capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 3 1\n1 x 3 0\n")
        assert run("gen-sat", "--cnf", str(cnf)) == 2
        assert "bad DIMACS integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["gen-sat"], ["sat-equilibrium", "--assignment", "100"]], ids=lambda a: a[0]
    )
    def test_clause_count_mismatch_is_usage_error(self, tmp_path, capsys, argv):
        cnf = tmp_path / "short.cnf"
        cnf.write_text("p cnf 3 2\n1 2 3 0\n")
        assert run(*argv, "--cnf", str(cnf)) == 2
        assert "declares 2 clauses, found 1" in capsys.readouterr().err

    def test_unsatisfying_assignment_exits_one(self, paths, capsys):
        assert (
            run("sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "000")
            == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"error": "assignment does not satisfy the formula"}

    @pytest.mark.parametrize(
        "assignment, message",
        [("10x", "bad assignment character 'x'"), ("10", "assignment length must match")],
    )
    def test_bad_assignment_is_usage_error(self, paths, capsys, assignment, message):
        argv = ["sat-equilibrium", "--cnf", paths["cnf"], "--assignment", assignment]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_gadget_parameters(self, paths, tmp_path, capsys):
        gadget, eq = tmp_path / "gadget.json", tmp_path / "eq.json"
        params = ["--eps", "1/5", "--eps-prime", "2/25", "--tau", "50"]
        assert run("gen-sat", "--cnf", paths["cnf"], *params, "-o", str(gadget)) == 0
        doc = json.loads(gadget.read_text())
        assert doc["metadata"]["params"] == {
            "eps": "1/5", "eps_prime": "2/25", "tau": "50/1", "gap": "1/30"
        }
        assert doc["instance"]["tau"] == "50/1"
        argv = ["sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "101", *params]
        assert run(*argv, "-o", str(eq)) == 0
        assert run("verify", "--instance", str(gadget), "--equilibrium", str(eq)) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        # The defaults build another market, where this equilibrium fails.
        assert run("gen-sat", "--cnf", paths["cnf"], "-o", str(gadget)) == 0
        assert run("verify", "--instance", str(gadget), "--equilibrium", str(eq)) == 1

    def test_readback_requires_metadata(self, paths, tmp_path, capsys):
        eq = tmp_path / "eq.json"
        run(
            "sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "111",
            "-o", str(eq),
        )
        assert (
            run(
                "sat-readback",
                "--instance",
                paths["warmup"],
                "--equilibrium",
                str(eq),
            )
            == 2
        )

    def test_bad_gadget_metadata_is_usage_error(self, paths, tmp_path, capsys):
        gadget = tmp_path / "gadget.json"
        eq = tmp_path / "eq.json"
        run("gen-sat", "--cnf", paths["cnf"], "-o", str(gadget))
        run("sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "111", "-o", str(eq))
        text = gadget.read_text()
        argv = ["sat-readback", "--instance", str(gadget), "--equilibrium", str(eq)]
        bad = json.loads(text)
        del bad["metadata"]["params"]["eps"]
        gadget.write_text(json.dumps(bad))
        assert run(*argv) == 2
        assert "eps" in capsys.readouterr().err
        # A float variable count and a bool literal are not JSON integers.
        for field, value in (("num_vars", 3.0), ("clauses", [[True, -2, 3]])):
            bad = json.loads(text)
            bad["metadata"]["formula"][field] = value
            gadget.write_text(json.dumps(bad))
            assert run(*argv) == 2
            assert "not an integer" in capsys.readouterr().err

    def test_expand_equal_earnings(self, paths, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        from choremarket.model import fixed_earnings_instance

        save_json(
            instance_to_json(fixed_earnings_instance(10, [[1], [2]], [2, 1])),
            str(inst),
        )
        assert run("expand-equal-earnings", "--instance", str(inst)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groups"] == [[0, 1], [2]]


#: A JSON integer past float range: converting it to float overflows.
HUGE = 10**400


def _gadget_and_candidate(paths, tmp_path, doc):
    """GAME2's gadget, and a candidate file holding ``doc(m, n)`` for its
    ``m`` chores and ``n`` agents."""
    gadget = tmp_path / "pm.json"
    assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
    rows = json.loads(gadget.read_text())["instance"]["disutility"]
    eq = tmp_path / "eq.json"
    eq.write_text(json.dumps(doc(len(rows[0]), len(rows))))
    return str(gadget), str(eq)


def _huge_exact_price(m, n):
    return {"mode": "exact", "prices": ["1e400"] + ["1"] * (m - 1), "allocation": [["0"] * m] * n}


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check-conditions", "--instance"], b'{"variant": "\xff"}'),
        (["gen-sat", "--cnf"], b"p cnf 3 1\n1 2 3 0 \xff\n"),
    ],
    ids=["json", "cnf"],
)
def test_non_utf8_input_is_usage_error(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    path.write_bytes(text)
    assert run(*argv, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: 'utf-8' codec")


def test_huge_json_integer_is_usage_error(tmp_path, capsys):
    # Past the interpreter's 4,300-digit limit, json.load raises ValueError.
    game = tmp_path / "game.json"
    game.write_text('{"n": ' + "9" * 5000 + ', "payoff": []}')
    assert run("gen-polymatrix", "--game", str(game)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f" (reading {game})\n")


@pytest.mark.parametrize("bad", ["instance", "equilibrium"])
def test_unreadable_input_names_its_file(paths, tmp_path, capsys, bad):
    files = {"instance": paths["warmup"], "equilibrium": str(tmp_path / "eq.json")}
    Path(files["equilibrium"]).write_text(
        json.dumps({"prices": ["1", "1"], "allocation": [["1", "0"], ["0", "1"]]})
    )
    argv = ["verify", "--instance", files["instance"], "--equilibrium", files["equilibrium"]]
    assert run(*argv) == 0
    capsys.readouterr()
    Path(files[bad]).write_text('{"prices": [')
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f" (reading {files[bad]})\n")


def _edit_first_entry(doc):
    """Raise the first earning (SAT) or endowment entry (polymatrix) of a
    gadget file's market to 1000."""
    inst = doc["instance"]
    (inst["earning"] if "earning" in inst else inst["endowment"][0])[0] = "1000/1"


class TestGadgetFiles:
    """Both reductions read their files through one codec: a file must hold
    the market its metadata builds."""

    @staticmethod
    def _file(paths, tmp_path, kind):
        """A generated gadget file of ``kind``, its library reader, and the
        argv of the command that checks it."""
        gadget = tmp_path / "gadget.json"
        if kind == "sat-gadget":
            eq = tmp_path / "eq.json"
            assert run("gen-sat", "--cnf", paths["cnf"], "-o", str(gadget)) == 0
            argv = ["sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "111"]
            assert run(*argv, "-o", str(eq)) == 0
            argv = ["sat-readback", "--instance", str(gadget), "--equilibrium", str(eq)]
            return gadget, sat_reduction.gadget_from_json, argv
        assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
        return gadget, polymatrix.gadget_from_json, ["check-gadget", "--instance", str(gadget)]

    @pytest.mark.parametrize("kind", ["sat-gadget", "polymatrix-gadget"])
    @pytest.mark.parametrize(
        "tamper, error, message",
        [
            (_edit_first_entry, NotGadget, "instance differs from the market its metadata builds"),
            (lambda doc: doc.pop("instance"), NotGadget, "instance differs"),
            (lambda doc: doc["metadata"].pop("params"), Malformed, "metadata missing field 'params'"),
        ],
        ids=["edited-entry", "no-instance", "no-params"],
    )
    def test_file_must_hold_its_market(
        self, paths, tmp_path, capsys, kind, tamper, error, message
    ):
        gadget, read, argv = self._file(paths, tmp_path, kind)
        assert run(*argv) == 0
        doc = json.loads(gadget.read_text())
        tamper(doc)
        with pytest.raises(Malformed, match=message) as excinfo:
            read(doc)
        assert excinfo.type is error
        if error is Malformed:  # the message names the file's kind
            assert str(excinfo.value).startswith(f"{kind} metadata missing field")
        capsys.readouterr()
        gadget.write_text(json.dumps(doc))
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestPolymatrixCommands:
    def test_gen_check_recover(self, paths, tmp_path, capsys):
        gadget = tmp_path / "pm.json"
        assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
        assert run("check-gadget", "--instance", str(gadget)) == 0
        capsys.readouterr()

        doc = json.loads(gadget.read_text())
        assert doc["metadata"]["params"]["K"] == 8

    def test_recover_strategy(self, paths, tmp_path, capsys):
        gadget, eq = tmp_path / "pm.json", str(tmp_path / "eq.json")
        assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
        cand = synthetic_endpoint_prices(build_polymatrix_gadget(GAME2), (1, -1))
        save_json(candidate_to_json(cand), eq)
        argv = ["recover-strategy", "--instance", str(gadget), "--equilibrium", eq]
        assert run(*argv) == 0
        assert json.loads(capsys.readouterr().out) == {"x": [1.0, 0.0, 0.0, 1.0]}
        prices = list(cand.prices)
        prices[0] *= 2  # the first layer-1 pair rescales every other price
        save_json(candidate_to_json(replace(cand, prices=prices)), eq)
        assert run(*argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["error"] and doc["error"].startswith("top-layer price")

    def test_exact_chain_on_k2_gadget(self, tmp_path, capsys):
        """An exact equilibrium's strategy is written as "num/den" weights,
        and ``verify-polymatrix --slack 0`` reads them back exactly: on a
        ray that passes and on one that fails, its verdict is the library's."""
        g, equilibria = k2_equilibria()
        gadget, game, eq, strategy = (
            str(tmp_path / name) for name in ("k2.json", "game.json", "eq.json", "x.json")
        )
        save_json(polymatrix.gadget_to_json(g), gadget)
        save_json(game_to_json(GAME2), game)
        verdicts = {}
        for e in equilibria:
            x = polymatrix.recover_strategy(g, e.candidate)
            verdict = polymatrix.verify_polymatrix_equilibrium(GAME2, x)
            verdicts.setdefault(verdict.ok, (e.candidate, x, verdict))
        assert sorted(verdicts) == [False, True]
        for cand, x, verdict in verdicts.values():
            save_json(candidate_to_json(cand), eq)
            argv = ["recover-strategy", "--instance", gadget, "--equilibrium", eq]
            assert run(*argv, "-o", strategy) == 0
            weights = json.loads(Path(strategy).read_text())["x"]
            assert weights == [f"{v.numerator}/{v.denominator}" for v in x]
            argv = ["verify-polymatrix", "--game", game, "--strategy", strategy, "--slack", "0"]
            assert run(*argv) == (0 if verdict.ok else 1)
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"ok": verdict.ok, "violations": list(verdict.violations)}

    def test_verify_polymatrix(self, paths, tmp_path, capsys):
        strategy = tmp_path / "x.json"
        strategy.write_text(json.dumps({"x": [1.0, 0.0, 1.0, 0.0]}))
        code = run(
            "verify-polymatrix",
            "--game",
            paths["game"],
            "--strategy",
            str(strategy),
        )
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1) and doc["ok"] == (code == 0)

    def test_short_candidate_is_usage_error(self, paths, tmp_path, capsys):
        # Two prices against the gadget's 32 chores.
        gadget, eq = _gadget_and_candidate(
            paths, tmp_path, lambda m, n: {"prices": ["1", "1"], "allocation": [["0", "0"]] * n}
        )
        for command in ("check-gadget", "recover-strategy"):
            assert run(command, "--instance", gadget, "--equilibrium", eq) == 2
            assert "candidate shape" in capsys.readouterr().err

    def test_bad_strategy_and_game_are_usage_errors(self, paths, tmp_path, capsys):
        strategy = tmp_path / "x.json"
        argv = ["verify-polymatrix", "--game", paths["game"], "--strategy", str(strategy)]
        # No "x", and an "x" that is a string rather than an array of weights.
        for doc in ({"y": [1.0, 0.0]}, {"x": "1010"}):
            strategy.write_text(json.dumps(doc))
            assert run(*argv) == 2
        strategy.write_text(json.dumps([1.0, 0.0, 1.0, 0.0]))
        assert run(*argv) == 2
        assert "strategy document must be a JSON object" in capsys.readouterr().err
        doc = json.loads(Path(paths["game"]).read_text())
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"n": "two", "payoff": []}))
        assert run("gen-polymatrix", "--game", str(game)) == 2
        # A size must be a JSON integer, never truncated or parsed.
        for n in (2.7, 2.0, "2", True):
            game.write_text(json.dumps(dict(doc, n=n)))
            assert run("gen-polymatrix", "--game", str(game)) == 2


class TestNonFiniteFloats:
    """NaN and infinite numbers, and bools, are bad input, never a passing
    check or a traceback.  A number past float range is bad input in a float
    candidate only: exact candidates and strategy weights are read as the
    rationals they are, and checked."""

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), "nan", "-inf", pytest.param(HUGE, id="huge-int"), True]
    )
    def test_verify(self, paths, tmp_path, capsys, bad):
        eq = tmp_path / "eq.json"
        doc = {"mode": "float", "prices": [bad, bad], "allocation": [[bad, bad]] * 2}
        eq.write_text(json.dumps(doc))
        argv = ["verify", "--instance", paths["warmup"], "--equilibrium", str(eq)]
        assert run(*argv) == 2
        assert capsys.readouterr().out == ""

    def test_recover_strategy(self, paths, tmp_path, capsys):
        def nan_float_price(m, n):
            return {"mode": "float", "prices": [float("nan")] * m, "allocation": [[0.0] * m] * n}

        gadget, eq = _gadget_and_candidate(paths, tmp_path, nan_float_price)
        argv = ["recover-strategy", "--instance", gadget, "--equilibrium", eq]
        assert run(*argv) == 2
        assert capsys.readouterr().out == ""
        # Rescaled by the huge first price, the top-layer prices are near zero.
        gadget, eq = _gadget_and_candidate(paths, tmp_path, _huge_exact_price)
        assert run("recover-strategy", "--instance", gadget, "--equilibrium", eq) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["error"] and doc["error"].startswith("top-layer price ")

    def test_check_gadget(self, paths, tmp_path, capsys):
        gadget, eq = _gadget_and_candidate(paths, tmp_path, _huge_exact_price)
        assert run("check-gadget", "--instance", gadget, "--equilibrium", eq) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["price-equality"]["ok"]

    @pytest.mark.parametrize(
        "bad, code",
        [
            pytest.param(float("nan"), 2, id="nan"),
            pytest.param(float("inf"), 2, id="inf"),
            pytest.param("1e400", 1, id="huge-literal"),
            pytest.param(HUGE, 1, id="huge-int"),
            pytest.param(True, 2, id="True"),
            pytest.param(False, 2, id="False"),
        ],
    )
    def test_verify_polymatrix(self, paths, tmp_path, capsys, bad, code):
        strategy = tmp_path / "x.json"
        strategy.write_text(json.dumps({"x": [bad] * 4}))
        argv = ["verify-polymatrix", "--game", paths["game"], "--strategy", str(strategy)]
        assert run(*argv) == code
        out = capsys.readouterr().out
        if code == 2:
            assert out == ""
        else:  # a huge weight is read exactly, and its pair sums to 2 * 10**400
            assert json.loads(out)["violations"][0] == f"pair 0 weights sum to {2 * HUGE}, not 1"


class TestToleranceFlags:
    """A tolerance must be finite and nonnegative: with NaN every comparison
    is false, so a failing input would pass."""

    BAD = ["nan", "inf", "-0.5", "x"]

    @staticmethod
    def usage_error(*argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        return exc.value.code == 2

    @pytest.fixture
    def zero_allocation(self, tmp_path):
        eq = tmp_path / "eq.json"
        eq.write_text(
            json.dumps({"mode": "float", "prices": [1.0, 1.0], "allocation": [[0.0] * 2] * 2})
        )
        return str(eq)

    @pytest.fixture
    def gadget(self, paths, tmp_path):
        """GAME2's gadget and a candidate with out-of-band prices [1, 5, 5, ...]."""
        gadget = tmp_path / "pm.json"
        assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
        rows = json.loads(gadget.read_text())["instance"]["disutility"]
        m = len(rows[0])
        eq = tmp_path / "band.json"
        eq.write_text(
            json.dumps(
                {
                    "mode": "float",
                    "prices": [1.0] + [5.0] * (m - 1),
                    "allocation": [[0.0] * m for _ in rows],
                }
            )
        )
        return str(gadget), str(eq)

    @pytest.mark.parametrize("flag", ["--tol-mpb", "--tol-clearing"])
    @pytest.mark.parametrize("bad", BAD)
    def test_verify(self, paths, zero_allocation, capsys, flag, bad):
        argv = ["verify", "--instance", paths["warmup"], "--equilibrium", zero_allocation]
        assert run(*argv) == 1
        capsys.readouterr()
        assert self.usage_error(*argv, flag, bad)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", BAD)
    def test_check_gadget(self, gadget, capsys, bad):
        argv = ["check-gadget", "--instance", gadget[0]]
        assert run(*argv) == 0
        capsys.readouterr()
        assert self.usage_error(*argv, "--tol", bad)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", BAD)
    def test_recover_strategy(self, gadget, capsys, bad):
        argv = ["recover-strategy", "--instance", gadget[0], "--equilibrium", gadget[1]]
        assert run(*argv) == 1
        capsys.readouterr()
        assert self.usage_error(*argv, "--tol", bad)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", BAD)
    def test_verify_polymatrix(self, paths, tmp_path, capsys, bad):
        strategy = tmp_path / "x.json"
        strategy.write_text(json.dumps({"x": [5, 5, 5, 5]}))
        argv = ["verify-polymatrix", "--game", paths["game"], "--strategy", str(strategy)]
        assert run(*argv) == 1
        capsys.readouterr()
        assert self.usage_error(*argv, "--slack", bad)
        assert capsys.readouterr().out == ""

    def test_zero_and_finite_tolerances_are_accepted(self, paths, zero_allocation):
        argv = ["verify", "--instance", paths["warmup"], "--equilibrium", zero_allocation]
        assert run(*argv, "--tol-mpb", "0", "--tol-clearing", "1e-3") == 1


class TestStringsAreNotArrays:
    """A JSON string where an array belongs is bad input, never read one
    character per entry.  Each case writes one field of a document the
    command accepts as a string."""

    @staticmethod
    def _assert_rejected(argv, path, doc, capsys):
        capsys.readouterr()
        Path(path).write_text(json.dumps(doc))
        assert run(*argv) == 2
        assert "must be a JSON array" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, text", [("prices", "11"), ("allocation", ["10", "01"])]
    )
    def test_verify_candidate(self, paths, tmp_path, capsys, field, text):
        eq = tmp_path / "eq.json"
        doc = {"prices": ["1", "1"], "allocation": [["1", "0"], ["0", "1"]]}
        argv = ["verify", "--instance", paths["warmup"], "--equilibrium", str(eq)]
        eq.write_text(json.dumps(doc))
        assert run(*argv) == 0
        self._assert_rejected(argv, eq, dict(doc, **{field: text}), capsys)

    @pytest.mark.parametrize(
        "name, field, text",
        [
            ("warmup", "disutility", ["13", [None, "1"]]),
            ("warmup", "earning", "11"),
            ("warmup", "supply", "11"),
            ("example1", "endowment", ["11", "11"]),
        ],
    )
    def test_enumerate_instance(self, paths, tmp_path, capsys, name, field, text):
        inst = tmp_path / "inst.json"
        doc = json.loads(Path(paths[name]).read_text())
        self._assert_rejected(
            ["enumerate", "--instance", str(inst)], inst, dict(doc, **{field: text}), capsys
        )

    def test_gen_polymatrix_payoff(self, paths, tmp_path, capsys):
        game = tmp_path / "bad_game.json"
        doc = json.loads(Path(paths["game"]).read_text())
        doc["payoff"][0] = "1010"
        self._assert_rejected(["gen-polymatrix", "--game", str(game)], game, doc, capsys)

    @pytest.mark.parametrize("field", ["alpha", "delta"])
    def test_check_gadget_params(self, paths, tmp_path, capsys, field):
        gadget = tmp_path / "pm.json"
        assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
        doc = json.loads(gadget.read_text())
        doc["metadata"]["params"][field] = "1"
        self._assert_rejected(["check-gadget", "--instance", str(gadget)], gadget, doc, capsys)

    def test_sat_readback_clauses(self, paths, tmp_path, capsys):
        gadget = tmp_path / "gadget.json"
        eq = tmp_path / "eq.json"
        assert run("gen-sat", "--cnf", paths["cnf"], "-o", str(gadget)) == 0
        assert run(
            "sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "111", "-o", str(eq)
        ) == 0
        doc = json.loads(gadget.read_text())
        doc["metadata"]["formula"]["clauses"][0] = "123"
        argv = ["sat-readback", "--instance", str(gadget), "--equilibrium", str(eq)]
        self._assert_rejected(argv, gadget, doc, capsys)


# Planted 6-variable, 8-clause formula, satisfied by 101100: clauses with
# one, two and three true literals, and an all-negated one.
PLANTED = (
    "p cnf 6 8\n1 2 3 0\n-2 4 5 0\n-1 -3 4 0\n1 -5 -6 0\n"
    "2 -5 6 0\n-1 -4 -6 0\n3 4 -2 0\n-5 -6 -2 0\n"
)

#: sha256 of every ``-o`` file of the gadget pipelines below.  These bytes
#: are part of the CLI contract; a change to them must be deliberate.
GADGET_OUTPUT_SHA256 = {
    "sat.gadget.json": "6b84ecde7a4b29e2df169abac7e143ee9b846b816c1cb25e4f3394237bd9ee68",
    "sat.eq.json": "c77f87e64dc59799fb7d680ee71d1caa863ab31749af4a1e1682c7c0bf6fd5cc",
    "sat.verify.json": "384da9dfe0c34454230253aceb01d6b42eb312e0238c6d6de641ce05de833532",
    "sat.readback.json": "65ceaa3b8f569473f789652f6b7cf7ce96bac5f16743c56fa54d87ced75b5f02",
    "game2.gadget.json": "16a7d71d06c9a2302f50cf7dad8bbc293ff7fb1d81b177d7833e10f2506f2b9d",
    "game2.check.json": "d40e6cc85fdd7d9a8c06ce799b17ac0c15d304ea6b34e3acb8ff3afd5ba4e7d0",
    "sat.params.gadget.json": "e83ed0a73426d22c6bd6f9d91a0f338ca8cd51c5b96a8c1a0394e322489fb4b1",
    "sat.params.eq.json": "bd1a08c6ffb694320d18cf3dd9d5040245c519ce08b06234d77888f61b8354b9",
    "game2.strategy.json": "78d4f753b5276511dfa1e5017fa6fae17661dbafc0faf63e531d2115d2015f5c",
}


class TestGadgetOutputBytes:
    def test_outputs_are_pinned(self, tmp_path):
        cnf = tmp_path / "planted.cnf"
        cnf.write_text(PLANTED)
        game = tmp_path / "game2.json"
        save_json(game_to_json(GAME2), str(game))
        endpoints = tmp_path / "endpoints.json"
        cand = synthetic_endpoint_prices(build_polymatrix_gadget(GAME2), (1, -1))
        save_json(candidate_to_json(cand), str(endpoints))

        def out(name):
            return str(tmp_path / name)

        gadget, eq = out("sat.gadget.json"), out("sat.eq.json")
        pm = out("game2.gadget.json")
        params = ["--eps", "1/5", "--eps-prime", "2/25", "--tau", "50"]
        for argv in (
            ["gen-sat", "--cnf", str(cnf), "-o", gadget],
            ["sat-equilibrium", "--cnf", str(cnf), "--assignment", "101100", "-o", eq],
            ["gen-sat", "--cnf", str(cnf), *params, "-o", out("sat.params.gadget.json")],
            ["sat-equilibrium", "--cnf", str(cnf), "--assignment", "101100", *params,
             "-o", out("sat.params.eq.json")],
            ["verify", "--instance", gadget, "--equilibrium", eq, "-o", out("sat.verify.json")],
            ["sat-readback", "--instance", gadget, "--equilibrium", eq,
             "-o", out("sat.readback.json")],
            ["gen-polymatrix", "--game", str(game), "-o", pm],
            ["check-gadget", "--instance", pm, "--equilibrium", str(endpoints),
             "-o", out("game2.check.json")],
            ["recover-strategy", "--instance", pm, "--equilibrium", str(endpoints),
             "-o", out("game2.strategy.json")],
        ):
            assert run(*argv) == 0, argv
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GADGET_OUTPUT_SHA256
        }
        assert digests == GADGET_OUTPUT_SHA256


#: sha256 of the ``-o`` file of each report run below: condition reports on
#: a passing market, on every witness kind and on a condition-2 failure,
#: enumeration at two epsilons, the agent groups of an expansion, an exact
#: strategy recovery and a passing and a failing strategy check.
REPORT_OUTPUT_SHA256 = {
    "conditions.intro.json": "7fd32b821a9c73e6e2601c82987d3418b99a2ab427355924e3b27917c0fa3716",
    "conditions.uncovered.json": "4db2418da98d7354c081df11c1793655b37852578d4b8e1893956c95a1ce7d81",
    "conditions.isolated.json": "3fcbb1f893325d31eafc64e5d5eff41bb71404234179879e5660d6162603534c",
    "conditions.example1.json": "ad4ddc652e9022881e606dcb6a21726c5f3711ce484ecc26afc449a231a04ec8",
    "conditions.example2.json": "615bbc60fd6db20114528d3474a1241daeddcda0c39924ac5f9bfe403c8a39b2",
    "enumerate.warmup.json": "319828a4c9b50d07aaf4bf93264d3fa707ae72e27ac9860556daa626138a7de2",
    "enumerate.warmup.eps.json": "c596c3c7bb13b07b92c477e702c5d901c7dafba6c4c4a207aa851a33d3ed46be",
    "expand.warmup.json": "8ab20c6cd180e01cd961347dabcedcd132460a3a27ae55f348d0a3c60b5bd77e",
    "game2.exact.strategy.json": "d9d3749fa861a7e008c825246cb89827cd8d9c7acb830d0510ce281cc0b07223",
    "strategy.pass.json": "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c",
    "strategy.fail.json": "4dff2d8b43bc17c1b69097e0cd6eed9d3f9b7bc17946e0d311dbafb3e1ff8f73",
}


class TestReportOutputBytes:
    def test_outputs_are_pinned(self, paths, intro, tmp_path):
        def out(name):
            return str(tmp_path / name)

        def market(name, inst):
            save_json(instance_to_json(inst), out(f"{name}.market.json"))
            return out(f"{name}.market.json")

        pm, endpoints = out("game2.gadget.json"), out("endpoints.json")
        cand = synthetic_endpoint_prices(build_polymatrix_gadget(GAME2), (1, -1), mode="exact")
        save_json(candidate_to_json(cand), endpoints)
        assert run("gen-polymatrix", "--game", paths["game"], "-o", pm) == 0
        conditions = {
            "intro": market("intro", intro),
            "uncovered": market("uncovered", fixed_earnings_instance(10, [[1, None]], [1])),
            "isolated": market("isolated", fixed_earnings_instance(10, [[1], [None]], [1, 1])),
            "example1": paths["example1"],
            "example2": paths["example2"],
        }
        strategies = {"pass": [1, 0, 1, 0], "fail": ["1", "0", "0", "1"]}
        runs = [
            (f"conditions.{name}.json", ["check-conditions", "--instance", path])
            for name, path in conditions.items()
        ]
        runs += [
            ("enumerate.warmup.json", ["enumerate", "--instance", paths["warmup"]]),
            ("enumerate.warmup.eps.json",
             ["enumerate", "--instance", paths["warmup"], "--epsilon", "1/10"]),
            ("expand.warmup.json", ["expand-equal-earnings", "--instance", paths["warmup"]]),
            ("game2.exact.strategy.json",
             ["recover-strategy", "--instance", pm, "--equilibrium", endpoints]),
        ]
        for name, x in strategies.items():
            save_json({"x": x}, out(f"x.{name}.json"))
            runs.append((f"strategy.{name}.json",
                         ["verify-polymatrix", "--game", paths["game"],
                          "--strategy", out(f"x.{name}.json")]))
        exits = {name: run(*argv, "-o", out(name)) for name, argv in runs}
        assert [name for name, code in exits.items() if code == 0] == [
            "conditions.intro.json",
            "enumerate.warmup.json",
            "enumerate.warmup.eps.json",
            "expand.warmup.json",
            "game2.exact.strategy.json",
            "strategy.pass.json",
        ]
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in REPORT_OUTPUT_SHA256
        }
        assert digests == REPORT_OUTPUT_SHA256


@pytest.mark.parametrize("command", ["enumerate", "verify", "gen-sat", "gen-polymatrix"])
def test_stdout_is_the_output_file(paths, tmp_path, capsys, command):
    # One writer: a command prints the bytes it writes to its -o file.
    eq = tmp_path / "eq.json"
    assert run("enumerate", "--instance", paths["warmup"], "-o", str(eq)) == 0
    save_json(json.loads(eq.read_text())["equilibria"][0]["equilibrium"], str(eq))
    argv = {
        "enumerate": ["enumerate", "--instance", paths["warmup"]],
        "verify": ["verify", "--instance", paths["warmup"], "--equilibrium", str(eq)],
        "gen-sat": ["gen-sat", "--cnf", paths["cnf"]],
        "gen-polymatrix": ["gen-polymatrix", "--game", paths["game"]],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert run(*argv, "-o", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("ascii") and printed.count("\n") > 5
