"""Command-line interface: exit codes, JSON round trips, determinism."""

import json
from fractions import Fraction

import pytest

from choremarket.cli import main
from choremarket.model import (
    instance_to_json,
    save_json,
)
from choremarket.polymatrix import PolymatrixGame, game_to_json

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

    def test_negative_cap_is_usage_error(self, paths, capsys):
        assert run("enumerate", "--instance", paths["warmup"], "--cap", "-1") == 2
        assert "cap must be nonnegative" in capsys.readouterr().err

    def test_determinism(self, paths, capsys):
        run("enumerate", "--instance", paths["warmup"])
        first = capsys.readouterr().out
        run("enumerate", "--instance", paths["warmup"])
        assert capsys.readouterr().out == first


class TestSolve:
    def test_condition_failure_exits_one(self, paths, capsys):
        assert run("solve-fixedpoint", "--instance", paths["example1"]) == 1
        assert "error" in json.loads(capsys.readouterr().out)

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
        assert doc["residual"] == 0.0
        assert doc["trace"] == []

    def test_budget_exhaustion_exits_one(self, intro_path, capsys):
        assert run("solve-fixedpoint", "--instance", intro_path, "--max-iters", "0") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False and doc["reason"] == "budget"
        assert doc["equilibrium"] is None and doc["residual"] is None

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

    def test_unsatisfying_assignment_exits_one(self, paths, capsys):
        assert (
            run("sat-equilibrium", "--cnf", paths["cnf"], "--assignment", "000")
            == 1
        )

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
        doc = json.loads(gadget.read_text())
        del doc["metadata"]["params"]["eps"]
        gadget.write_text(json.dumps(doc))
        argv = ["sat-readback", "--instance", str(gadget), "--equilibrium", str(eq)]
        assert run(*argv) == 2
        assert "eps" in capsys.readouterr().err

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


class TestPolymatrixCommands:
    def test_gen_check_recover(self, paths, tmp_path, capsys):
        gadget = tmp_path / "pm.json"
        assert run("gen-polymatrix", "--game", paths["game"], "-o", str(gadget)) == 0
        assert run("check-gadget", "--instance", str(gadget)) == 0
        capsys.readouterr()

        doc = json.loads(gadget.read_text())
        assert doc["metadata"]["params"]["K"] == 8

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

    def test_bad_strategy_and_game_are_usage_errors(self, paths, tmp_path):
        strategy = tmp_path / "x.json"
        strategy.write_text(json.dumps({"y": [1.0, 0.0]}))
        argv = ["verify-polymatrix", "--game", paths["game"], "--strategy", str(strategy)]
        assert run(*argv) == 2
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"n": "two", "payoff": []}))
        assert run("gen-polymatrix", "--game", str(game)) == 2
