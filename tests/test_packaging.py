"""Package hygiene: importing it loads nothing outside the standard library,
and no module keeps an import or a definition it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


#: Fails, naming the packages, when ``import choremarket`` loads a module
#: from outside the standard library and the package itself, numpy included.
IMPORT_CHECK = """
import sys
before = set(sys.modules)
import choremarket
roots = {m.partition(".")[0] for m in set(sys.modules) - before}
foreign = sorted(roots - sys.stdlib_module_names - {"choremarket"})
assert not foreign, foreign
"""


#: The public API: ``choremarket.__all__``, in order.
PUBLIC_API = [
    "ChoreMarketError",
    "EXACT",
    "EXCHANGE",
    "FIXED_EARNINGS",
    "FLOAT",
    "INFINITE",
    "EquilibriumCandidate",
    "Instance",
    "agent_budget",
    "chore_supply",
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


def test_public_api_is_pinned_and_resolves():
    import choremarket

    assert choremarket.__all__ == PUBLIC_API
    missing = [name for name in PUBLIC_API if not hasattr(choremarket, name)]
    assert not missing, missing


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_no_unused_imports():
    unused = []
    for path in sorted((SRC / "choremarket").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_no_unreferenced_public_definitions():
    # A top-level function or class must be used somewhere in the package, by
    # name or as an attribute, or, when public, be exported in ``__all__``.
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in (SRC / "choremarket").glob("*.py")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {
        name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
        for name in ast.literal_eval(node.value)
    }
    unused = [
        f"{filename}:{node.lineno} {node.name}"
        for filename, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in (used if node.name.startswith("_") else exported | used)
    ]
    assert not unused, unused


def test_module_entry_point(warmup, tmp_path):
    # ``python -m choremarket.cli`` exits with main's code and writes its document.
    from choremarket.cli import main
    from choremarket.model import instance_to_json, save_json

    market, missing = str(tmp_path / "warmup.json"), str(tmp_path / "missing.json")
    save_json(instance_to_json(warmup), market)

    def module(*argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, "-m", "choremarket.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    # warmup fails condition 1, so both exit 1 with the same document.
    proc = module("check-conditions", "--instance", market, "-o", str(tmp_path / "module.json"))
    assert proc.returncode == 1, proc.stderr
    assert main(["check-conditions", "--instance", market, "-o", str(tmp_path / "main.json")]) == 1
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()
    proc = module("check-conditions", "--instance", missing, "-o", str(tmp_path / "none.json"))
    assert proc.returncode == 2 and "missing.json" in proc.stderr
    assert not (tmp_path / "none.json").exists()
