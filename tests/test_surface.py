"""The package keeps only code that runs: every module-level function and
class of src/tripsolve is used in the package outside its own definition,
used by perfbench, or exported in tripsolve.__all__. Oracles that only the
tests need live in tests/ (graph_reference.py, astar_reference.py)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tripsolve

ROOT = Path(__file__).resolve().parents[1]


def used_names(node: ast.AST) -> set[str]:
    """The names node reads: identifiers, attribute names, and whole string
    constants, since perfbench's tracer patches module attributes by name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_package_definition_has_a_caller():
    statements = [
        (path.name, node)
        for path in sorted((ROOT / "src" / "tripsolve").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [used_names(node) for _, node in statements]
    outside = set(tripsolve.__all__)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= used_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{module}: {node.name}"
        for k, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in outside
        and not any(node.name in names for at, names in enumerate(reads) if at != k)
    ]
    assert unused == []


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about 17 MB of RSS, so only a relaxed start loads
    # it; a fresh interpreter, since other tests load it in this one
    code = "import sys, tripsolve, tripsolve.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"


def scipy_loaded_after(code: str, cwd: Path) -> set[str]:
    """The scipy modules a fresh interpreter has loaded once code has run."""
    code += "\nimport sys; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.splitlines()[-1].split())


def test_only_the_control_problems_load_scipy(tmp_path):
    # the solvers need numpy alone, and the first scipy submodule adds 27 to
    # 30 MB of RSS, so the package, the CLI's solver commands and bench load
    # none of scipy; each problem builder loads only what its closures use
    cli_run = """
import json
import tripsolve, tripsolve.cli
def run(*argv):
    assert tripsolve.cli.main(list(argv)) == 0, argv
run("gen-random", "--n", "6", "--m", "5", "--delta", "4", "--alpha", "0.5",
    "--seed", "1", "--out", "random.json")
run("gen-knapsack", "--values", "3,4", "--weights", "2,3", "--budget", "4",
    "--out", "knapsack.json")
for name in ("random.json", "knapsack.json"):
    for solver in ("topo", "astar", "oracle"):
        run("solve", name, "--solver", solver)
with open("trace.jsonl", "w") as fh:
    for name in ("random.json", "knapsack.json"):
        with open(name) as inst:
            fh.write(json.dumps({"kind": "step", "instance": json.load(inst)}) + "\\n")
run("bench", "trace.jsonl", "--solvers", "topo,astar,oracle", "--out", "bench.csv")
"""
    assert scipy_loaded_after(cli_run, tmp_path) == set()
    heat = scipy_loaded_after(
        "from tripsolve.slip import make_heat_problem; make_heat_problem(8)", tmp_path
    )
    assert "scipy.linalg" in heat and "scipy.fft" not in heat
    signal = scipy_loaded_after(
        "from tripsolve.slip import make_signal_problem; make_signal_problem(8, 0, 64)",
        tmp_path,
    )
    assert {"scipy.fft", "scipy.special"} <= signal and "scipy.linalg" not in signal
