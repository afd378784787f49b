"""Module dependency rules that keep the ground truth independent."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import cellplace

PACKAGE = Path(cellplace.__file__).resolve().parent


def _sibling(dotted: str) -> str:
    """Module name within the package of an absolute cellplace[.x] name."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def _package_imports(module: str) -> set[str]:
    """Sibling modules that cellplace/<module>.py imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found.update(alias.name for alias in node.names)
            elif node.module == "cellplace":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "cellplace":
                found.add(_sibling(node.module))
        elif isinstance(node, ast.Import):
            found.update(_sibling(alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "cellplace")
    return found


def _reachable_imports(module: str) -> set[str]:
    """Sibling modules that cellplace/<module>.py reaches through imports."""
    found, todo = set(), [module]
    while todo:
        for name in _package_imports(todo.pop()) - found:
            found.add(name)
            todo.append(name)
    return found


def test_oracle_depends_on_kinematics_only():
    # the oracle validates the optimizer, so it must never reach nlp or
    # solver, not even through the modules it imports
    assert _package_imports("oracle") <= {"errors", "geometry", "kinematics"}
    assert _reachable_imports("oracle") <= {"errors", "geometry", "kinematics"}


def test_solver_depends_on_errors_only():
    # the SQP is generic: it must never reach the placement program
    assert _package_imports("solver") <= {"errors"}


def _scipy_imports(node) -> list[ast.stmt]:
    """Import statements of scipy (or a scipy submodule) under node."""
    return [stmt for stmt in ast.walk(node)
            if isinstance(stmt, ast.Import) and any(
                alias.name.split(".")[0] == "scipy" for alias in stmt.names)
            or isinstance(stmt, ast.ImportFrom) and not stmt.level
            and (stmt.module or "").split(".")[0] == "scipy"]


def test_scipy_is_imported_inside_one_solver_function():
    # importing the package must not load scipy: only the QP needs it, so
    # solver.py imports it inside one function and no module does at import
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        everywhere = _scipy_imports(tree)
        inside = {}  # statement id -> name of the innermost function
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside.update((id(stmt), node.name)
                              for stmt in _scipy_imports(node))
        assert len(inside) == len(everywhere), \
            f"{path.name} imports scipy at module level"
        if inside:
            functions[path.stem] = set(inside.values())
    assert functions == {"solver": {"_load_lapack"}}


_FRESH_RUN = """
import io, sys
import numpy as np
from cellplace import solver
from cellplace.cli import main

def scipy_loaded():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy")

assert not scipy_loaded(), scipy_loaded()
for argv in (["check", SCENE, "--placement", "900,420,180,0,0,0"],
             ["ik", "--pose", "525,0,890,180,-90,0"]):
    out = io.StringIO()
    assert main(argv, out=out) in (0, 1), argv
    assert out.getvalue(), argv
    assert not scipy_loaded(), (argv, scipy_loaded())

b0 = np.array([4.0, 2.0])
active = solver._ActiveSet(solver.DampedBfgs(b0).compact(), np.ones(2, bool),
                           np.zeros(2), 0)
active.rebuild()
assert "scipy.linalg" in sys.modules
v = np.array([1.0, -2.0])
assert np.allclose(active.directions(v)[1], v / b0, atol=1e-15)
print("ok")
"""


def test_scipy_loads_with_the_first_active_set():
    # a fresh interpreter, so no earlier test has loaded scipy: the commands
    # that run no QP leave it unloaded, and the QP's active set, built
    # directly as the solver tests do, loads it on its own
    root = PACKAGE.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = f"SCENE = {str(root / 'scenes' / 'demo.json')!r}\n{_FRESH_RUN}"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
