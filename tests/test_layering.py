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


def test_no_module_imports_scipy():
    # numpy is the package's one runtime dependency, so the process loads
    # one BLAS and one thread pool
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                names = [stmt.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), \
                f"{path.name} imports scipy"


_FRESH_RUN = """
import io, sys
from cellplace.cli import main

for argv in (["solve", SCENE, "--multistart", "1"],
             ["check", SCENE, "--placement", "900,420,180,0,0,0"]):
    out = io.StringIO()
    assert main(argv, out=out) in (0, 1), argv
    assert "verdict" in out.getvalue(), argv
    loaded = sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy")
    assert not loaded, (argv, loaded)
print("ok")
"""


def test_solve_and_check_leave_scipy_unloaded():
    # a fresh interpreter, so no earlier test has loaded scipy: a solve,
    # whose QP runs on numpy, and a check leave it out of sys.modules
    root = PACKAGE.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = f"SCENE = {str(root / 'scenes' / 'demo.json')!r}\n{_FRESH_RUN}"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
