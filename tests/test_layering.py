"""Module dependency rules that keep the ground truth independent."""
import ast
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
