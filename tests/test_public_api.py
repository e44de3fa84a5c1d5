"""Every public name of the library has a caller outside the tests.

A public function, class, method or property defined in ``src/elastoscat``
must be named somewhere in ``src/`` other than its own ``def`` or ``class``
line, or in ``perfbench/*.py``.  The re-exports of ``elastoscat/__init__.py``
do not count as a use.  A name that only tests call is a second API to keep
working; it belongs in ``tests/oracles.py`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "elastoscat"

# Public names kept without a caller outside the tests, and why.
ALLOWED = {
    "forward.ScatteredSolution.potentials": "acceptance criterion 5 reads a solve's potential coefficients",
    "cli.synth": "click command callback, reached through cli.main",
    "cli.check": "click command callback, reached through cli.main",
    "cli.jacobian_dump": "click command callback, reached through cli.main",
}


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a module uses: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _public_definitions(path: Path, tree: ast.Module):
    """(qualified name, bare name) of the module's public functions and classes
    and of every public method and property of its classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _audit():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            used |= _referenced(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    return [qual for path, tree in trees.items() for qual, name in _public_definitions(path, tree) if name not in used]


def test_every_public_name_has_a_non_test_caller():
    unused = [qual for qual in _audit() if qual not in ALLOWED]
    assert not unused, f"public names that only tests call (move them to tests/oracles.py): {unused}"


def test_allow_list_holds_only_names_without_a_caller():
    assert sorted(set(ALLOWED) - set(_audit())) == []
