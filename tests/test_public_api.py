"""Every public name of the library has a caller outside the tests.

A public function or class defined in ``src/elastoscat`` must be named
somewhere in ``src/`` other than its own ``def`` or ``class`` line, or in
``perfbench/*.py``.  A public method or property must be read there as an
attribute (``obj.name``): a local variable or argument of the same name
does not count.  The re-exports of ``elastoscat/__init__.py``
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


def _referenced(tree: ast.AST) -> tuple[set[str], set[str]]:
    """``(names, attributes)``: every name a module uses (bare names,
    attributes and imported names), and the attribute names it reads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names, attributes


def _public_definitions(path: Path, tree: ast.Module):
    """(qualified name, bare name, is a class member) of the module's public
    functions and classes and of every public method and property of its
    classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def _audit():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    users = [tree for path, tree in trees.items() if path.name != "__init__.py"]
    users += [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    names, attributes = set(), set()
    for tree in users:
        module_names, module_attributes = _referenced(tree)
        names |= module_names
        attributes |= module_attributes
    return [
        qual
        for path, tree in trees.items()
        for qual, name, member in _public_definitions(path, tree)
        if name not in (attributes if member else names)
    ]


def test_every_public_name_has_a_non_test_caller():
    unused = [qual for qual in _audit() if qual not in ALLOWED]
    assert not unused, f"public names that only tests call (move them to tests/oracles.py): {unused}"


def test_allow_list_holds_only_names_without_a_caller():
    assert sorted(set(ALLOWED) - set(_audit())) == []
