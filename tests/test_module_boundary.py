"""The boundary system's algebra stays behind ``forward.BoundarySystem``.

``derivative.py`` solves against the factored system only through its
methods (``solve_rhs``, ``adjoint_solve``, ``measurement_matrix``): it reads
none of the matrix ``a``, the inverse factor ``right`` or the scalings
``colscale`` and ``row_w``, so a change of the factorization or of the
equilibration stays inside ``forward.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elastoscat"
PRIVATE_TO_SYSTEM = {"a", "right", "colscale", "row_w"}


def _attribute_reads(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every attribute the module reads."""
    tree = ast.parse(path.read_text())
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def test_derivative_reads_no_boundary_system_internals():
    reads = [(line, name) for line, name in _attribute_reads(SRC / "derivative.py") if name in PRIVATE_TO_SYSTEM]
    assert not reads, f"derivative.py reads BoundarySystem internals (line, attribute): {reads}"
