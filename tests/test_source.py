"""Checks on the package source itself."""

import ast
from pathlib import Path

import tailbounds


def test_no_assert_statements_in_the_package():
    # python -O drops assert statements, so no check of the package may be
    # one: each must raise on its own
    root = Path(tailbounds.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(root.rglob("*.py"))) > 10
    assert found == []
