"""Checks on the package source itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import tailbounds

from conftest import run_python


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


def test_every_exported_name_resolves():
    # each name a module lists in __all__ is an attribute of that module,
    # listed once, so a deletion cannot leave a stale export; the package's
    # own __all__ is checked in a fresh interpreter first, where no other
    # import has set a submodule attribute that its import line no longer
    # sets
    code, stdout, err = run_python("-c", (
        "import tailbounds\n"
        "print([n for n in tailbounds.__all__ if not hasattr(tailbounds, n)])"))
    assert (code, stdout.strip()) == (0, "[]"), err
    names = ["tailbounds"] + [m.name for m in pkgutil.walk_packages(
        tailbounds.__path__, "tailbounds.")]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", ())
        assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
        for export in exports:
            assert hasattr(module, export), f"{name}.__all__ lists {export!r}"
            checked += 1
    assert checked > 50
