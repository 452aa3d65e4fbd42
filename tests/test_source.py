"""Checks on the package source itself."""

import ast
import importlib
import math
import pkgutil
import re
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


# A README number: factors joined by a middle dot, each an integer (digits
# grouped by commas allowed) or a power such as 2^22.
_FACTOR = r"\d+(?:,\d{3})*(?:\^\d+)?"
# One or more "`NAME` =" before a number, across line breaks: "`A` = `B` = 48"
# states both names.
_README_CONSTANT = re.compile(rf"((?:`[A-Z][A-Z0-9_]*`\s*=\s*)+)({_FACTOR}(?:·{_FACTOR})*)")


def _readme_number(text):
    """The value of a README number such as 5·10^6, 2^22 or 600,000."""
    def factor(part):
        base, _, power = part.replace(",", "").partition("^")
        return int(base) ** int(power or 1)
    return math.prod(factor(part) for part in text.split("·"))


def test_readme_constants_match_the_package():
    # every "`NAME` = value" in README.md names a module constant of the
    # package that holds that value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = [importlib.import_module(m.name) for m in pkgutil.walk_packages(
        tailbounds.__path__, "tailbounds.")]
    stated = {}
    for names, value in _README_CONSTANT.findall(readme):
        for name in re.findall(r"`([A-Z][A-Z0-9_]*)`", names):
            stated.setdefault(name, set()).add(_readme_number(value))
    for name, values in stated.items():
        held = {getattr(module, name) for module in modules if hasattr(module, name)}
        assert held, f"README states {name}, which no tailbounds module defines"
        assert held == values, f"README states {name} = {values}, the package {held}"
    assert {"MAX_RECURSION_MATRIX_BYTES", "MAX_PROFILE_ENTRIES", "MAX_CHERNOFF_N",
            "C_MAIN", "TSP_2OPT_MAX_PASSES"} <= stated.keys()
