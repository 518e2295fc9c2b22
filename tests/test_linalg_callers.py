"""Every public function of `linalg` has a caller in the library.

A kernel stays because another `mukailat` module, or another `linalg`
function, uses it; a test alone does not keep it (an oracle only tests use
lives with the tests).  This test fails when a public `linalg` function
loses its last library caller, or when one is added without a caller."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"


def _public_functions(tree):
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def _called_within(tree):
    """Names one top-level function of the module calls in another."""
    names = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id != fn.name:
                names.add(node.func.id)
    return names


def _read_from_linalg(tree):
    """Names a module reads from linalg: `linalg.name`, or a name imported
    by `from .linalg import name` and then used."""
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "linalg"
                for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "linalg":
            names.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in imported:
            names.add(imported[node.id])
    return names


def _without_callers(package):
    """Public linalg functions that no other module of the package reads and
    no other linalg function calls."""
    linalg = ast.parse((package / "linalg.py").read_text())
    used = _called_within(linalg)
    for path in sorted(package.glob("*.py")):
        if path.name != "linalg.py":
            used |= _read_from_linalg(ast.parse(path.read_text(), str(path)))
    return _public_functions(linalg) - used


def test_every_linalg_function_has_a_library_caller():
    assert _without_callers(PACKAGE) == set()


def test_guard_sees_a_function_without_callers(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "def used(x):\n    return helper(x)\n"
        "def helper(x):\n    return x\n"
        "def imported(x):\n    return x\n"
        "def unused(x):\n    return unused(x)\n"
        "def _private(x):\n    return x\n")
    (tmp_path / "other.py").write_text(
        "from . import linalg\nfrom .linalg import imported as imp\n"
        "y = linalg.used(1) + imp(2)\n")
    assert _without_callers(tmp_path) == {"unused"}
