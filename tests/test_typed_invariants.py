"""Every check in the library raises a `LatticeError` subclass.

`assert` statements vanish under `python -O`, and a failed one surfaces as a
bare `AssertionError` that the CLI does not turn into a report.  This test
fails when an `assert` statement or a `raise AssertionError` appears under
`src/mukailat/` again."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"


def _untyped_checks(path):
    """Line numbers of assert statements and raises of AssertionError."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            hits.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "AssertionError":
                hits.append(node.lineno)
    return sorted(hits)


def test_no_untyped_checks_in_the_library():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _untyped_checks(path))
    }
    assert offenders == {}


def test_guard_sees_asserts(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("assert x == 1\n"
                     "if y:\n    raise AssertionError('loop')\n"
                     "raise AssertionError\n"
                     "raise LatticeError('typed')\n")
    assert _untyped_checks(probe) == [1, 3, 4]
