"""Lines of src/mukailat that the test suite never runs, by sys.settrace.

Run from the repository root; pytest does not collect this file, and
tracing makes the suite about three times slower:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

It prints each file's unrun line numbers and the run/traceable totals, and
exits 1 when any line is unrun (or with pytest's status when a test fails),
so it serves as a gate.  A test that starts a subprocess runs outside the
trace, so the body of a module's `if __name__ == "__main__":` is not
counted; any other line that only such tests reach is listed as unrun.
"""

import ast
import dis
import pathlib
import sys
import threading

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"


def code_lines(code) -> set[int]:
    """The line numbers at which code, or a code object nested in it, has
    instructions."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= code_lines(const)
    return lines


def script_lines(tree) -> set[int]:
    """The lines of the module-level `if __name__ == "__main__":` bodies."""
    return {line for node in tree.body if isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'"
            for stmt in node.body
            for line in range(stmt.lineno, stmt.end_lineno + 1)}


def main(args) -> int:
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(SRC)) \
            else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = code_lines(compile(source, str(path), "exec")) \
            - script_lines(ast.parse(source))
        unrun = sorted(n for n in lines if (str(path), n) not in ran)
        total, missed = total + len(lines), missed + len(unrun)
        if unrun:
            print(f"{path.name}: {' '.join(map(str, unrun))}")
    print(f"{total - missed} of {total} traceable lines ran")
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
