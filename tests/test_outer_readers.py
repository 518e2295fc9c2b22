"""Within `mukailat`, only `Isometry.matrix` and `Isometry.compose` read
the attribute `outer`, and only `lattices` calls the kernel
`linalg.identity_plus_outer_mul`.

An isometry built as s I + sum_k b_k c_k^T keeps that form in `outer`:
`.matrix` builds M from it once, and `compose` multiplies through it.
Everything else reads the matrix, so the form has one reader.  This test
fails when another function, method or module-level statement reads
`outer`, as `x.outer` or `getattr(x, "outer")`.  Setting it and passing
`_trusted(..., outer=...)` are not reads.  A site that moves one vector
does so by its formula, and a site that needs a reflection or
transvection as a map builds an `Isometry` with `outer`, so the kernel
has no caller outside `lattices`."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"


def _is_outer_read(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "outer" and isinstance(node.ctx, ast.Load)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "outer")


def _is_kernel_call(node):
    """A call of identity_plus_outer_mul, as `linalg.` attribute or name."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return name == "identity_plus_outer_mul"


def _readers(node, is_read, scope=()):
    """The qualified names of the functions under node with a node that
    is_read accepts, and "<module>" for one outside every function and
    class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + (child.name,)
        elif is_read(child):
            yield ".".join(scope) or "<module>"
        yield from _readers(child, is_read, inner)


def _outer_readers(package, is_read=_is_outer_read):
    return {(path.stem, name) for path in sorted(package.glob("*.py"))
            for name in _readers(ast.parse(path.read_text(), str(path)),
                                 is_read)}


def test_only_matrix_and_compose_read_outer():
    assert _outer_readers(PACKAGE) == {("lattices", "Isometry.matrix"),
                                       ("lattices", "Isometry.compose")}


def test_guard_sees_every_read(tmp_path):
    (tmp_path / "lattices.py").write_text(
        "class Isometry:\n"
        "    def __init__(self, outer):\n        self.outer = outer\n"
        "    def compose(self, other):\n        return self.outer\n"
        "    def apply(self, v):\n"
        "        if self.outer is not None:\n            return v\n")
    (tmp_path / "other.py").write_text(
        "def build(lat, terms):\n"
        "    return Isometry._trusted(lat, outer=(1, terms))\n"
        "def peek(g):\n    return getattr(g, 'outer', None)\n"
        "def nested(g):\n    def inner():\n        return g.outer[0]\n"
        "    return inner\n"
        "FIRST = ISO.outer\n")
    assert _outer_readers(tmp_path) == {
        ("lattices", "Isometry.compose"), ("lattices", "Isometry.apply"),
        ("other", "peek"), ("other", "nested.inner"), ("other", "<module>")}


def test_only_lattices_calls_the_outer_kernel():
    assert _outer_readers(PACKAGE, _is_kernel_call) == {
        ("lattices", "Isometry.matrix"), ("lattices", "Isometry.compose")}


def test_guard_sees_every_kernel_call(tmp_path):
    (tmp_path / "elliptic.py").write_text(
        "from . import linalg\n"
        "from .linalg import identity_plus_outer_mul\n"
        "def transvection(v):\n"
        "    return linalg.identity_plus_outer_mul(1, (), ())\n"
        "class Stab:\n    def power(self, m):\n"
        "        return identity_plus_outer_mul(1, (), m)\n"
        "GEN = linalg.identity_plus_outer_mul(1, (), ())\n")
    assert _outer_readers(tmp_path, _is_kernel_call) == {
        ("elliptic", "transvection"), ("elliptic", "Stab.power"),
        ("elliptic", "<module>")}
