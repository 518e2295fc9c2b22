"""`Lattice` is the only code that multiplies by a Gram matrix.

Every other module pairs through `Lattice.pair` / `square` or takes `G x`
from `Lattice.covector`, which read the Gram's nonzero entries and check
vector lengths.  This test fails when a module outside `lattices.py` passes
a `.gram` to `linalg.mat_vec` or `linalg.mat_mul` again.

The K3 and Mukai forms are read from `lattices.k3_lattice()` and
`mukai_lattice()` where they are used, so no function takes the K3 lattice
as a `k3` parameter."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"
DENSE = {"mat_vec", "mat_mul"}


def _dense_gram_products(path):
    """Line numbers of mat_vec/mat_mul calls with a `.gram` in an argument."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in DENSE:
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr == "gram"
               for arg in node.args for sub in ast.walk(arg)):
            hits.append(node.lineno)
    return sorted(hits)


def test_only_lattices_multiplies_by_the_gram():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "lattices.py"
        and (lines := _dense_gram_products(path))
    }
    assert offenders == {}


def test_guard_sees_a_dense_product(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("gy = linalg.mat_vec(\n    lattice.gram, y)\n"
                     "mt_g = mat_mul(linalg.transpose(m), lat.gram)\n"
                     "x = linalg.mat_vec(g.matrix, v)\n")
    assert _dense_gram_products(probe) == [1, 3]


def _k3_parameters(path):
    """Line numbers of functions with a parameter named `k3`."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a]
        if any(a.arg == "k3" for a in params):
            hits.append(node.lineno)
    return sorted(hits)


def test_no_function_takes_a_k3_parameter():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _k3_parameters(path))
    }
    assert offenders == {}


def test_guard_sees_a_k3_parameter(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def cup(x, y, k3=None):\n    pass\n"
                     "def pair(x, *, k3):\n    pass\n"
                     "def square(x, k3_rank):\n    pass\n")
    assert _k3_parameters(probe) == [1, 3]
