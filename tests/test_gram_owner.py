"""`Lattice` is the only code that multiplies by a Gram matrix.

Every other module pairs through `Lattice.pair` / `square` or takes `G x`
from `Lattice.covector`, which read the Gram's nonzero entries and check
vector lengths.  This test fails when a module outside `lattices.py` passes
a `.gram` to `linalg.mat_vec` or `linalg.mat_mul` again.

The K3 and Mukai forms are read from `lattices.k3_lattice()` and
`mukai_lattice()` where they are used, so no function takes the K3 lattice
as a `k3` parameter.  Likewise the orientation reference is fixed by the
lattice, so no function takes it as a `reference` parameter."""

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


def _parameters_named(path, name):
    """Line numbers of functions with a parameter called `name`."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a]
        if any(a.arg == name for a in params):
            hits.append(node.lineno)
    return sorted(hits)


def _package_functions_taking(name):
    return {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _parameters_named(path, name))
    }


def _probe_hits(tmp_path, name):
    probe = tmp_path / "probe.py"
    probe.write_text(f"def cup(x, y, {name}=None):\n    pass\n"
                     f"def pair(x, *, {name}):\n    pass\n"
                     f"def square(x, {name}_rank):\n    pass\n")
    return _parameters_named(probe, name)


def test_no_function_takes_a_k3_parameter():
    assert _package_functions_taking("k3") == {}


def test_no_function_takes_a_reference_parameter():
    assert _package_functions_taking("reference") == {}


def test_guard_sees_a_k3_parameter(tmp_path):
    assert _probe_hits(tmp_path, "k3") == [1, 3]


def test_guard_sees_a_reference_parameter(tmp_path):
    assert _probe_hits(tmp_path, "reference") == [1, 3]
