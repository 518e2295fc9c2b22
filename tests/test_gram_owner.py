"""`Lattice` is the only code that multiplies by a Gram matrix.

Every other module pairs through `Lattice.pair` / `square` or takes `G x`
from `Lattice.covector`, which read the Gram's nonzero entries and check
vector lengths.  This test fails when a module outside `lattices.py` passes
a `.gram` to `linalg.mat_vec` or `linalg.mat_mul` again."""

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
