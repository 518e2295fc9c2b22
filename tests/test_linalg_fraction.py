"""Within `linalg`, only `det_q` and `mat_inv_q` name `Fraction`.

Every other kernel takes and gives integers: `Lattice` refuses a
non-integer Gram and `check_isometry` a non-integer entry, so no rational
matrix reaches them.  This test fails when another function of the module,
or its top level past the import, names `Fraction`."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"


def _naming_fraction(source):
    """The top-level functions of a module that name `Fraction`, and
    "<module>" when a statement outside them does."""
    names = set()
    for node in ast.parse(source).body:
        if any(isinstance(n, ast.Name) and n.id == "Fraction"
               for n in ast.walk(node)):
            names.add(node.name if isinstance(node, ast.FunctionDef)
                      else "<module>")
    return names


def test_only_det_q_and_mat_inv_q_name_fraction():
    source = (PACKAGE / "linalg.py").read_text()
    assert _naming_fraction(source) == {"det_q", "mat_inv_q"}


def test_guard_sees_every_use():
    source = ("from fractions import Fraction\n"
              "def det_q(m) -> Fraction:\n    return m\n"
              "def kernel(m):\n    return [Fraction(x) for x in m]\n"
              "def plain(m):\n    return m\n"
              "HALF = Fraction(1, 2)\n")
    assert _naming_fraction(source) == {"det_q", "kernel", "<module>"}
