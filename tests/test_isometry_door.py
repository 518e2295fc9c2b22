"""One door into `Isometry`: the public constructor verifies M^T G M = G,
and the library's own constructions take the unverified `_trusted` path.

An AST scan keeps the public constructor out of every module but `jsonio`,
where matrices enter from outside; a second keeps `_trusted` to a fixed
list of library sites; and a counter on `check_isometry` shows that
factoring, restricting, twisting and lifting never verify again."""

import ast
import os
import pathlib
import random
import subprocess
import sys

import pytest

from mukailat import fourier_mukai, lattices, linalg, stabilizer
from mukailat.lattices import Isometry, LatticeError, k3_lattice, \
    mukai_lattice
from mukailat.stabilizer import Gamma0Letter, GeneratorWord

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"
DOORS = {"jsonio.py"}


def _is_public_construction(call, in_isometry):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == "Isometry" or (in_isometry and f.id == "cls")
    return isinstance(f, ast.Attribute) and f.attr == "Isometry"


def _public_constructions(package):
    """(file, line) of each call of `Isometry(...)`, `<module>.Isometry(...)`
    or, inside the class, `cls(...)`, in the modules outside DOORS."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in DOORS:
            continue
        tree = ast.parse(path.read_text(), str(path))
        in_class = {id(node) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and cls.name == "Isometry"
                    for node in ast.walk(cls)}
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _is_public_construction(
                      node, id(node) in in_class)]
    return sorted(found)


def test_only_jsonio_calls_the_public_constructor():
    assert _public_constructions(PACKAGE) == []


def test_guard_sees_a_public_construction(tmp_path):
    (tmp_path / "jsonio.py").write_text("x = Isometry(lat, m)\n")
    (tmp_path / "other.py").write_text(
        "a = Isometry._trusted(lat, m)\n"
        "b = lattices.Isometry(lat, m)\n"
        "c = Isometry(lat, m)\n"
        "d = cls(lat, m)\n"
        "class Isometry:\n"
        "    def identity(cls, lat):\n"
        "        return cls(lat, m)\n")
    assert _public_constructions(tmp_path) == [
        ("other.py", 2), ("other.py", 3), ("other.py", 7)]


# (module, enclosing class.function) of every unverified construction, each
# with its reason at the call; a new one fails the scan until listed here
TRUSTED_SITES = sorted([
    ("lattices", "Isometry.identity"), ("lattices", "Isometry.compose"),
    ("lattices", "Isometry.inverse"), ("lattices", "Isometry.negate"),
    ("characters", "reflection"), ("characters", "general_reflection"),
    ("embeddings", "eichler_transvection"),
    ("fourier_mukai", "duality_isometry"), ("fourier_mukai", "elliptic_phi"),
    ("stabilizer", "VPerpModel.restrict"),
    ("stabilizer", "VPerpModel.extend_k3"), ("stabilizer", "factor"),
    ("stabilizer", "disc_lift"),
])


def _trusted_sites(package):
    """(module, enclosing class.function) of each `<x>._trusted` reference,
    one entry per reference, over every module of the package."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            found.append((module, ".".join(scope)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, ())
    return sorted(found)


def test_trusted_only_at_listed_sites():
    assert _trusted_sites(PACKAGE) == TRUSTED_SITES


def test_guard_sees_each_trusted_site(tmp_path):
    (tmp_path / "lattices.py").write_text(
        "class Isometry:\n"
        "    def _trusted(cls, lat, m):\n"
        "        return m\n"
        "    def identity(cls, lat):\n"
        "        return cls._trusted(lat, m)\n")
    (tmp_path / "other.py").write_text(
        "a = Isometry(lat, m)\n"
        "def f(lat):\n"
        "    def g():\n"
        "        return lattices.Isometry._trusted(lat, m)\n"
        "    door = Isometry._trusted\n"
        "    return Isometry._trusted(lat, outer=(1, ()))\n")
    assert _trusted_sites(tmp_path) == [
        ("lattices", "Isometry.identity"), ("other", "f"), ("other", "f"),
        ("other", "f.g")]


def test_no_public_outer_form_constructor():
    # s I + sum b c^T is kept in outer form only by library sites; with
    # s = 2 and the one term (e, e) it is no isometry, and the door says so
    mukai = mukai_lattice()
    assert not hasattr(Isometry, "from_outer")
    e = mukai.basis_vector("e.1")
    with pytest.raises(LatticeError, match="does not preserve the Gram"):
        Isometry(mukai, linalg.identity_plus_outer_mul(
            2, ((e, e),), linalg.identity(mukai.rank)))


def _scaled_k3_identity():
    rows = [list(r) for r in linalg.identity(k3_lattice().rank)]
    rows[0][0] = 2
    return linalg.freeze(rows)


@pytest.mark.parametrize("held", [
    _scaled_k3_identity(), linalg.identity(22),
    Isometry.identity(mukai_lattice()),
], ids=["non-isometry-matrix", "k3-identity-matrix", "mukai-isometry"])
def test_gamma0_letter_holds_a_k3_isometry(held):
    with pytest.raises(LatticeError, match="isometry of the K3 lattice"):
        GeneratorWord(stabilizer.vperp_model(2), (Gamma0Letter(held),))


@pytest.fixture
def check_calls(monkeypatch):
    """The argument tuples of every `check_isometry` call, wherever a
    `mukailat` module bound the name."""
    calls = []
    real = lattices.check_isometry

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mukailat" and \
                getattr(module, "check_isometry", None) is real:
            monkeypatch.setattr(module, "check_isometry", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_library_paths_never_verify(m, check_calls):
    model = stabilizer.vperp_model(m)
    family = stabilizer.GeneratorFamily(model)
    rng = random.Random(m)
    elements = [family.sample_word(rng, length).product()
                for length in (1, 4, 8)]
    for g in elements:
        word = stabilizer.factor(model, g, normalize=True)
        assert word.product() == g
        restricted = model.restrict(g)
        assert stabilizer.disc_action(model, restricted) == 1 % (2 * m)
        fourier_mukai.mon_twist(model, g)
    for u in stabilizer._square_roots_of_one(stabilizer._prime_powers(m)):
        assert stabilizer.disc_action(
            model, stabilizer.disc_lift(model, u)) == u
    assert check_calls == []
    # the counter does see the public door
    Isometry(model.mukai, elements[0].matrix)
    assert len(check_calls) == 1


def _off_by_one(lattice):
    rows = [list(r) for r in linalg.identity(lattice.rank)]
    rows[0][1] = 1
    return rows


@pytest.mark.parametrize("matrix, message", [
    (_off_by_one(mukai_lattice()), "matrix does not preserve the Gram form"),
    (((0,) * 24,) * 24, "matrix does not preserve the Gram form"),
    (linalg.identity(22), "matrix must be square of the lattice rank"),
    (((1,) * 24,) * 23, "matrix must be square of the lattice rank"),
    (linalg.identity(24)[:-1] + ((0,) * 23 + (1.0,),),
     "an isometry check needs integer entries"),
], ids=["off-by-one", "zero", "k3-size", "not-square", "float-entry"])
def test_constructor_rejects(matrix, message):
    with pytest.raises(LatticeError, match=message):
        Isometry(mukai_lattice(), matrix)


def test_constructor_rejects_under_optimize():
    # the door is a check that raises, not an assert: it holds under -O
    code = (
        "from fractions import Fraction\n"
        "from mukailat.lattices import Isometry, LatticeError, "
        "mukai_lattice\n"
        "assert False\n"
        "mukai = mukai_lattice()\n"
        "for entry in (1, Fraction(1, 2)):\n"
        "    try:\n"
        "        Isometry(mukai, ((entry,) * 24,) * 24)\n"
        "    except LatticeError as exc:\n"
        "        print('LatticeError:', exc)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == (
        "LatticeError: matrix does not preserve the Gram form\n"
        "LatticeError: an isometry check needs integer entries\n")
