"""One door into `Isometry`: the public constructor verifies M^T G M = G,
and the library's own constructions take the unverified `_trusted` path.

An AST scan keeps the public constructor out of every module but `jsonio`,
where matrices enter from outside, and a counter on `check_isometry` shows
that factoring, restricting, twisting and lifting never verify again."""

import ast
import os
import pathlib
import random
import subprocess
import sys

import pytest

from mukailat import fourier_mukai, lattices, linalg, stabilizer
from mukailat.lattices import Isometry, LatticeError, mukai_lattice

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
    for u in stabilizer._square_roots_of_one(m):
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
