"""The ten records of the library are named tuples: read-only fields, tuple
equality, and the validation, hashing and repr that callers rely on."""

import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from mukailat.lattices import (
    Block,
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    check_isometry,
    discriminant_group,
)
from mukailat.mukai import GradedSurfaceClass, MukaiVector
from mukailat.stabilizer import (
    Gamma0Letter,
    GeneratorWord,
    TauLetter,
    vperp_model,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_class_generators():
    # -S keeps site out, whose .pth files may import typing themselves
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import mukailat.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _records():
    model = vperp_model(2)
    k3 = model.k3
    v0 = MukaiVector(1, (0,) * k3.rank, 2)
    word = GeneratorWord(model, (Gamma0Letter(Isometry.identity(k3)),
                                 TauLetter(v0)))
    return [
        Block("U", 0, 2), model.lattice,
        check_isometry(k3, Isometry.identity(k3).matrix),
        discriminant_group(model.lattice), v0,
        GradedSurfaceClass(1, (0,) * k3.rank, 0), model, *word.letters, word,
    ]


FIELDS = {
    "Block": "name start size",
    "Lattice": "gram basis_labels blocks name",
    "IsometryCheck": "is_isometry matrix lattice",
    "DiscGroup": "divisors lifts q_values order",
    "MukaiVector": "r c s",
    "GradedSurfaceClass": "deg0 deg2 deg4",
    "VPerpModel": "m mukai k3 lattice disc_group",
    "Gamma0Letter": "isometry",
    "TauLetter": "v0",
    "GeneratorWord": "model letters",
}


def test_ten_record_types():
    assert sorted(type(r).__name__ for r in _records()) == sorted(FIELDS)


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_every_field_is_read_only(record):
    for name in FIELDS[type(record).__name__].split():
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_record_is_the_tuple_of_its_fields(record):
    names = tuple(FIELDS[type(record).__name__].split())
    assert record._fields == names
    assert tuple(record) == tuple(getattr(record, n) for n in names)
    assert record == tuple(record) and len(record) == len(names)


def test_replace_checks_as_the_constructor_does():
    lat = build_lattice(("U",))
    renamed = lat._replace(name="plane")
    assert renamed.name == "plane" and renamed._rows == lat._rows
    assert hash(renamed) == hash(Lattice(lat.gram, lat.basis_labels,
                                         lat.blocks, "plane"))
    with pytest.raises(LatticeError, match="symmetric"):
        lat._replace(gram=((0, 1), (0, 0)))
    assert type(MukaiVector(1, (0,), 2)._replace(c=[3]).c) is tuple
    assert type(GradedSurfaceClass(1, (), 0)._replace(
        deg4=Fraction(4, 2)).deg4) is int
    k3 = vperp_model(2).k3
    letter = Gamma0Letter(Isometry.identity(k3))
    with pytest.raises(LatticeError, match="isometry of the K3 lattice"):
        letter._replace(isometry=Isometry.identity(build_lattice(("U",))))


def test_lattice_hash_reads_the_cached_value():
    lat = build_lattice(("U",))
    twin = Lattice(lat.gram, lat.basis_labels, lat.blocks, lat.name)
    assert twin is not lat and twin == lat and hash(twin) == hash(lat)
    object.__setattr__(twin, "_hash", 12345)
    assert hash(twin) == 12345


def test_mukai_vector_is_a_vector():
    x = MukaiVector(1, [0, 2, -1], -3)
    assert type(x.c) is tuple
    assert type(MukaiVector(0, (c for c in (1, 2, 3)), 0).c) is tuple
    assert type(MukaiVector.from_coords([4, 5, 1, 2]).c) is tuple
    y = MukaiVector(2, (1, 1, 1), 5)
    assert x + y == MukaiVector(3, (1, 3, 0), 2)
    assert -x == MukaiVector(-1, (0, -2, 1), 3)
    assert type(x + y) is MukaiVector and type(-x) is MukaiVector


def test_repr_is_unchanged():
    # strings recorded when the records were frozen dataclasses
    assert repr(build_lattice(("U",))) == (
        "Lattice(gram=((0, 1), (1, 0)), basis_labels=('e.1', 'f.1'), "
        "blocks=(Block(name='U', start=0, size=2),), name='U')")
    assert repr(build_lattice((("diag", (2, -3)), "U"))) == (
        "Lattice(gram=((2, 0, 0, 0), (0, -3, 0, 0), (0, 0, 0, 1), "
        "(0, 0, 1, 0)), basis_labels=('d1.1', 'd2.1', 'e.1', 'f.1'), "
        "blocks=(Block(name='diag[2, -3]', start=0, size=2), "
        "Block(name='U', start=2, size=2)), name=\"('diag', (2, -3))+U\")")
    assert repr(Lattice(((2, 1), (1, 2)), ("a", "b"))) == (
        "Lattice(gram=((2, 1), (1, 2)), basis_labels=('a', 'b'), "
        "blocks=(), name='')")
    assert repr(MukaiVector(1, [0, 2, -1], -3)) == \
        "MukaiVector(r=1, c=(0, 2, -1), s=-3)"
