"""JSON encoding of lattices, vectors, isometries and generator words.

Formats:
  lattice     {"blocks": [...], "gram": [[...]]}
  vector      [x1, ..., xn]
  mukai       {"r": int, "c": [22 ints], "s": int}
  isometry    {"lattice": "<id>", "matrix": [[...]]}   (row-major)
  graded      {"deg0": "p/q", "deg2": ["p/q", ...], "deg4": "p/q"}
  word        {"letters": [{"kind": "tau", "v0": {...}} |
                           {"kind": "gamma0", "matrix": [[...]]}]}

Lattice ids: "mukai", "k3", "U", "E8_minus", "vperp:<m>".
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .lattices import (
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    k3_lattice,
    mukai_lattice,
)
from .mukai import GradedSurfaceClass, MukaiVector


def resolve_lattice(identifier: str) -> Lattice:
    if identifier in ("mukai", "Mukai"):
        return mukai_lattice()
    if identifier in ("k3", "K3"):
        return k3_lattice()
    if identifier in ("U", "E8_minus"):
        return build_lattice((identifier,))
    if identifier.startswith("vperp:"):
        from .stabilizer import vperp_model

        m = int(identifier.split(":", 1)[1])
        return vperp_model(m).lattice
    raise LatticeError(f"unknown lattice id {identifier!r}")


def lattice_to_json(lattice: Lattice) -> dict:
    return {
        "blocks": [b.name for b in lattice.blocks],
        "gram": [list(row) for row in lattice.gram],
    }


def vector_to_json(v) -> list:
    return [int(x) for x in v]


def vector_from_json(data) -> tuple:
    return tuple(int(x) for x in data)


def mukai_vector_to_json(v: MukaiVector) -> dict:
    return {"r": v.r, "c": list(v.c), "s": v.s}


def mukai_vector_from_json(data) -> MukaiVector:
    if isinstance(data, dict):
        return MukaiVector(int(data["r"]),
                           tuple(int(x) for x in data["c"]),
                           int(data["s"]))
    # accept a bare Mukai-lattice coordinate vector [c..., r, s]
    return MukaiVector.from_coords(tuple(int(x) for x in data))


def isometry_to_json(iso: Isometry, identifier: str) -> dict:
    return {"lattice": identifier, "matrix": [list(row) for row in iso.matrix]}


def isometry_from_json(data) -> Isometry:
    lattice = resolve_lattice(data["lattice"])
    matrix = linalg.freeze([[int(x) for x in row] for row in data["matrix"]])
    return Isometry.checked(lattice, matrix)


def _fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _fraction_from_str(s) -> Fraction:
    return Fraction(s)


def graded_to_json(g: GradedSurfaceClass) -> dict:
    return {
        "deg0": _fraction_to_str(g.deg0),
        "deg2": [_fraction_to_str(x) for x in g.deg2],
        "deg4": _fraction_to_str(g.deg4),
    }


def graded_from_json(data) -> GradedSurfaceClass:
    return GradedSurfaceClass(
        _fraction_from_str(data["deg0"]),
        tuple(_fraction_from_str(x) for x in data["deg2"]),
        _fraction_from_str(data["deg4"]),
    )


def word_to_json(word) -> dict:
    from .stabilizer import Gamma0Letter, TauLetter

    letters = []
    for letter in word.letters:
        if isinstance(letter, TauLetter):
            letters.append({"kind": "tau",
                            "v0": mukai_vector_to_json(letter.v0)})
        else:
            letters.append({"kind": "gamma0",
                            "matrix": [list(r) for r in letter.k3_matrix]})
    return {"letters": letters}


def word_from_json(model, data):
    from .stabilizer import Gamma0Letter, GeneratorWord, TauLetter

    letters = []
    for item in data["letters"]:
        if item["kind"] == "tau":
            letters.append(TauLetter(mukai_vector_from_json(item["v0"])))
        elif item["kind"] == "gamma0":
            letters.append(Gamma0Letter(
                linalg.freeze([[int(x) for x in row]
                               for row in item["matrix"]])
            ))
        else:
            raise LatticeError(f"unknown letter kind {item['kind']!r}")
    return GeneratorWord.checked(model, letters)
