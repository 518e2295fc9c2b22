"""JSON encoding of lattices, vectors, isometries and generator words.

Formats:
  lattice     {"blocks": [...], "gram": [[...]]}
  vector      [x1, ..., xn]
  mukai       {"r": int, "c": [22 ints], "s": int}
  isometry    {"lattice": "<id>", "matrix": [[...]]}   (row-major)
  word        {"letters": [{"kind": "tau", "v0": {...}} |
                           {"kind": "gamma0", "matrix": [[...]]}]}

Lattice ids: "mukai", "k3", "U", "E8_minus", "vperp:<m>".

The readers raise LatticeError on JSON of the wrong shape.
"""

from __future__ import annotations

from . import linalg
from .lattices import (
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    k3_lattice,
    mukai_lattice,
)
from .mukai import MukaiVector, mukai_pairing
from .stabilizer import Gamma0Letter, GeneratorWord, TauLetter, vperp_model


def resolve_lattice(identifier: str) -> Lattice:
    if identifier in ("mukai", "Mukai"):
        return mukai_lattice()
    if identifier in ("k3", "K3"):
        return k3_lattice()
    if identifier in ("U", "E8_minus"):
        return build_lattice((identifier,))
    if isinstance(identifier, str) and identifier.startswith("vperp:"):
        m = int_from_text(identifier.split(":", 1)[1],
                          f"the m of lattice id {identifier!r}")
        return vperp_model(m).lattice
    raise LatticeError(f"unknown lattice id {identifier!r}")


def _field(data, key: str):
    if not isinstance(data, dict) or key not in data:
        raise LatticeError(f"expected a JSON object with key {key!r}")
    return data[key]


def _array(data) -> list:
    if not isinstance(data, list):
        raise LatticeError(f"expected a JSON array, got {type(data).__name__}")
    return data


def int_from_text(text: str, what: str) -> int:
    """The int written in text, a command-line argument or a lattice id;
    LatticeError, naming `what`, when text is not one."""
    try:
        return int(text)
    except ValueError:
        raise LatticeError(f"{what} must be an integer, got {text!r}") \
            from None


def _int(x) -> int:
    if type(x) is not int:
        raise LatticeError(f"expected an integer, got {type(x).__name__}")
    return x


def vector_from_json(data) -> tuple:
    return tuple(map(_int, _array(data)))


def matrix_from_json(data):
    return linalg.freeze(map(vector_from_json, _array(data)))


def lattice_to_json(lattice: Lattice) -> dict:
    return {
        "blocks": [b.name for b in lattice.blocks],
        "gram": [list(row) for row in lattice.gram],
    }


def vector_to_json(v) -> list:
    return [int(x) for x in v]


def mukai_vector_to_json(v: MukaiVector) -> dict:
    return {"r": v.r, "c": list(v.c), "s": v.s}


def mukai_vector_from_json(data) -> MukaiVector:
    # also accepts a bare Mukai-lattice coordinate vector [c..., r, s]
    if isinstance(data, dict):
        c = vector_from_json(_field(data, "c"))
        data = [*c, _field(data, "r"), _field(data, "s")]
    coords = vector_from_json(data)
    rank = mukai_lattice().rank
    if len(coords) != rank:
        raise LatticeError(
            f"expected {rank} Mukai coordinates, got {len(coords)}")
    return MukaiVector.from_coords(coords)


def isometry_to_json(iso: Isometry, identifier: str) -> dict:
    return {"lattice": identifier, "matrix": [list(row) for row in iso.matrix]}


def isometry_from_json(data) -> Isometry:
    lattice = resolve_lattice(_field(data, "lattice"))
    return Isometry(lattice, matrix_from_json(_field(data, "matrix")))


def word_to_json(word) -> dict:
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
    """The word, each letter checked as it is read: a tau class must be a -2
    vector of v-perp, a gamma0 matrix an isometry of the K3 block."""
    letters = []
    for item in _array(_field(data, "letters")):
        kind = _field(item, "kind")
        if kind == "tau":
            v0 = mukai_vector_from_json(_field(item, "v0"))
            if mukai_pairing(v0, v0) != -2:
                raise LatticeError("tau letter class must have square -2")
            if v0.s != v0.r * model.m:
                raise LatticeError("tau letter class must lie in v-perp")
            letters.append(TauLetter(v0))
        elif kind == "gamma0":
            letters.append(Gamma0Letter(Isometry(
                model.k3, matrix_from_json(_field(item, "matrix")))))
        else:
            raise LatticeError(f"unknown letter kind {kind!r}")
    return GeneratorWord(model, tuple(letters))
