"""JSON entry points: lattice ids and generator words from outside."""

import pytest

from mukailat import linalg
from mukailat.jsonio import (
    isometry_from_json,
    mukai_vector_from_json,
    resolve_lattice,
    vector_from_json,
    word_from_json,
)
from mukailat.lattices import (
    LatticeError,
    build_lattice,
    k3_lattice,
    mukai_lattice,
)
from mukailat.stabilizer import vperp_model


@pytest.mark.parametrize("make", [
    mukai_lattice,
    k3_lattice,
    lambda: build_lattice(("U",)),
    lambda: build_lattice(("E8_minus",)),
    lambda: vperp_model(3).lattice,
], ids=["mukai", "k3", "U", "E8_minus", "vperp3"])
def test_lattice_name_resolves(make):
    lattice = make()
    assert resolve_lattice(lattice.name).gram == lattice.gram


class TestWordFromJson:
    m = 3

    def _word(self, *letters):
        return word_from_json(vperp_model(self.m), {"letters": list(letters)})

    def _tau(self, r, s):
        return {"kind": "tau", "v0": {"r": r, "c": [0] * 22, "s": s}}

    def test_tau_square_not_minus_two(self):
        # (1, 0, m) lies in v-perp but has square -2m
        with pytest.raises(LatticeError):
            self._word(self._tau(1, self.m))

    def test_tau_outside_vperp(self):
        # (1, 0, 1) has square -2 but pairs with v = (1, 0, -m) to m - 1
        with pytest.raises(LatticeError):
            self._word(self._tau(1, 1))

    def test_gamma0_not_an_isometry(self):
        matrix = [list(r) for r in linalg.identity(22)]
        matrix[0][0] = 2
        with pytest.raises(LatticeError, match="does not preserve the Gram"):
            self._word({"kind": "gamma0", "matrix": matrix})


def word_at_m3(data):
    return word_from_json(vperp_model(3), data)


IDENTITY = [list(r) for r in linalg.identity(24)]


@pytest.mark.parametrize("read, data", [
    (isometry_from_json, [[1, 0], [0, 1]]),
    (isometry_from_json, {"matrix": IDENTITY}),
    (isometry_from_json, {"lattice": 7, "matrix": IDENTITY}),
    (isometry_from_json, {"lattice": "mukai", "matrix": 1}),
    (isometry_from_json, {"lattice": "mukai", "matrix": [1] * 24}),
    (isometry_from_json, {"lattice": "mukai",
                          "matrix": [[0.5] * 24] * 24}),
    (mukai_vector_from_json, [1, 0]),
    (mukai_vector_from_json, {"r": 1, "c": [0] * 21, "s": 0}),
    (mukai_vector_from_json, {"r": "1", "c": [0] * 22, "s": 0}),
    (mukai_vector_from_json, {"r": 1, "s": 0}),
    (mukai_vector_from_json, 5),
    (vector_from_json, {"x": 1}),
    (vector_from_json, [1, None]),
    (vector_from_json, [True, 0]),
    (word_at_m3, []),
    (word_at_m3, {"letters": {"kind": "tau"}}),
    (word_at_m3, {"letters": [["tau"]]}),
    (word_at_m3,
     {"letters": [{"kind": "gamma0", "matrix": "I"}]}),
], ids=lambda x: getattr(x, "__name__", None))
def test_wrong_shape_is_a_lattice_error(read, data):
    with pytest.raises(LatticeError):
        read(data)
