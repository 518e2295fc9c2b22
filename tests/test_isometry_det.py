"""Determinants of isometries.  On a nondegenerate lattice an isometry has
determinant +-1, and `Isometry.det` and `IsometryCheck.det` read it mod 3
(`linalg.det_mod`); a degenerate lattice keeps Bareiss.  Checked against
Bareiss `linalg.det` and sympy on sampled, outer-form and long-word
isometries."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from mukailat import linalg
from mukailat.characters import general_reflection, reflection
from mukailat.embeddings import eichler_transvection
from mukailat.fourier_mukai import elliptic_phi
from mukailat.lattices import (
    Isometry,
    LatticeError,
    build_lattice,
    check_isometry,
    k3_lattice,
    mukai_lattice,
)
from mukailat.stabilizer import generator_family

from conftest import random_vector


def assert_det_matches_oracles(g):
    expected = linalg.det(g.matrix)
    assert expected in (1, -1)
    assert Matrix(g.matrix).det() == expected
    assert g.det() == expected
    assert check_isometry(g.lattice, g.matrix).det == expected


@pytest.mark.parametrize("m", [1, 2, 3, 7, 30])
def test_sampled_gamma_v_elements(m):
    fam = generator_family(m)
    rng = random.Random(m)
    for length in (0, 1, 2, 5, 15):
        assert_det_matches_oracles(fam.sample_word(rng, length).product())
    # the restriction to v-perp is an isometry of that lattice
    g = fam.sample_word(rng, 8).product()
    assert_det_matches_oracles(fam.model.restrict(g))


def test_outer_form_generators():
    rng = random.Random(19)
    mukai = mukai_lattice()
    fam = generator_family(2)
    for _ in range(8):
        u = fam.sample_pm2_vector(rng) + (0, 0)
        assert_det_matches_oracles(reflection(mukai, u))
        assert_det_matches_oracles(general_reflection(mukai, u))
    # rho_delta in a (2 - 2n)-class of K3 + <2 - 2n>
    for n in (2, 3, 12):
        lat = build_lattice(("K3", ("diag", (2 - 2 * n,))))
        delta = tuple(1 if i == 22 else 0 for i in range(23))
        assert_det_matches_oracles(general_reflection(lat, delta))
    k3 = k3_lattice()
    for block in k3.blocks_named("U"):
        e = k3.plane_vector(block, 1, 0)
        a = list(random_vector(k3, rng, bound=50))
        a[block.start + 1] = 0  # (e, a) = 0
        assert_det_matches_oracles(eichler_transvection(k3, e, tuple(a)))
    for n in (2, 5, 37):
        assert_det_matches_oracles(elliptic_phi(n)[0])


@pytest.mark.parametrize("m", [7, 30])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_length_30_words(m, seed):
    # entries of up to about 150 bits
    g = generator_family(m).sample_word(random.Random(seed), 30).product()
    assert_det_matches_oracles(g)


def test_nondegenerate_lattice_takes_no_bareiss_of_the_matrix(monkeypatch):
    g = generator_family(3).sample_word(random.Random(3), 10).product()
    g.lattice.determinant()  # the Gram's own, kept on the lattice
    calls = []
    real = linalg.det

    def counted(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(linalg, "det", counted)
    assert g.det() == check_isometry(g.lattice, g.matrix).det
    assert calls == []


def test_degenerate_lattice_keeps_bareiss():
    # diag(1, 1, 2) preserves diag(1, -3, 0) and has determinant 2
    lattice = build_lattice((("diag", (1, -3, 0)),))
    matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    assert Isometry(lattice, matrix).det() == 2
    assert check_isometry(lattice, matrix).det == 2


def test_non_isometry_check_keeps_bareiss():
    mukai = mukai_lattice()
    rows = [list(r) for r in linalg.identity(24)]
    rows[0][0] = 6
    check = check_isometry(mukai, rows)
    assert not check.is_isometry
    assert check.det == 6


@pytest.mark.parametrize("diagonal", [0, 3, -6])
def test_trusted_non_isometry_with_det_0_mod_3_raises(diagonal):
    mukai = mukai_lattice()
    rows = [list(r) for r in linalg.identity(24)]
    rows[5][5] = diagonal
    with pytest.raises(LatticeError, match="0 mod 3"):
        Isometry._trusted(mukai, linalg.freeze(rows)).det()


def test_zero_matrix_raises_under_optimize():
    # the mod-3 read is a check that raises, not an assert
    code = (
        "from mukailat.lattices import Isometry, LatticeError, "
        "mukai_lattice\n"
        "assert False\n"
        "zero = Isometry._trusted(mukai_lattice(), ((0,) * 24,) * 24)\n"
        "try:\n"
        "    print(zero.det())\n"
        "except LatticeError as exc:\n"
        "    print('LatticeError:', exc)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.startswith("LatticeError: determinant is 0 mod 3")


# -- linalg.det_mod -----------------------------------------------------------


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 8))
    bound = draw(st.sampled_from((2, 9, 10**40)))
    entry = st.integers(-bound, bound)
    return linalg.freeze(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.sampled_from((2, 3, 5)))
def test_det_mod_is_det_reduced(a, p):
    assert linalg.det_mod(a, p) == linalg.det(a) % p


@pytest.mark.parametrize("a, p, expected", [
    ((), 3, 1),
    (((3,),), 3, 0),
    # a zero pivot mod 3 forces a row swap: det = -1
    (((3, 1), (1, 0)), 3, 2),
    # rows 0 and 1 are e_0 and a unit row that is not e_1: only 0 goes
    (((1, 0, 0), (7, 0, 1), (5, 1, 0)), 5, 4),
    (linalg.identity(24), 2, 1),
])
def test_det_mod_known(a, p, expected):
    assert linalg.det_mod(a, p) == expected
