"""Structured products with reflections and transvections, and the integer
G^{-1} behind `Isometry.inverse` and `Isometry.preimage`."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import linalg
from mukailat.characters import general_reflection, reflection
from mukailat.embeddings import eichler_transvection
from mukailat.lattices import (
    Isometry,
    LatticeError,
    build_lattice,
    k3_lattice,
    mukai_lattice,
)
from mukailat.stabilizer import GeneratorFamily, vperp_model

from conftest import random_vector

FAMILY = GeneratorFamily(vperp_model(2))


def integer_matrix(n, bound=10**6):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(linalg.freeze)


def assert_compose_is_dense_product(gen, m):
    """gen @ Isometry(L, m) through the structured form equals mat_mul."""
    assert gen.outer is not None
    dense = Isometry(gen.lattice, gen.matrix)
    assert dense.outer is None
    expected = linalg.mat_mul(gen.matrix, m)
    assert (gen @ Isometry(gen.lattice, m)).matrix == expected
    assert (dense @ Isometry(gen.lattice, m)).matrix == expected


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), integer_matrix(24))
def test_pm2_reflection_compose(rnd, m):
    mukai = mukai_lattice()
    for _ in range(2):
        u = FAMILY.sample_pm2_vector(rnd) + (0, 0)
        assert mukai.square(u) in (2, -2)
        assert_compose_is_dense_product(reflection(mukai, u), m)
    tau = FAMILY.tau_letter(rnd).to_isometry(FAMILY.model)
    assert_compose_is_dense_product(tau, m)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.randoms(use_true_random=False),
       integer_matrix(23))
def test_general_reflection_compose(n, rnd, m):
    # rho_delta in a (2 - 2n)-class of K3 + <2 - 2n>, and a true reflection
    # in a +-2 vector there
    lat = build_lattice(("K3", ("diag", (2 - 2 * n,))))
    delta = tuple(1 if i == 22 else 0 for i in range(23))
    assert_compose_is_dense_product(general_reflection(lat, delta), m)
    u = FAMILY.sample_pm2_vector(rnd) + (0,)
    assert_compose_is_dense_product(general_reflection(lat, u), m)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), integer_matrix(22))
def test_eichler_transvection_compose(rnd, m):
    k3 = k3_lattice()
    ublock = rnd.choice(k3.blocks_named("U"))
    use_f = rnd.random() < 0.5
    e = tuple(1 if i == ublock.start + use_f else 0 for i in range(22))
    a = list(random_vector(k3, rnd, bound=50))
    a[ublock.start + 1 - use_f] = 0  # (e, a) = 0
    assert_compose_is_dense_product(eichler_transvection(k3, e, tuple(a)), m)


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 5), st.integers(1, 3), st.integers(1, 6),
       st.data())
def test_identity_plus_outer_mul(s, k, cols, data):
    n = 6
    vec = st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n) \
        .map(tuple)
    terms = tuple((data.draw(vec), data.draw(vec)) for _ in range(k))
    m = linalg.freeze(data.draw(st.lists(
        st.lists(st.integers(-10**9, 10**9), min_size=cols, max_size=cols),
        min_size=n, max_size=n)))
    assert linalg.identity_plus_outer_mul(s, terms, m) == \
        linalg.mat_mul(linalg.identity_plus_outer(s, terms), m)


def test_structured_and_dense_are_equal(mukai, rng):
    for _ in range(5):
        u = FAMILY.sample_pm2_vector(rng) + (0, 0)
        gen = reflection(mukai, u)
        dense = Isometry(mukai, gen.matrix)
        assert gen.outer is not None and dense.outer is None
        assert gen == dense
        assert hash(gen) == hash(dense)
        assert repr(gen) == repr(dense)
        assert len({gen, dense}) == 1


def test_product_is_dense(mukai, rng):
    # a product with a generator on the left is an ordinary isometry, so a
    # later product with it on the left is a dense one
    u = FAMILY.sample_pm2_vector(rng) + (0, 0)
    gen = reflection(mukai, u)
    assert (gen @ gen).outer is None
    assert (gen @ gen).is_identity()


# -- the integer G^{-1} -------------------------------------------------------


def _lattice_isometries(name, rng):
    """A few isometries of the named lattice, products of reflections."""
    if name == "K3":
        lat = k3_lattice()
        gens = [reflection(lat, FAMILY.sample_pm2_vector(rng))
                for _ in range(4)]
    elif name == "Mukai":
        lat = mukai_lattice()
        gens = [FAMILY.tau_letter(rng).to_isometry(FAMILY.model)
                for _ in range(2)]
        gens += [reflection(lat, FAMILY.sample_pm2_vector(rng) + (0, 0))
                 for _ in range(2)]
    else:
        model = vperp_model(int(name.split(":")[1]))
        lat = model.lattice
        fam = GeneratorFamily(model)
        gens = [model.restrict(fam.sample_word(rng, 3).product())
                for _ in range(2)]
        gens += [general_reflection(lat, fam.sample_pm2_vector(rng) + (0,))
                 for _ in range(2)]
        # reflections in x = a (e + t f) + j w act on the discriminant
        block = model.k3.blocks_named("U")[0]
        for a, t, j in ((1, 1, 1), (2, -1, 1), (1, 3, 2)):
            x = [0] * lat.rank
            x[block.start] = a
            x[block.start + 1] = a * t
            x[-1] = j
            try:
                gens.append(general_reflection(lat, tuple(x)))
            except LatticeError:
                pass
    out = []
    g = Isometry.identity(lat)
    for gen in gens:
        g = gen @ g
        out.append(g)
    return lat, out


@pytest.mark.parametrize("name", ["K3", "Mukai", "vperp:2", "vperp:3",
                                  "vperp:7"])
def test_inverse_is_rational_formula(name):
    rng = random.Random(name)
    lat, isos = _lattice_isometries(name, rng)
    a, d = lat.gram_inverse()
    assert d == abs(linalg.det(lat.gram))
    ginv = linalg.mat_inv_q(lat.gram)
    assert a == linalg.freeze([x * d for x in row] for row in ginv)
    for g in isos:
        expected = linalg.mat_mul(
            linalg.mat_mul(ginv, linalg.transpose(g.matrix)), lat.gram)
        inv = g.inverse()
        assert all(isinstance(x, int) for row in inv.matrix for x in row)
        assert inv.matrix == expected
        assert (g @ inv).is_identity()
        for _ in range(3):
            y = random_vector(lat, rng, bound=10**6)
            assert g.preimage(g.apply(y)) == y
            assert g.preimage(y) == inv.apply(y)


def test_gram_inverse_denominator():
    assert k3_lattice().gram_inverse()[1] == 1
    assert mukai_lattice().gram_inverse()[1] == 1
    for m in (1, 2, 3, 7):
        assert vperp_model(m).lattice.gram_inverse()[1] == 2 * m


def test_inverse_of_non_isometry_raises():
    # the identity except w -> w + e.1 on K3 + <-6>: G^{-1} M^T G is not
    # integral
    lat = vperp_model(3).lattice
    n = lat.rank
    rows = [list(r) for r in linalg.identity(n)]
    rows[lat.basis_labels.index("e.1")][n - 1] = 1
    m = Isometry(lat, linalg.freeze(rows))
    with pytest.raises(LatticeError, match="inverse not integral"):
        m.inverse()
    # M^T G f.1 = e.1 + w, and G^{-1} (e.1 + w) = f.1 - w/6
    f1 = lat.basis_vector("f.1")
    with pytest.raises(LatticeError, match="inverse not integral"):
        m.preimage(f1)
