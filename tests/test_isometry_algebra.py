"""Structured products with reflections and transvections, the integer
G^{-1} behind `Isometry.inverse`, and the sparse
Gram rows behind `Lattice.pair`, `square` and `covector`."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import linalg
from mukailat.characters import general_reflection, reflection
from mukailat.embeddings import eichler_transvection
from mukailat.lattices import (
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    check_isometry,
    e8_minus,
    hyperbolic_plane,
    k3_lattice,
    mukai_lattice,
)
from mukailat.fourier_mukai import elliptic_phi
from mukailat.stabilizer import GeneratorFamily, vperp_model

from conftest import random_vector

FAMILY = GeneratorFamily(vperp_model(2))


def integer_matrix(n, bound=10**6):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(linalg.freeze)


def dense_outer(s, terms):
    """s I + sum_k b_k c_k^T entry by entry, the reference for the outer
    form (s, terms) of a reflection or transvection."""
    n = len(terms[0][1])
    return tuple(tuple(s * (i == j) + sum(b[i] * c[j] for b, c in terms)
                       for j in range(n)) for i in range(n))


def assert_compose_is_dense_product(gen, m):
    """gen @ m through the structured form equals mat_mul, for any integer
    matrix m (not an isometry, so it takes the unverified path)."""
    assert gen.outer is not None
    dense = Isometry(gen.lattice, gen.matrix)
    assert dense.outer is None
    expected = linalg.mat_mul(gen.matrix, m)
    assert (gen @ Isometry._trusted(gen.lattice, m)).matrix == expected
    assert (dense @ Isometry._trusted(gen.lattice, m)).matrix == expected


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
        linalg.mat_mul(dense_outer(s, terms), m)


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


def _outer_generators(kind, rnd):
    """Isometries kept in outer form (`_trusted(..., outer=...)`), one
    family per kind, with entries up to 10^30 where the family allows
    them."""
    if kind == "pm2":
        mukai = mukai_lattice()
        return [reflection(mukai, FAMILY.sample_pm2_vector(rnd) + (0, 0)),
                FAMILY.tau_letter(rnd).to_isometry(FAMILY.model)]
    if kind == "general":
        n = rnd.randint(2, 12)
        lat = build_lattice(("K3", ("diag", (2 - 2 * n,))))
        delta = tuple(1 if i == 22 else 0 for i in range(23))
        return [general_reflection(lat, delta),
                general_reflection(lat, FAMILY.sample_pm2_vector(rnd) + (0,))]
    if kind == "transvection":
        return [_random_transvection(k3_lattice(), rnd, 10**30)]
    return [elliptic_phi(rnd.randint(2, 60))[0]]


def _random_transvection(lat, rnd, bound):
    """t(e, a) for e a basis vector of a hyperbolic block and a random a
    orthogonal to it."""
    ublock = rnd.choice(lat.blocks_named("U"))
    use_f = rnd.random() < 0.5
    e = tuple(1 if i == ublock.start + use_f else 0 for i in range(lat.rank))
    a = list(random_vector(lat, rnd, bound=bound, density=0.4))
    a[ublock.start + 1 - use_f] = 0  # (e, a) = 0
    return eichler_transvection(lat, e, tuple(a))


@pytest.mark.parametrize("kind", ["pm2", "general", "transvection", "phi"])
@settings(max_examples=15, deadline=None)
@given(rnd=st.randoms(use_true_random=False), data=st.data())
def test_outer_form_matches_dense(kind, rnd, data):
    # apply and hash on a generator whose matrix has not been read, then ==
    # and the lazily built matrix
    for gen in _outer_generators(kind, rnd):
        lat = gen.lattice
        dense = Isometry(lat, dense_outer(*gen.outer))
        x = data.draw(st.tuples(*[st.integers(-10**30, 10**30)] * lat.rank))
        assert gen.apply(x) == linalg.mat_vec(dense.matrix, x)
        assert hash(gen) == hash(dense)
        assert gen == dense and repr(gen) == repr(dense)
        assert gen.matrix == dense.matrix


def test_apply_checks_length(mukai, rng):
    # a 23-entry vector is not fixed by a Mukai reflection, in either form
    gen = reflection(mukai, FAMILY.sample_pm2_vector(rng) + (0, 0))
    for g in (gen, Isometry(mukai, gen.matrix)):
        for v in ((1,) * 23, (1,) * 25):
            with pytest.raises(LatticeError):
                g.apply(v)


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


@pytest.mark.parametrize("name", ["K3", "Mukai", "vperp:1", "vperp:2",
                                  "vperp:3", "vperp:7", "vperp:30"])
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
    m = Isometry._trusted(lat, linalg.freeze(rows))
    with pytest.raises(LatticeError, match="inverse not integral"):
        m.inverse()


# -- the Gram form from its nonzero entries -----------------------------------

# the Gram of Lambda = span{(1,0,0), sigma, f, (0,0,1)} in `elliptic_phi`: a
# lattice not built from blocks
GRAM_LAMBDA = ((0, 0, 0, -1), (0, -2, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))
PAIRING_LATTICES = {
    "U": hyperbolic_plane(),
    "E8_minus": e8_minus(),
    "K3": k3_lattice(),
    "Mukai": mukai_lattice(),
    "diag(1:-3:0)": build_lattice((("diag", (1, -3, 0)),)),
    "vperp:1": vperp_model(1).lattice,
    "vperp:2": vperp_model(2).lattice,
    "vperp:30": vperp_model(30).lattice,
    "Lambda": Lattice(GRAM_LAMBDA, ("h0", "sigma", "f", "h4")),
}
INT_ENTRIES = st.one_of(st.just(0), st.integers(-10**40, 10**40))
FRACTION_ENTRIES = st.one_of(
    st.just(0), st.integers(-10**40, 10**40),
    st.fractions(max_denominator=10**12).map(lambda q: q * 10**30))


@pytest.mark.parametrize("name", sorted(PAIRING_LATTICES))
@pytest.mark.parametrize("entries", [INT_ENTRIES, FRACTION_ENTRIES],
                         ids=["int", "fraction"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pair_square_covector_are_dense(name, entries, data):
    lat = PAIRING_LATTICES[name]
    vec = st.lists(entries, min_size=lat.rank, max_size=lat.rank).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    gx = linalg.mat_vec(lat.gram, x)
    assert lat.covector(x) == gx
    assert lat.pair(y, x) == sum(a * b for a, b in zip(y, gx))
    assert lat.pair(x, y) == lat.pair(y, x)
    assert lat.square(x) == sum(a * b for a, b in zip(x, gx))
    if entries is INT_ENTRIES:
        assert isinstance(lat.pair(x, y), int)
        assert all(isinstance(c, int) for c in lat.covector(x))


@pytest.mark.parametrize("name", sorted(PAIRING_LATTICES))
def test_sparse_rows_leave_identity_alone(name):
    # the cached rows take no part in ==, hash or repr, and every method
    # that reads them checks the vector length
    lat = PAIRING_LATTICES[name]
    twin = Lattice(lat.gram, lat.basis_labels, lat.blocks, lat.name)
    assert twin == lat and hash(twin) == hash(lat)
    assert hash(lat) == hash((lat.gram, lat.basis_labels, lat.blocks,
                              lat.name))
    assert repr(twin) == repr(lat) and "_rows" not in repr(lat)
    assert "_hash" not in repr(lat)
    short = (1,) * (lat.rank - 1)
    ok = (0,) * lat.rank
    for call in (lambda: lat.pair(short, ok), lambda: lat.pair(ok, short),
                 lambda: lat.square(short), lambda: lat.covector(short),
                 lambda: lat.covector(ok + (1,))):
        with pytest.raises(LatticeError, match="does not match"):
            call()


def test_pair_with_fraction_lift():
    # w/2m on v-perp: q = -1/2m, the value the v-perp cross-check uses
    lat = PAIRING_LATTICES["vperp:30"]
    lift = (Fraction(0),) * 22 + (Fraction(1, 60),)
    assert lat.square(lift) == Fraction(-1, 60)
    assert lat.covector(lift) == (0,) * 22 + (-1,)


# -- check_isometry against the dense M^T G M ---------------------------------


def dense_preserves(gram, m):
    """The oracle: M^T G M == G, every entry formed densely."""
    cols = list(zip(*m))
    mt_g = [[sum(map(mul, c, gc)) for gc in zip(*gram)] for c in cols]
    return [[sum(map(mul, r, c)) for c in cols]
            for r in mt_g] == [list(r) for r in gram]


def _reflection_generators(lat):
    """Reflections, as dense matrices, in the basis vectors b_i and the
    b_i +- b_j (i < j) that give an integral reflection."""
    n = lat.rank
    basis = linalg.identity(n)
    candidates = list(basis) + [
        tuple(a + s * b for a, b in zip(basis[i], basis[j]))
        for i in range(n) for j in range(i + 1, n) for s in (1, -1)]
    gens = []
    for u in candidates:
        try:
            gens.append(general_reflection(lat, u).matrix)
        except LatticeError:
            pass
    return gens


GENERATORS = {name: _reflection_generators(lat)
              for name, lat in PAIRING_LATTICES.items()}


def _sampled_isometry(name, data, max_letters=6):
    gens = GENERATORS[name]
    m = linalg.identity(PAIRING_LATTICES[name].rank)
    for k in data.draw(st.lists(st.integers(0, len(gens) - 1),
                                max_size=max_letters)):
        m = linalg.mat_mul(m, gens[k])
    return m


def _perturbed(m, i, j, delta):
    rows = [list(r) for r in m]
    rows[i][j] += delta
    return linalg.freeze(rows)


@pytest.mark.parametrize("name", sorted(PAIRING_LATTICES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_check_isometry_is_dense_check(name, data):
    lat = PAIRING_LATTICES[name]
    n = lat.rank
    m = _sampled_isometry(name, data)
    assert dense_preserves(lat.gram, m)
    check = check_isometry(lat, m)
    assert check.is_isometry and check.matrix == m
    positions = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=12))
    # check_isometry packs each row into slots of s bits; deltas of exactly
    # +-2^k, k up to twice that width, move an entry onto slot boundaries
    s = 2 * max(x.bit_length() for row in m for x in row) \
        + (n * max(sum(map(abs, row)) for row in lat.gram)).bit_length() + 1
    powers = st.builds(lambda k, sign: sign * 2**k, st.integers(0, 2 * s),
                       st.sampled_from((1, -1)))
    for i, j in positions:
        delta = data.draw(st.one_of(st.integers(-3, 3),
                                    st.integers(-10**40, 10**40), powers)
                          .filter(bool))
        bad = _perturbed(m, i, j, delta)
        assert check_isometry(lat, bad).is_isometry == \
            dense_preserves(lat.gram, bad), (i, j, delta)


@pytest.mark.parametrize("name", sorted(PAIRING_LATTICES))
def test_check_isometry_perturbed_at_every_position(name):
    # one entry of an isometry moved, at each position in turn: above,
    # on and below the diagonal, and in the zero row of diag(1:-3:0),
    # where the change keeps M an isometry
    lat = PAIRING_LATTICES[name]
    n = lat.rank
    rng = random.Random(name)
    m = linalg.identity(n)
    for _ in range(5):
        m = linalg.mat_mul(m, rng.choice(GENERATORS[name]))
    assert check_isometry(lat, m).is_isometry
    outcomes = set()
    for i in range(n):
        for j in range(n):
            bad = _perturbed(m, i, j, rng.choice((-2, -1, 1, 2)))
            expected = dense_preserves(lat.gram, bad)
            assert check_isometry(lat, bad).is_isometry == expected, (i, j)
            outcomes.add(expected)
    assert False in outcomes
    if name == "diag(1:-3:0)":
        assert True in outcomes


def test_check_isometry_slots_are_wide_enough():
    # on U, M_w = ((-(2^w + 1), 1), (4^w, -(2^w + 1))) is no isometry, yet
    # packed into slots of w bits the rows of M^T G M equal those of G:
    # the slot width check_isometry picks from M's entries must not be w
    u = hyperbolic_plane()
    for w in range(1, 80):
        m = ((-(2**w + 1), 1), (4**w, -(2**w + 1)))
        assert not dense_preserves(u.gram, m)
        mtgm = [[sum(m[k][i] * u.gram[k][l] * m[l][j]
                     for k in range(2) for l in range(2)) for j in range(2)]
                for i in range(2)]
        packed = [[row[0] + (row[1] << w) for row in x]
                  for x in (mtgm, u.gram)]
        assert packed[0] == packed[1]
        assert not check_isometry(u, m).is_isometry


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(1), 1.0, 0.0,
                                   "1", None])
def test_check_isometry_needs_integer_entries(entry):
    # rows are packed with <<, which only ints support: any other entry
    # is refused as a LatticeError, and so as a usage error by the CLI
    lat = mukai_lattice()
    rows = [list(r) for r in linalg.identity(lat.rank)]
    rows[3][5] = entry
    with pytest.raises(LatticeError, match="integer entries"):
        check_isometry(lat, rows)
    with pytest.raises(LatticeError, match="integer entries"):
        Isometry(lat, rows)


@pytest.mark.parametrize("gram", [
    ((Fraction(1, 2), 0), (0, 1)),
    ((2, 1.0), (1.0, 2)),
    ((2, 1), (1, Fraction(2))),
], ids=["half", "float", "integral-fraction"])
def test_lattice_needs_an_integer_gram(gram):
    # so the Gram matrix check_isometry packs is integral too
    with pytest.raises(LatticeError, match="integer entries"):
        Lattice(gram, ("a", "b"))
