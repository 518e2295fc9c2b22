"""The v-perp model, discriminant actions, orbits, Sym3 relations, factor."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from mukailat import embeddings, linalg, stabilizer
from mukailat.lattices import (
    Isometry,
    LatticeError,
    check_isometry,
    discriminant_group,
    is_primitive,
)
from mukailat.characters import general_reflection, reflection
from mukailat.fourier_mukai import mon_twist
from mukailat.mukai import MukaiVector, mukai_pairing
from mukailat.stabilizer import (
    ExtensionKind,
    Gamma0Letter,
    GeneratorFamily,
    GeneratorWord,
    InvariantError,
    Minus2Orbit,
    NotInGammaV,
    TauLetter,
    aplus_witness,
    classify_minus2,
    disc_action,
    disc_group_order,
    disc_lift,
    factor,
    generator_family,
    in_gamma_v,
    nontrivial_disc_isometry,
    normalize_word,
    pair_witness_peel,
    sym3_triple,
    vperp_model,
    w_membership,
)
from mukailat.stabilizer import _prime_powers, _square_roots_of_one

from conftest import fail_enumeration, label_vector


def brute_force_roots(m):
    """The oracle: the u in [1, 2m) with u^2 = 1 mod 4m, found by trying
    every odd u (an even u has u^2 = 0 mod 4)."""
    return [u for u in range(1, 2 * m, 2) if u * u % (4 * m) == 1]


@pytest.fixture(scope="module")
def m3():
    return vperp_model(3)


@pytest.fixture
def no_enumeration(monkeypatch):
    monkeypatch.setattr(embeddings, "_enumerate_witness", fail_enumeration)


def u1_vector(model, a, b):
    """a e + b f in the first U block of the K3 lattice."""
    return model.k3.plane_vector(model.k3.blocks_named("U")[0], a, b)


# Mukai coordinates (index: entry) of the 30 reflections of a sampled
# element at m = 30 whose second witness search clears a 2,297-bit class
# part in 491 transvections
LONG_CLEARING_LETTERS = (
    {3: 1, 18: 1, 19: 2}, {16: -1, 17: -29, 22: 1, 23: 30}, {6: 1},
    {16: 28, 17: -29, 20: 29, 21: 29, 22: 1, 23: 30},
    {4: 31, 5: 31, 16: 30, 17: 33, 22: 1, 23: 30},
    {16: -1, 17: -29, 22: 1, 23: 30}, {16: 29, 17: 1, 22: 1, 23: 30},
    {16: -1, 17: -29, 22: 1, 23: 30}, {16: -1, 17: -29, 22: 1, 23: 30},
    {16: 1, 17: -2, 18: 1, 19: 1}, {8: -1},
    {16: -105, 17: -129, 18: -129, 19: 129, 20: 25, 21: 125, 22: 1, 23: 30},
    {16: -1, 17: -29, 22: 1, 23: 30}, {16: 1, 17: -4, 20: 1, 21: 3},
    {5: -29, 16: -30, 17: -29, 22: 1, 23: 30}, {16: 1, 17: 2, 18: 1, 19: -1},
    {16: -1, 17: -29, 22: 1, 23: 30}, {16: 1, 17: 1},
    {16: -1, 17: -29, 22: 1, 23: 30}, {0: 1, 16: -1, 17: -2}, {16: 1, 17: 1},
    {20: 1, 21: -1}, {18: 1, 19: 2, 20: 1, 21: -1},
    {16: -1, 17: -29, 22: 1, 23: 30},
    {16: 32, 17: 103, 20: 33, 21: -99, 22: 1, 23: 30},
    {16: -1, 17: -29, 22: 1, 23: 30}, {12: 1}, {3: 1},
    {1: 29, 16: -30, 17: -29, 22: 1, 23: 30},
    {16: -1, 17: -29, 22: 1, 23: 30},
)


class TestModel:
    @pytest.mark.parametrize("m", [
        *range(1, 200),
        *random.Random(2003).sample(range(200, 10**12), 50)])
    def test_disc_cyclic(self, m):
        # the closed-form group is the one the Smith elimination finds:
        # divisors, lifts and q-values
        model = vperp_model(m)
        dg = discriminant_group(model.lattice)
        assert dg == model.disc_group
        assert dg.divisors == (2 * m,)
        assert model.disc_group.q_values == (Fraction(-1, 2 * m) % 2,)

    def test_w_square(self, m3):
        w = m3.w
        assert mukai_pairing(w, w) == -6
        assert m3.lattice.gram[-1][-1] == -6

    def test_v_square(self):
        model = vperp_model(1)
        assert mukai_pairing(model.v, model.v) == 2

    def test_q_values(self, m3):
        # q(w/6) = -1/6 mod 2 on Z/6
        assert m3.disc_group.q_values == (Fraction(-1, 6) % 2,)

    def test_restrict_roundtrip(self, m3, rng):
        fam = generator_family(3)
        word = fam.sample_word(rng, 3)
        g = word.product()
        restricted = m3.restrict(g)
        # the restriction acts on v-perp vectors exactly as g does
        for _ in range(10):
            coords = tuple(rng.randint(-4, 4) for _ in range(23))
            x = m3.from_perp_coords(coords)
            image = MukaiVector.from_coords(g.apply(x.coords()))
            assert m3.to_perp_coords(image) == restricted.apply(coords)


def restrict_by_unit_vectors(model, g):
    """The restriction of g to v-perp, one basis vector at a time: the image
    of each v-perp basis vector under g, in v-perp coordinates."""
    n = model.lattice.rank
    cols = []
    for j in range(n):
        basis = model.from_perp_coords(
            tuple(1 if i == j else 0 for i in range(n)))
        image = MukaiVector.from_coords(g.apply(basis.coords()))
        cols.append(model.to_perp_coords(image))
    return linalg.transpose(linalg.freeze(cols))


class TestRestrict:
    @pytest.mark.parametrize("m", [1, 7, 30, 10**12])
    def test_matches_unit_vector_images(self, m, rng):
        model = vperp_model(m)
        fam = generator_family(m)
        for length in (0, 1, 3, 8):
            g = fam.sample_word(rng, length).product()
            restricted = model.restrict(g)
            assert restricted.lattice == model.lattice
            assert restricted.matrix == restrict_by_unit_vectors(model, g)

    def test_restriction_is_kept_per_model(self, m3, rng):
        # an extended K3 isometry fixes h0 and h4, so v for every m
        h = reflection(m3.k3, generator_family(3).sample_pm2_vector(rng))
        g = m3.extend_k3(h)
        first = m3.restrict(g)
        assert m3.restrict(g) is first
        other = vperp_model(5)
        again = other.restrict(g)
        assert again is not first and again.lattice == other.lattice
        assert again.matrix == restrict_by_unit_vectors(other, g)
        fresh = m3.restrict(g)
        assert fresh is not first and fresh == first

    def test_slot_is_not_compared(self, m3, rng):
        g = generator_family(3).sample_word(rng, 4).product()
        bare = Isometry._trusted(g.lattice, g.matrix)
        m3.restrict(g)
        assert hasattr(g, "_restricted") and not hasattr(bare, "_restricted")
        assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)

    @pytest.mark.parametrize("length", [1, 2, 5, 8])
    def test_mon_twist_reads_the_kept_restriction(self, m3, length,
                                                 monkeypatch):
        # a second restriction would build restricted.matrix again; the
        # twist builds only its negation, when cov(g) = 1
        g = generator_family(3).sample_word(random.Random(length),
                                            length).product()
        restricted = m3.restrict(g)
        built = []
        trusted = Isometry._trusted.__func__

        def spy(cls, lattice, matrix=None, outer=None):
            built.append(matrix)
            return trusted(cls, lattice, matrix, outer)

        monkeypatch.setattr(Isometry, "_trusted", classmethod(spy))
        twisted = mon_twist(m3, g)
        assert restricted.matrix not in built
        assert twisted.matrix == restricted.matrix or \
            twisted.matrix == linalg.mat_neg(restricted.matrix)

    def test_non_fixing_isometry(self, m3):
        with pytest.raises(NotInGammaV, match="does not fix v"):
            m3.restrict(Isometry.identity(m3.mukai).negate())

    def test_image_outside_v_perp(self, m3):
        # e.1 -> e.1 + h4 fixes v = h0 - m h4 (an unchecked matrix, not an
        # isometry), but the image of e.1 has s = 1 != m r = 0
        labels = m3.mukai.basis_labels
        rows = [list(r) for r in linalg.identity(m3.mukai.rank)]
        rows[labels.index("h4")][labels.index("e.1")] = 1
        g = Isometry._trusted(m3.mukai, linalg.freeze(rows))
        assert g.fixes(m3.v.coords())
        with pytest.raises(LatticeError, match="not orthogonal to v") as exc:
            m3.restrict(g)
        assert exc.type is LatticeError


class TestDiscAction:
    def test_identity(self, m3):
        assert disc_action(m3, Isometry.identity(m3.lattice)) == 1

    def test_minus_identity(self, m3):
        assert disc_action(m3, Isometry.identity(m3.lattice).negate()) == 5

    def test_gamma_v_reflection(self, m3, rng):
        fam = generator_family(3)
        tau = fam.tau_letter(rng)
        restricted = m3.restrict(tau.to_isometry(m3))
        assert disc_action(m3, restricted) == 1

    def test_disc_coordinates_crosscheck(self, m3, rng):
        # independent oracle: push the generator lift w/6 through g and read
        # the unit off with exact rational arithmetic
        fam = generator_family(3)
        word = fam.sample_word(rng, 2)
        g = m3.restrict(word.product())
        lift = tuple(Fraction(0) if i < 22 else Fraction(1, 6)
                     for i in range(23))
        image = [sum(Fraction(g.matrix[i][j]) * lift[j] for j in range(23))
                 for i in range(23)]
        u = disc_action(m3, g)
        delta = [image[i] - u * lift[i] for i in range(23)]
        assert all(x.denominator == 1 for x in delta)

    def test_q_preservation_units(self):
        for m in (2, 5, 6, 12):
            model = vperp_model(m)
            minus = Isometry.identity(model.lattice).negate()
            u = disc_action(model, minus)
            assert (u * u - 1) % (4 * m) == 0

    def test_w_image_off_the_discriminant_trips(self, m3):
        # a 1 in row 0 of w's column: g(w) has a K3 part that is not 0 mod
        # 2m, which no isometry of v-perp gives
        rows = [list(r) for r in linalg.identity(m3.lattice.rank)]
        rows[0][-1] = 1
        g = Isometry._trusted(m3.lattice, linalg.freeze(rows))
        with pytest.raises(InvariantError, match=(
                "^induced map on the discriminant is not multiplication by "
                "a unit$")):
            disc_action(m3, g)

    def test_unit_not_preserving_q_trips(self):
        # w -> 3w at m = 7: 3^2 = 9 is not 1 mod 28, so q(w/14) moves
        model = vperp_model(7)
        rows = [list(r) for r in linalg.identity(model.lattice.rank)]
        rows[-1][-1] = 3
        g = Isometry._trusted(model.lattice, linalg.freeze(rows))
        with pytest.raises(InvariantError, match="^q is not preserved$"):
            disc_action(model, g)


class TestInGammaV:
    def test_m1_minus_id(self):
        model = vperp_model(1)
        g = Isometry.identity(model.lattice).negate()
        assert in_gamma_v(model, g) is ExtensionKind.IN_GAMMA_V

    def test_m2_minus_id(self):
        model = vperp_model(2)
        g = Isometry.identity(model.lattice).negate()
        assert in_gamma_v(model, g) is \
            ExtensionKind.EXTENDS_SENDING_V_TO_MINUS_V

    def test_m6_does_not_extend(self):
        model = vperp_model(6)
        g = nontrivial_disc_isometry(model)
        assert g is not None
        assert disc_action(model, g) not in (1, 11)
        assert in_gamma_v(model, g) is ExtensionKind.DOES_NOT_EXTEND
        assert not w_membership(model, g)


class TestNontrivialDiscIsometry:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 9])
    def test_prime_power_gives_none(self, m):
        # (Z/2m)^x has only the square roots +-1 of 1 mod 4m
        assert nontrivial_disc_isometry(vperp_model(m)) is None

    @pytest.mark.parametrize("m", [6, 10, 12, 14, 15, 24])
    def test_action_outside_pm1(self, m):
        model = vperp_model(m)
        g = nontrivial_disc_isometry(model)
        assert g is not None
        assert check_isometry(model.lattice, g.matrix).is_isometry
        u = disc_action(model, g)
        assert u not in (1, 2 * m - 1)
        assert (u * u - 1) % (4 * m) == 0


    def test_none_exactly_for_prime_powers(self):
        for m in range(1, 61):
            model = vperp_model(m)
            g = nontrivial_disc_isometry(model)
            assert (g is None) == (len(sympy.primefactors(m)) <= 1)
            if g is not None:
                # the lift of the least root in (1, 2m - 1)
                least = min(u for u in brute_force_roots(m)
                            if 1 < u < 2 * m - 1)
                assert disc_action(model, g) == least

    def test_large_m(self):
        m = 2 * 3 * (10**12 + 39)  # 10^12 + 39 is prime
        assert _prime_powers(m) == {2: 1, 3: 1, 10**12 + 39: 1}
        model = vperp_model(m)
        g = nontrivial_disc_isometry(model)
        u = disc_action(model, g)
        assert 1 < u < 2 * m - 1
        assert (u * u - 1) % (4 * m) == 0


class TestDiscLift:
    def test_every_unit_lifts_up_to_200(self):
        for m in range(1, 201):
            model = vperp_model(m)
            roots = [u for u in range(2 * m) if (u * u - 1) % (4 * m) == 0]
            assert len(roots) == 2 ** len(sympy.primefactors(m))
            for u in roots:
                g = disc_lift(model, u)
                Isometry(model.lattice, g.matrix)
                assert disc_action(model, g) == u

    @pytest.mark.parametrize("u", [1, -1])
    def test_pm1_at_large_m(self, u):
        m = 10**12 + 2
        model = vperp_model(m)
        g = disc_lift(model, u)
        Isometry(model.lattice, g.matrix)
        assert disc_action(model, g) == u % (2 * m)

    def test_non_root_rejected(self):
        model = vperp_model(15)
        for u in (0, 3, 2, 7, 30):
            with pytest.raises(LatticeError):
                disc_lift(model, u)
        assert disc_action(model, disc_lift(model, 11 + 30)) == 11


class TestWMembership:
    def test_reflection_in_minus2(self, m3, rng):
        fam = generator_family(3)
        tau = fam.tau_letter(rng)
        assert w_membership(m3, m3.restrict(tau.to_isometry(m3)))

    def test_minus_id_rank23(self, m3):
        g = Isometry.identity(m3.lattice).negate()
        assert not w_membership(m3, g)

    def test_mukai_isometry_rejected(self, m3, mukai):
        # the lattice is checked before the orientation character, which is
        # 1 here and would otherwise answer False
        plus = reflection(mukai, mukai.plane_vector(
            mukai.blocks_named("U")[0], 1, 1))
        with pytest.raises(LatticeError, match="isometry of v-perp"):
            w_membership(m3, plus)


class TestOrbits:
    def test_m1_lattice_class(self):
        model = vperp_model(1)
        v0 = MukaiVector(1, (0,) * 22, 1)
        assert classify_minus2(model, v0) is Minus2Orbit.A_PLUS

    def test_m5_witness(self, k3):
        model = vperp_model(5)
        c = label_vector(k3, **{"e.1": 2, "f.1": 2})
        v0 = MukaiVector(1, c, 5)
        assert mukai_pairing(v0, v0) == -2
        assert classify_minus2(model, v0) is Minus2Orbit.A_PLUS

    def test_m3_odd_class(self, m3, k3):
        c = label_vector(k3, **{"e.1": -1, "f.1": -2})
        v0 = MukaiVector(1, c, 3)
        assert mukai_pairing(v0, v0) == -2
        assert classify_minus2(m3, v0) is Minus2Orbit.A_MINUS

    def test_not_minus2_rejected(self, m3):
        with pytest.raises(LatticeError):
            classify_minus2(m3, MukaiVector(1, (0,) * 22, -3))

    def test_orbit_constant_on_gamma_v(self, m3, rng):
        fam = generator_family(3)
        c = label_vector(m3.k3, **{"e.1": -1, "f.1": -2})
        v0 = MukaiVector(1, c, 3)
        cls = classify_minus2(m3, v0)
        for _ in range(12):
            word = fam.sample_word(rng, rng.randint(0, 4))
            image = MukaiVector.from_coords(
                word.product().apply(v0.coords())
            )
            assert classify_minus2(m3, image) is cls


class TestAPlusWitness:
    @pytest.mark.parametrize("m", [1, 5, 9, 13])
    def test_exists(self, m):
        v0 = aplus_witness(m)
        assert v0 is not None
        assert mukai_pairing(v0, v0) == -2
        assert classify_minus2(vperp_model(m), v0) is Minus2Orbit.A_PLUS

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 7, 11])
    def test_impossible(self, m):
        assert aplus_witness(m) is None


class TestPairWitness:
    def test_split_m1(self, k3):
        l0 = label_vector(k3, **{"e.1": 1, "f.1": 3})  # square 6 = 2*4*1-2
        l1, l2 = pair_witness_peel(1, l0, 2)
        assert k3.square(l1) == 0 and k3.square(l2) == 0
        assert k3.pair(l1, l2) == 3

    def test_split_wrong_square_rejected(self, k3):
        l0 = label_vector(k3, **{"e.1": 1, "f.1": 2})  # square 4, not 6
        with pytest.raises(LatticeError,
                           match=r"^\(lambda_1, lambda_1\) = 4 != 6$"):
            pair_witness_peel(1, l0, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_split_various(self, m, k3):
        for r in (2, 3, 4):
            # L0 = e + k f with 2k = 2 r^2 m - 2; L1 has rank one and L2
            # rank r - 1, with the pair conditions for (1, r - 1)
            l0 = label_vector(k3, **{"e.1": 1, "f.1": r * r * m - 1})
            l1, l2 = pair_witness_peel(m, l0, r)
            assert linalg.vec_add(l1, l2) == l0
            assert k3.square(l1) == 2 * m - 2
            assert k3.square(l2) == 2 * (r - 1) ** 2 * m - 2
            assert k3.pair(l1, l2) == 1 + 2 * (r - 1) * m
            assert is_primitive(k3, l2)


class TestSym3:
    def test_m1_example(self, k3):
        v1 = MukaiVector(1, label_vector(k3, **{"e.1": -1}), 1)
        v2 = MukaiVector(1, label_vector(k3, **{"f.1": -3}), 1)
        assert mukai_pairing(v1, v2) == 1
        report = sym3_triple(1, v1, v2)
        assert report["all"]

    def test_equal_vectors_rejected(self, k3):
        # (v1, v1) = -2, not 1: L1.L2 = 0, not 1 + 2abm = 3
        v1 = MukaiVector(1, label_vector(k3, **{"e.1": -1}), 1)
        with pytest.raises(LatticeError, match="L1.L2 condition fails"):
            sym3_triple(1, v1, v1)

    def test_wrong_shape_rejected(self, k3):
        v1 = MukaiVector(1, label_vector(k3, **{"e.1": -1}), 2)
        v2 = MukaiVector(1, label_vector(k3, **{"f.1": -3}), 1)
        with pytest.raises(LatticeError, match=r"must have the shape"):
            sym3_triple(1, v1, v2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_from_pair_witness(self, m, k3):
        r = 3
        l0 = label_vector(k3, **{"e.1": 1, "f.1": r * r * m - 1})
        l1, l2 = pair_witness_peel(m, l0, r)
        v1 = MukaiVector(1, linalg.vec_neg(l1), m)
        v2 = MukaiVector(r - 1, linalg.vec_neg(l2), (r - 1) * m)
        assert sym3_triple(m, v1, v2)["all"]


class TestGeneratorFamily:
    def test_letters_fix_v(self, rng):
        for m in (1, 2, 3):
            model = vperp_model(m)
            fam = generator_family(m)
            for _ in range(6):
                letter = fam.letter(rng)
                iso = letter.to_isometry(model)
                assert iso.fixes(model.v.coords())
                assert iso.det() == -1

    def test_character_values(self, rng):
        from mukailat.characters import covariance

        model = vperp_model(2)
        fam = generator_family(2)
        seen = set()
        for _ in range(25):
            letter = fam.letter(rng)
            iso = letter.to_isometry(model)
            pair = (iso.det(), covariance(iso))
            assert pair in ((-1, 0), (-1, 1))
            seen.add(pair)
        assert seen == {(-1, 0), (-1, 1)}, \
            "both character pairs should be realized"


class TestFactor:
    def test_identity_empty_word(self):
        model = vperp_model(2)
        word = factor(model, Isometry.identity(model.mukai))
        assert word.letters == ()

    def test_single_tau(self, rng):
        model = vperp_model(3)
        fam = generator_family(3)
        tau = fam.tau_letter(rng)
        word = factor(model, tau.to_isometry(model))
        assert len(word.letters) == 1
        assert isinstance(word.letters[0], TauLetter)

    def test_gamma0_alone(self, rng):
        model = vperp_model(2)
        fam = generator_family(2)
        g0 = fam.gamma0_letter(rng)
        word = factor(model, g0.to_isometry(model))
        assert len(word.letters) == 1
        assert isinstance(word.letters[0], Gamma0Letter)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_never_multiplies_its_word(self, monkeypatch, normalize):
        # factor proves that its word multiplies to g (see its docstring),
        # so it returns with GeneratorWord.product gone; the m = 5 letter
        # (3, -2 L', 15) is an imprimitive odd-rank class, which
        # normalize_word factors again
        model = vperp_model(5)
        fam = generator_family(5)
        rng = random.Random(5)
        inputs = [fam.sample_word(rng, n).product() for n in (1, 5, 15)]
        odd = GeneratorWord(model, (TauLetter(MukaiVector(
            3, linalg.vec_neg(u1_vector(model, 2, 22)), 15)),))
        odd_g = odd.product()
        monkeypatch.setattr(
            GeneratorWord, "product",
            lambda word: pytest.fail("factor multiplied its word"))
        words = [factor(model, g, normalize=normalize) for g in inputs]
        norm = normalize_word(odd)
        monkeypatch.undo()
        for g, word in zip(inputs, words):
            assert word.product() == g
        assert norm.product() == odd_g

    def test_residual_check_trips(self, monkeypatch, rng):
        # with every reflection the identity, x never reaches w, so the
        # residual g does not fix w: the one check factor's proof reads
        model = vperp_model(3)
        g = generator_family(3).tau_letter(rng).to_isometry(model)
        monkeypatch.setattr(stabilizer, "reflection",
                            lambda lattice, u: Isometry.identity(lattice))
        with pytest.raises(InvariantError, match=(
                "^the Gamma_0 residual does not fix v and w$")):
            factor(model, g)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_builds_no_tau_matrix(self, m, monkeypatch):
        # each tau is composed into the residual through its outer form and
        # x is read from the residual, so no reflection's matrix is built;
        # at m = 1, tau_w h with h in Gamma_0 sends w to -w, which takes the
        # (1, L, 1) reflection
        fam = generator_family(m)
        model = fam.model
        rng = random.Random(m)
        inputs = [fam.sample_word(rng, n).product() for n in (1, 5, 15, 30)]
        if m == 1:
            h = GeneratorWord(model, tuple(fam.gamma0_letter(rng)
                                           for _ in range(3))).product()
            inputs.append(reflection(model.mukai, model.w.coords()) @ h)
            assert inputs[-1].apply(model.w.coords()) == (-model.w).coords()
        made = []

        def spy(lattice, u):
            made.append(reflection(lattice, u))
            return made[-1]

        monkeypatch.setattr(stabilizer, "reflection", spy)
        for g in inputs:
            factor(model, g, normalize=True)
        assert len(made) >= len(inputs)
        assert all(tau._matrix is None for tau in made)

    def test_rejects_non_stabilizing(self):
        model = vperp_model(2)
        with pytest.raises(NotInGammaV):
            factor(model, Isometry.identity(model.mukai).negate())

    def test_non_isometry_fixing_v_is_typed_error(self):
        # h0 -> h0 + m t, h4 -> h4 + t fixes v = h0 - m h4 but sends w to
        # w + 2m t; with t = e.1 + f.1 the class of g(w) has the wrong square
        model = vperp_model(2)
        n = model.mukai.rank
        labels = model.mukai.basis_labels
        rows = [list(r) for r in linalg.identity(n)]
        for lab in ("e.1", "f.1"):
            rows[labels.index(lab)][labels.index("h0")] = model.m
            rows[labels.index(lab)][labels.index("h4")] = 1
        g = Isometry._trusted(model.mukai, linalg.freeze(rows))
        assert g.fixes(model.v.coords())
        with pytest.raises(NotInGammaV):
            factor(model, g)

    def test_long_clearing_pull_back(self):
        # a 30-letter element at m = 30 (product of the true reflections in
        # these Mukai vectors, in order) whose second witness search clears
        # a class part of some 2300 bits in 491 clearing steps
        model = vperp_model(30)
        g = Isometry.identity(model.mukai)
        for u in LONG_CLEARING_LETTERS:
            u = tuple(u.get(i, 0) for i in range(model.mukai.rank))
            g = g @ general_reflection(model.mukai, u)
        word = factor(model, g, normalize=True)
        assert word.product() == g
        assert all(letter.v0.r in (1, -1) for letter in word.letters
                   if isinstance(letter, TauLetter))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_round_trip(self, m, rng):
        model = vperp_model(m)
        fam = generator_family(m)
        for _ in range(6):
            word_in = fam.sample_word(rng, rng.randint(1, 6))
            g = word_in.product()
            word_out = factor(model, g)
            assert word_out.product().matrix == g.matrix

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_normalized_form(self, m, rng):
        model = vperp_model(m)
        fam = generator_family(m)
        for _ in range(4):
            g = fam.sample_word(rng, rng.randint(1, 5)).product()
            word = factor(model, g, normalize=True)
            assert word.product().matrix == g.matrix
            for letter in word.letters:
                if isinstance(letter, TauLetter):
                    assert letter.v0.r in (1, -1)
                    from mukailat.lattices import is_primitive

                    assert is_primitive(model.k3, letter.v0.c)

    @pytest.mark.parametrize("m", [7, 30])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_length_30(self, m, seed):
        # products of 30 sampled generators have entries of up to about
        # 150 bits; the normalized word still multiplies back to g
        fam = generator_family(m)
        g = fam.sample_word(random.Random(seed), 30).product()
        word = factor(fam.model, g, normalize=True)
        assert word.product() == g
        assert all(letter.v0.r in (1, -1) for letter in word.letters
                   if isinstance(letter, TauLetter))

    def test_m1_w_reflection(self):
        # tau_w at m = 1 sends w to -w; factoring goes through the
        # primitive-isotropic route and still round-trips
        model = vperp_model(1)
        tau_w = reflection(model.mukai, model.w.coords())
        word = factor(model, tau_w, normalize=True)
        assert word.product().matrix == tau_w.matrix
        for letter in word.letters:
            if isinstance(letter, TauLetter):
                assert letter.v0.r in (1, -1)

    def test_normalize_splits_rank_two(self, rng):
        # a hand-built rank-2 tau letter gets rewritten to rank-one letters
        m = 2
        model = vperp_model(m)
        l0 = label_vector(model.k3, **{"e.1": 1, "f.1": 4 * m - 1})
        v0 = MukaiVector(2, linalg.vec_neg(l0), 2 * m)
        assert mukai_pairing(v0, v0) == -2
        word = GeneratorWord(model, (TauLetter(v0),))
        norm = normalize_word(word)
        assert norm.product().matrix == word.product().matrix
        assert norm.tau_ranks() == (1, 1, 1)


class TestNormalizeWord:
    """normalize_word on its own: each Sym3 rewrite keeps the product,
    which factor proves and does not compute."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([1, 2, 3, 7]),
           ranks=st.lists(st.integers(2, 12), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_keeps_the_product(self, m, ranks, seed):
        # tau letters in (a, L, a m), L = e + (m a^2 - 1) f of square
        # 2 m a^2 - 2 moved by up to two K3 reflections, with either sign,
        # between sampled Gamma_0 letters
        fam = generator_family(m)
        rng = random.Random(seed)
        letters = [fam.gamma0_letter(rng)]
        for a in ranks:
            cls = u1_vector(fam.model, 1, m * a * a - 1)
            for _ in range(rng.randrange(3)):
                cls = reflection(fam.model.k3,
                                 fam.sample_pm2_vector(rng)).apply(cls)
            v0 = MukaiVector(a, cls, a * m)
            letters += [TauLetter(rng.choice((v0, -v0))),
                        fam.gamma0_letter(rng)]
        word = GeneratorWord(fam.model, tuple(letters))
        norm = normalize_word(word)
        assert norm.product() == word.product()
        assert all(r in (1, -1) for r in norm.tau_ranks())

    def test_rank_34(self):
        # (a, e + (m a^2 - 1) f, m a) at m = 2, a = 34, as perfbench's
        # rank_tau_vector builds it
        m, a = 2, 34
        model = vperp_model(m)
        v0 = MukaiVector(a, u1_vector(model, 1, m * a * a - 1), m * a)
        word = GeneratorWord(model, (TauLetter(v0),))
        norm = normalize_word(word)
        assert norm.product() == word.product()
        assert all(r in (1, -1) for r in norm.tau_ranks())

    def test_rank_301(self):
        # the canonical tau letter, then one of rank 301 as in test_rank_34:
        # factor's rank-301 letter peels into 601 rank-one letters, next to
        # the rho and final reflections and a Gamma_0 letter
        m, a = 2, 301
        model = vperp_model(m)
        letters = (
            TauLetter(MukaiVector(1, linalg.vec_neg(u1_vector(model, 1, m - 1)),
                                  m)),
            TauLetter(MukaiVector(a, u1_vector(model, 1, m * a * a - 1),
                                  m * a)))
        g = GeneratorWord(model, letters).product()
        word = factor(model, g, normalize=True)
        assert word.tau_ranks() == (1,) * 603
        assert len(word.letters) == 604
        assert word.product() == g


class TestNoWitnessSearch:
    """factor and normalize_word call embed_rank2 only on the K3 lattice
    with a primitive first class, where no witness search enumerates; and
    factor needs at most three reflections, which its four passes allow."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 30])
    def test_sampled_words(self, m, no_enumeration):
        fam = generator_family(m)
        rng = random.Random(m)
        for length in (5, 15, 30):
            for _ in range(3):
                g = fam.sample_word(rng, length).product()
                assert len(factor(fam.model, g).tau_ranks()) <= 3
                word = factor(fam.model, g, normalize=True)
                assert all(r in (1, -1) for r in word.tau_ranks())

    @pytest.mark.parametrize("m, a", [
        (2, 10), (2, 13), (7, 14), (3, 16), (2, 34)])
    def test_rank_tail(self, m, a, no_enumeration):
        # the canonical tau letter, then one in a rank-a class: factor's
        # content, rho and final reflections, the first of rank a
        model = vperp_model(m)
        letters = (
            TauLetter(MukaiVector(1, linalg.vec_neg(u1_vector(model, 1, m - 1)),
                                  m)),
            TauLetter(MukaiVector(a, u1_vector(model, 1, m * a * a - 1),
                                  m * a)))
        g = GeneratorWord(model, letters).product()
        assert factor(model, g).tau_ranks() == (a, 1, -1)
        word = factor(model, g, normalize=True)
        assert all(r in (1, -1) for r in word.tau_ranks())

    def test_minus_w_takes_three_reflections(self, no_enumeration):
        # at m = 1, tau_w h with h in Gamma_0 sends w to -w: factor needs
        # the -w, rho and final reflections, so three passes would not do
        model = vperp_model(1)
        fam = GeneratorFamily(model)
        tau_w = reflection(model.mukai, model.w.coords())
        rng = random.Random(1)
        for length in range(6):
            letters = tuple(fam.gamma0_letter(rng) for _ in range(length))
            g = tau_w @ GeneratorWord(model, letters).product()
            assert g.apply(model.w.coords()) == (-model.w).coords()
            assert len(factor(model, g).tau_ranks()) == 3
            word = factor(model, g, normalize=True)
            assert all(r in (1, -1) for r in word.tau_ranks())

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.sampled_from([1, 2, 3, 7]), r=st.integers(1, 40),
           sign=st.sampled_from([1, -1]), seed=st.integers(0, 2**32 - 1))
    def test_normalize_peels_2r_minus_1_letters(self, m, r, sign, seed,
                                                no_enumeration):
        # sign (r, L, rm), L = e + (m r^2 - 1) f of square 2 m r^2 - 2 moved
        # by up to two K3 reflections: primitive, so the peel alone
        # rewrites it, into r - 1 side letters on each side of the last
        fam = generator_family(m)
        rng = random.Random(seed)
        cls = u1_vector(fam.model, 1, m * r * r - 1)
        for _ in range(rng.randrange(3)):
            cls = reflection(fam.model.k3,
                             fam.sample_pm2_vector(rng)).apply(cls)
        v0 = MukaiVector(r, cls, r * m)
        word = GeneratorWord(fam.model, (TauLetter(v0 if sign > 0 else -v0),))
        norm = normalize_word(word)
        assert norm.tau_ranks() == (1,) * (2 * r - 1)
        assert norm.product() == word.product()

    def test_normalize_rank_zero(self, no_enumeration):
        model = vperp_model(2)
        word = GeneratorWord(
            model, (TauLetter(MukaiVector(0, u1_vector(model, 1, -1), 0)),))
        norm = normalize_word(word)
        assert len(norm.letters) == 1
        assert isinstance(norm.letters[0], Gamma0Letter)
        assert norm.product() == word.product()

    @pytest.mark.parametrize("m", [5, 9, 13])
    def test_normalize_imprimitive_rank_one(self, m, no_enumeration):
        # (1, -2 L0, m) with L0 = e + (m - 1)/4 f, the A_+ witness negated
        model = vperp_model(m)
        c = u1_vector(model, 2, 2 * ((m - 1) // 4))
        v0 = MukaiVector(1, linalg.vec_neg(c), m)
        assert mukai_pairing(v0, v0) == -2
        word = GeneratorWord(model, (TauLetter(v0),))
        norm = normalize_word(word)
        assert norm.product() == word.product()
        for letter in norm.letters:
            if isinstance(letter, TauLetter):
                assert letter.v0.r in (1, -1)
                assert is_primitive(model.k3, letter.v0.c)

    @pytest.mark.parametrize("m, r, i", [
        (1, 3, 2), (5, 3, 2), (1, 5, 2), (4, 5, 3)])
    def test_normalize_imprimitive_odd_rank(self, m, r, i, no_enumeration):
        # (r, -L0, rm) with L0 = i L', L' = e + k f of square
        # 2k = 2 (r^2 m - 1)/i^2: a -2 class of v-perp whose odd rank r >= 3
        # cannot be extended, as L0 is not primitive
        k = (r * r * m - 1) // (i * i)
        assert k * i * i == r * r * m - 1
        model = vperp_model(m)
        v0 = MukaiVector(r, linalg.vec_neg(u1_vector(model, i, i * k)), r * m)
        assert mukai_pairing(v0, v0) == -2
        word = GeneratorWord(model, (TauLetter(v0),))
        norm = normalize_word(word)
        assert norm.product() == word.product()
        for letter in norm.letters:
            if isinstance(letter, TauLetter):
                assert letter.v0.r in (1, -1)
                assert is_primitive(model.k3, letter.v0.c)
            else:
                assert isinstance(letter, Gamma0Letter)

    def test_normalize_imprimitive_even_rank(self, no_enumeration):
        # (2, -L0, 14) with L0 = 3 (e + 3 f) of square 54 = 2 * 4 * 7 - 2:
        # no peel starts from an imprimitive class, so factor rewrites it
        m = 7
        model = vperp_model(m)
        v0 = MukaiVector(2, linalg.vec_neg(u1_vector(model, 3, 9)), 2 * m)
        assert mukai_pairing(v0, v0) == -2
        word = GeneratorWord(model, (TauLetter(v0),))
        norm = normalize_word(word)
        assert len(norm.letters) == 4
        assert norm.product() == word.product()
        assert all(r in (1, -1) for r in norm.tau_ranks())


class TestDiscGroupOrder:
    def test_known_values(self):
        assert disc_group_order(1) == \
            {"order": 1, "rho": 0, "index_O_vperp_over_GammaV": 1}
        assert disc_group_order(6) == \
            {"order": 4, "rho": 2, "index_O_vperp_over_GammaV": 4}
        assert disc_group_order(8) == \
            {"order": 2, "rho": 1, "index_O_vperp_over_GammaV": 2}

    def test_matches_prime_count(self):
        for m in range(1, 200):
            data = disc_group_order(m)
            assert data["order"] == 2 ** len(sympy.primefactors(m))

    def test_crt_roots_match_brute_force(self):
        for m in range(1, 5001):
            roots = brute_force_roots(m)
            assert _square_roots_of_one(_prime_powers(m)) == roots, m
            assert disc_group_order(m)["order"] == len(roots), m

    @pytest.mark.parametrize("m, rho", [
        (10**12, 2),                        # 2^12 5^12
        (10**12 + 39, 1),                   # a prime
        (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31, 11),
        (2**40, 1),
    ])
    def test_large_m(self, m, rho):
        # trial division to sqrt m; counting the units would take days
        assert disc_group_order(m) == \
            {"order": 2 ** rho, "rho": rho, "index_O_vperp_over_GammaV": 2 ** rho}

    def test_root_check_trips(self, monkeypatch):
        # a factorization with 2^-1 in it, of no integer m: then 4m = 2, and
        # the table of roots mod 2^e reads e = 1 as (1, 0, 2, 1), where 0
        # is not a root
        monkeypatch.setattr(stabilizer, "_prime_powers", lambda m: {2: -1})
        with pytest.raises(InvariantError, match=(
                "^a CRT root is not a square root of 1 mod 4m$")):
            disc_group_order(6)

    def test_root_check_trips_on_a_wrong_crt_inverse(self, monkeypatch):
        # the CRT step's inverse of the modulus so far, off by one: the
        # glued root is no longer the local root mod the new prime power
        monkeypatch.setattr(stabilizer, "pow",
                            lambda a, e, q: (pow(a, e, q) + 1) % q,
                            raising=False)
        with pytest.raises(InvariantError, match=(
                "^a CRT root is not a square root of 1 mod 4m$")):
            disc_group_order(15)

    @pytest.mark.parametrize("m", [1, 6, 30])
    def test_power_of_two_check_trips(self, monkeypatch, m):
        # one root too many: the count 2^rho + 1 is not 2^rho
        real = stabilizer._square_roots_of_one

        def one_more(factors):
            roots = real(factors)
            return roots + [roots[-1] + 2 * m]

        monkeypatch.setattr(stabilizer, "_square_roots_of_one", one_more)
        with pytest.raises(InvariantError, match=(
                r"^\|O\(disc\)\| = \d+ is not 2\^\d+$")):
            disc_group_order(m)

    def test_kernel_criterion_on_samples(self, rng):
        for m in (1, 2, 3, 4, 6):
            model = vperp_model(m)
            fam = generator_family(m)
            for _ in range(5):
                word = fam.sample_word(rng, rng.randint(0, 5))
                restricted = model.restrict(word.product())
                assert disc_action(model, restricted) == 1 % (2 * m)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 30])
def test_sampled_generators_have_their_squares(m):
    # GeneratorFamily builds these without checking them: 400 +-2 vectors
    # and 400 tau classes at each of the five m, 2,000 of each in all
    fam = generator_family(m)
    rng = random.Random(m)
    for _ in range(400):
        assert fam.k3.square(fam.sample_pm2_vector(rng)) in (2, -2)
        v0 = fam.tau_letter(rng).v0
        assert mukai_pairing(v0, v0) == -2
        assert mukai_pairing(v0, fam.model.v) == 0
        assert v0.r == 1 and v0.s == m
        assert gcd(*v0.c) == 1
