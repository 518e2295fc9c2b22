"""Reflections and the determinant / orientation (covariance) characters."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mukailat import linalg
from mukailat.characters import (
    ReflectionError,
    covariance,
    general_reflection,
    orientation_char,
    reflection,
)
from mukailat.lattices import (
    Block,
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
)
from mukailat.mukai import MukaiVector
from mukailat.stabilizer import generator_family

from conftest import label_vector, mixed_mukai_reference, random_vector


@pytest.fixture(scope="module")
def family():
    return generator_family(2)


class TestReflection:
    def test_minus_two_example(self, mukai):
        v0 = MukaiVector(1, (0,) * 22, 1)
        tau = reflection(mukai, v0.coords())
        w = MukaiVector(1, (0,) * 22, 0)
        assert MukaiVector.from_coords(tau.apply(w.coords())) == \
            MukaiVector(0, (0,) * 22, -1)

    def test_plus_two_true_reflection_example(self, mukai):
        u0 = MukaiVector(1, (0,) * 22, -1)
        sigma = general_reflection(mukai, u0.coords())
        w = MukaiVector(1, (0,) * 22, 0)
        assert MukaiVector.from_coords(sigma.apply(w.coords())) == \
            MukaiVector(0, (0,) * 22, 1)

    def test_rho_delta(self):
        # K3 + <2 - 2n>: the reflection in delta is integral, negates delta
        # and fixes its complement
        n = 5
        lat = build_lattice(("K3", ("diag", (2 - 2 * n,))))
        delta = tuple(1 if i == 22 else 0 for i in range(23))
        rho = general_reflection(lat, delta)
        assert rho.apply(delta) == linalg.vec_neg(delta)
        for j in range(22):
            basis = tuple(1 if i == j else 0 for i in range(23))
            assert rho.apply(basis) == basis

    def test_isotropic_rejected(self, mukai):
        with pytest.raises(ReflectionError):
            reflection(mukai, label_vector(mukai, **{"e.1": 1}))

    def test_non_integral_general_mode(self):
        # u = (1, 1) in <-4> + <-2> has square -6, but 2(b_1, u) = -8 is not
        # divisible by -6: the reflection is not integral
        lat = build_lattice((("diag", (-4, -2)),))
        u = (1, 1)
        assert lat.square(u) == -6
        with pytest.raises(ReflectionError):
            general_reflection(lat, u)

    def test_matrices_match_formulas(self, mukai, family, rng):
        # rho_u(x) = (-2/(u,u)) x + (x,u) u on +-2 vectors, and the true
        # reflection x - (2(x,u)/(u,u)) u there and on rho_delta in
        # K3 + <2 - 2n>
        cases = [(family.k3, family.sample_pm2_vector(rng)) for _ in range(10)]
        cases += [(mukai, (0,) * 22 + (1, s)) for s in (1, -1)]
        for lat, u in cases:
            q = lat.square(u)
            rho = reflection(lat, u)
            for _ in range(5):
                x = random_vector(lat, rng, bound=50, density=0.8)
                p = lat.pair(x, u)
                assert rho.apply(x) == tuple(
                    -2 // q * xi + p * ui for xi, ui in zip(x, u))
        for n in (2, 3, 5):
            lat = build_lattice(("K3", ("diag", (2 - 2 * n,))))
            cases.append((lat, tuple(1 if i == 22 else 0 for i in range(23))))
        for lat, u in cases:
            q = lat.square(u)
            sigma = general_reflection(lat, u)
            for _ in range(5):
                x = random_vector(lat, rng, bound=50, density=0.8)
                p = lat.pair(x, u)
                assert 2 * p % q == 0
                assert sigma.apply(x) == tuple(
                    xi - 2 * p // q * ui for xi, ui in zip(x, u))

    def test_involution_on_random_pm2(self, family, rng):
        for _ in range(20):
            u = family.sample_pm2_vector(rng)
            rho = reflection(family.k3, u)
            assert (rho @ rho).is_identity()
            assert rho.det() == -1


def old_orientation_char(g):
    """The formula the cached supports replaced, as the oracle: the sign of
    det_q[(r_i, g r_j)], from `apply` and `pair`, with the reference checked
    the same way."""
    lat = g.lattice
    refs = [lat.plane_vector(block, 1, sign)
            for name, sign in (("U", 1), ("H04", -1))
            for block in lat.blocks_named(name)]
    gram = linalg.freeze([[lat.pair(a, b) for b in refs] for a in refs])
    if linalg.signature(gram)[0] != len(refs):
        raise LatticeError("positive definite")
    if len(refs) != lat.signature()[0]:
        raise LatticeError("the positive index")
    images = [g.apply(v) for v in refs]
    d = linalg.det_q([[lat.pair(r, img) for img in images] for r in refs])
    if d == 0:
        raise LatticeError("singular")
    return 0 if d > 0 else 1


def _pinned_outcome(char, g):
    try:
        return char(g)
    except LatticeError as exc:
        return type(exc)


class TestOrientationChar:
    def test_cov_minus_id(self, mukai):
        minus = Isometry.identity(mukai).negate()
        assert covariance(minus) == 0

    def test_cov_duality(self, mukai):
        from mukailat.fourier_mukai import duality_isometry

        assert covariance(duality_isometry()) == 1

    def test_cov_of_reflections(self, mukai, family, rng):
        # rho_u on the full Mukai lattice: cov 0 for -2 vectors, 1 for +2
        for _ in range(20):
            u = family.sample_pm2_vector(rng) + (0, 0)
            sq = mukai.square(u)
            rho = reflection(mukai, u)
            expected = 0 if sq == -2 else 1
            assert covariance(rho) == expected
            assert rho.det() == -1
        # +-2 vectors with H^0 + H^4 support
        for s, expected in ((-1, 1), (1, 0)):
            u = MukaiVector(1, (0,) * 22, s).coords()
            rho = reflection(mukai, u)
            assert covariance(rho) == expected
            assert rho.det() == -1

    def test_character_homomorphism(self, mukai, family, rng):
        model = family.model
        for _ in range(15):
            letters = [
                model.extend_k3(reflection(family.k3,
                                           family.sample_pm2_vector(rng)))
                for _ in range(rng.randint(1, 5))
            ]
            product = Isometry.identity(mukai)
            cov_sum = 0
            det_prod = 1
            for letter in letters:
                product = product @ letter
                cov_sum = (cov_sum + covariance(letter)) % 2
                det_prod *= letter.det()
            assert covariance(product) == cov_sum
            assert product.det() == det_prod

    def test_reference_base_change_invariance(self, mukai, family, rng):
        # the sign of det[(r_i, g r_j)] over a rational, orientation-
        # preserving base change of the reference, worked out here
        mixed = mixed_mukai_reference(mukai)
        model = family.model
        plus = reflection(mukai, label_vector(mukai, **{"e.1": 1, "f.1": 1}))
        seen = set()
        for i in range(10):
            u = family.sample_pm2_vector(rng)
            g = model.extend_k3(reflection(family.k3, u))
            if i % 2:
                g = g @ plus
            c = [[mukai.pair(r, g.apply(s)) for s in mixed] for r in mixed]
            assert any(Fraction(x).denominator > 1 for row in c for x in row)
            expected = 0 if linalg.det_q(c) > 0 else 1
            assert orientation_char(g) == expected
            seen.add(expected)
        assert seen == {0, 1}

    def test_reference_must_span_the_positive_part(self):
        # diag(1) + U has positive index 2, but only U gives a reference
        # vector (e + f)
        lattice = build_lattice((("diag", (1,)), "U"))
        with pytest.raises(LatticeError, match="2 vectors"):
            orientation_char(Isometry.identity(lattice))
        # a block named U on a negative definite plane: e + f is negative
        fake = Lattice(((-2, 0), (0, -2)), ("e", "f"), (Block("U", 0, 2),))
        with pytest.raises(LatticeError, match="positive definite"):
            orientation_char(Isometry.identity(fake))

    def test_singular_projection_raises(self, mukai):
        # the zero matrix, let in unverified, is not an isometry
        zero = Isometry._trusted(mukai, ((0,) * 24,) * 24)
        with pytest.raises(LatticeError,
                           match="projected map is singular") as info:
            orientation_char(zero)
        assert type(info.value) is LatticeError

    def test_singular_projection_raises_under_optimize(self):
        # the zero matrix is not an isometry; the check must hold with
        # assertions switched off
        code = (
            "from mukailat.characters import orientation_char\n"
            "from mukailat.lattices import Isometry, LatticeError, "
            "mukai_lattice\n"
            "assert False\n"
            "mukai = mukai_lattice()\n"
            "zero = Isometry._trusted(mukai, ((0,) * 24,) * 24)\n"
            "try:\n"
            "    print(orientation_char(zero))\n"
            "except LatticeError as exc:\n"
            "    print('LatticeError:', exc)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.startswith(
            "LatticeError: projected map is singular")

    @pytest.mark.parametrize("name", ["Mukai", "vperp:1", "vperp:2",
                                      "vperp:30", "diag(1)+U"])
    def test_matches_old_formula(self, name, rng):
        from mukailat.stabilizer import (nontrivial_disc_isometry,
                                         vperp_model)

        if name == "diag(1)+U":
            # positive index 2 with one reference vector: both raise
            lat = build_lattice((("diag", (1,)), "U"))
            structured = [reflection(lat, (0, 1, -1)),
                          general_reflection(lat, (1, 0, 0))]
            dense = []
        else:
            m = 2 if name == "Mukai" else int(name.split(":")[1])
            model = vperp_model(m)
            fam = generator_family(m)
            words = [fam.sample_word(rng, k).product() for k in (1, 3, 6, 9)]
            if name == "Mukai":
                lat = model.mukai
                structured = [
                    reflection(lat, fam.sample_pm2_vector(rng) + (0, 0))
                    for _ in range(6)]
                structured.append(fam.tau_letter(rng).to_isometry(model))
                dense = words
            else:
                lat = model.lattice
                structured = [
                    general_reflection(lat, fam.sample_pm2_vector(rng) + (0,))
                    for _ in range(6)]
                dense = [model.restrict(w) for w in words]
                lift = nontrivial_disc_isometry(model)
                if lift is not None:
                    dense.append(lift)
            # a matrix that is not an isometry reads the same formula
            dense.append(Isometry._trusted(lat, linalg.freeze(
                [[rng.randint(-3, 3) for _ in range(lat.rank)]
                 for _ in range(lat.rank)])))
        identity = Isometry.identity(lat)
        dense += [identity, identity.negate()]
        for g in structured:
            assert g.outer is not None
            new = _pinned_outcome(orientation_char, g)
            assert new == _pinned_outcome(old_orientation_char, g)
        seen = set()
        for g in dense:
            new = _pinned_outcome(orientation_char, g)
            assert new == _pinned_outcome(old_orientation_char, g)
            seen.add(new)
        if name == "diag(1)+U":
            assert seen == {LatticeError}
        else:
            assert {0, 1} <= seen

    @pytest.mark.parametrize("name", ["Mukai", "K3", "vperp:7"])
    def test_no_image_is_formed_whole(self, name, monkeypatch):
        # C reads each image g r_k only where some G r_i is nonzero (8 of 24
        # entries on the Mukai lattice, 6 on K3 and v-perp), so mat_vec,
        # which forms a whole image of a dense g, is never called; the value
        # is the old formula's on dense isometries, their negations and
        # outer-form ones
        fam = generator_family(7)
        rng = random.Random(name)
        words = [fam.sample_word(rng, k).product() for k in (1, 4, 9, 15)]
        if name == "Mukai":
            lat = words[0].lattice
            dense = words
            structured = [reflection(lat, fam.sample_pm2_vector(rng) + (0, 0))
                          for _ in range(4)]
        elif name == "K3":
            lat = fam.k3
            rhos = [reflection(lat, fam.sample_pm2_vector(rng))
                    for _ in range(10)]
            structured, dense = rhos[:4], [rhos[4] @ rhos[5],
                                           rhos[6] @ rhos[7] @ rhos[8],
                                           rhos[9] @ rhos[4] @ rhos[6]]
        else:
            lat = fam.model.lattice
            dense = [fam.model.restrict(w) for w in words]
            structured = [
                general_reflection(lat, fam.sample_pm2_vector(rng) + (0,))
                for _ in range(4)]
        dense = [Isometry._trusted(lat, g.matrix) for g in dense]
        dense += [g.negate() for g in dense]
        assert all(g.outer is not None for g in structured)
        cases = [(g, old_orientation_char(g)) for g in dense + structured]
        assert {expected for _, expected in cases} == {0, 1}

        def whole_image(m, v):
            raise AssertionError("an image was formed whole")

        monkeypatch.setattr(linalg, "mat_vec", whole_image)
        for g, expected in cases:
            assert orientation_char(g) == expected

    def test_vperp_reference(self):
        from mukailat.stabilizer import vperp_model

        model = vperp_model(3)
        assert model.lattice.signature()[0] == 3
        minus = Isometry.identity(model.lattice).negate()
        # det of -I on a 3-dimensional positive part: orientation reversed
        assert orientation_char(minus) == 1


class TestCharacterCache:
    """`orientation_char` keeps its value on the isometry it read."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 30])
    def test_cached_equals_fresh_and_restriction(self, m):
        # g fixes v = (1, 0, -m) of square 2m > 0, so <v> plus a positive
        # 3-plane of v-perp is a positive 4-plane: cov(g) is the
        # orientation character of g on v-perp
        fam = generator_family(m)
        rng = random.Random(m)
        for length in (1, 3, 8, 15):
            g = fam.sample_word(rng, length).product()
            first = covariance(g)
            assert covariance(g) == first
            assert orientation_char(g) == first
            fresh = Isometry._trusted(g.lattice, g.matrix)
            assert not hasattr(fresh, "_orientation_char")
            assert orientation_char(fresh) == first
            assert orientation_char(fam.model.restrict(g)) == first

    def test_slot_is_not_compared(self, family):
        g = family.sample_word(random.Random(4), 5).product()
        filled = Isometry._trusted(g.lattice, g.matrix)
        orientation_char(filled)
        bare = Isometry._trusted(g.lattice, g.matrix)
        assert hasattr(filled, "_orientation_char")
        assert not hasattr(bare, "_orientation_char")
        assert filled == bare
        assert hash(filled) == hash(bare)
        assert repr(filled) == repr(bare)

    def test_verify_chars_sequence_builds_two_projections(self, monkeypatch):
        # C is built once for g (4 x 4; read for cov and again in
        # mon_twist) and once for its twisted restriction (3 x 3 on v-perp;
        # read in mon_twist and again in w_membership)
        from mukailat import fourier_mukai, lattices, stabilizer

        model = stabilizer.vperp_model(7)
        word = generator_family(7).sample_word(
            random.Random(7), 12)
        g = Isometry(model.mukai, word.product().matrix)
        calls = []
        real = linalg.det_q

        def counted(c):
            calls.append(len(c))
            return real(c)

        monkeypatch.setattr(linalg, "det_q", counted)
        g.det()
        covariance(g)
        check = lattices.check_isometry(model.mukai, g.matrix)
        assert check.is_isometry and check.det == g.det()
        restricted = model.restrict(g)
        assert stabilizer.disc_action(model, restricted) == 1
        stabilizer.in_gamma_v(model, restricted)
        assert stabilizer.w_membership(
            model, fourier_mukai.mon_twist(model, g))
        assert calls == [4, 3]
