"""Lattice shadows of derived equivalences: shift, reflections, phi, mon."""

import pytest

from mukailat import linalg
from mukailat.characters import covariance, general_reflection
from mukailat.fourier_mukai import (
    PHI_LAMBDA_MATRIX,
    duality_isometry,
    elliptic_phi,
    mon_twist,
    shift_isometry,
    sigma_u0_isometry,
    spherical_reflection,
    verify_sigma_tau_duality,
)
from mukailat.lattices import (
    Isometry,
    LatticeError,
    check_isometry,
    orthogonal_complement,
)
from mukailat.mukai import MukaiVector, dualize, mukai_pairing
from mukailat.stabilizer import (
    NotInGammaV,
    generator_family,
    vperp_model,
    w_membership,
)

from conftest import label_vector


class TestSphericalReflection:
    def test_trivial_bundle_class(self, mukai):
        v0 = MukaiVector(1, (0,) * 22, 1)
        tau = spherical_reflection(v0)
        w = MukaiVector(1, (0,) * 22, 0)
        assert tau.apply(w.coords()) == MukaiVector(0, (0,) * 22, -1).coords()
        assert tau.apply(v0.coords()) == (-v0).coords()
        assert covariance(tau) == 0

    def test_wrong_square_rejected(self):
        with pytest.raises(LatticeError):
            spherical_reflection(MukaiVector(1, (0,) * 22, -1))

    def test_conjugation(self, rng):
        # h tau_{v0} h^{-1} = tau_{h(v0)}
        fam = generator_family(2)
        model = fam.model
        v0 = fam.tau_letter(rng).v0
        for _ in range(6):
            h = fam.sample_word(rng, rng.randint(1, 4)).product()
            lhs = h @ spherical_reflection(v0) @ h.inverse()
            image = MukaiVector.from_coords(h.apply(v0.coords()))
            rhs = spherical_reflection(image)
            assert lhs.matrix == rhs.matrix


class TestShift:
    def test_square_is_identity(self):
        shift = shift_isometry()
        assert (shift @ shift).is_identity()

    def test_cov_zero_det_one(self):
        shift = shift_isometry()
        assert covariance(shift) == 0
        assert shift.det() == 1


class TestSigmaTauDuality:
    def test_all_checks(self):
        checks = verify_sigma_tau_duality()
        assert checks["all"], checks

    def test_composite_is_an_isometry(self):
        comp = sigma_u0_isometry() @ shift_isometry()
        assert check_isometry(comp.lattice, comp.matrix).is_isometry


class TestEllipticPhi:
    def test_printed_matrix(self):
        assert PHI_LAMBDA_MATRIX == (
            (0, -1, 0, 0),
            (1, 0, 0, 0),
            (1, -1, 0, -1),
            (1, -1, 1, 0),
        )

    @pytest.mark.parametrize("n", list(range(2, 11)))
    def test_identities(self, n):
        phi, checks = elliptic_phi(n)
        assert checks["all"], (n, checks)

    def test_acts_by_minus_one_on_complement(self, mukai):
        phi, _ = elliptic_phi(2)
        # beta' in E8 block is orthogonal to Lambda: must be negated
        beta = label_vector(mukai, **{"a1.1": 1})
        assert phi.apply(beta) == linalg.vec_neg(beta)

    def test_definition(self, mukai):
        # phi is PHI_LAMBDA_MATRIX on Lambda = span{h0, sigma, f, h4}
        # (sigma = f.3 - e.3, f = e.3) and -1 on Lambda-perp, whatever n
        lam = (
            label_vector(mukai, h0=1),
            label_vector(mukai, **{"f.3": 1, "e.3": -1}),
            label_vector(mukai, **{"e.3": 1}),
            label_vector(mukai, h4=1),
        )
        phi = elliptic_phi(2)[0]
        for j, x in enumerate(lam):
            image = linalg.zero_vec(mukai.rank)
            for i, y in enumerate(lam):
                image = linalg.vec_add(
                    image, linalg.vec_scale(PHI_LAMBDA_MATRIX[i][j], y))
            assert phi.apply(x) == image
        perp, _ = orthogonal_complement(mukai, lam)
        assert len(perp) == mukai.rank - 4
        for y in perp:
            assert phi.apply(y) == linalg.vec_neg(y)
        assert elliptic_phi(60)[0].matrix == phi.matrix

    def test_n_below_two_rejected(self):
        with pytest.raises(LatticeError):
            elliptic_phi(1)


class TestMonTwist:
    def test_minus2_reflection_untwisted(self, rng):
        model = vperp_model(2)
        fam = generator_family(2)
        tau = fam.tau_letter(rng).to_isometry(model)
        assert covariance(tau) == 0
        assert mon_twist(model, tau).matrix == model.restrict(tau).matrix

    def test_plus2_reflection_twisted(self, mukai):
        # sigma_u for u in v-perp with (u,u) = +2 has cov 1: the twist gives
        # minus the true reflection on v-perp
        model = vperp_model(2)
        c = label_vector(model.k3, **{"e.1": 1, "f.1": 1})
        u = MukaiVector(0, c, 0)
        assert mukai_pairing(u, u) == 2
        sigma_u = general_reflection(mukai, u.coords())
        out = mon_twist(model, sigma_u)
        true_refl = general_reflection(model.lattice, model.to_perp_coords(u))
        assert out.matrix == true_refl.negate().matrix

    def test_non_fixing_isometry_checked_once(self, mukai, monkeypatch):
        # restrict checks that g fixes v; mon_twist adds no check of its own
        model = vperp_model(2)
        calls = []
        fixes = Isometry.fixes
        monkeypatch.setattr(Isometry, "fixes",
                            lambda g, v: calls.append(v) or fixes(g, v))
        with pytest.raises(NotInGammaV, match="^isometry does not fix v$"):
            mon_twist(model, Isometry.identity(mukai).negate())
        assert calls == [model.v.coords()]

    def test_mon_kernel_at_m1(self, mukai):
        model = vperp_model(1)
        sigma_v = general_reflection(mukai, model.v.coords())
        minus_sigma_v = sigma_v.negate()
        assert minus_sigma_v.fixes(model.v.coords())
        assert covariance(minus_sigma_v) == 1
        assert mon_twist(model, minus_sigma_v).is_identity()

    def test_homomorphism_on_samples(self, rng):
        model = vperp_model(3)
        fam = generator_family(3)
        for _ in range(10):
            g = fam.sample_word(rng, rng.randint(0, 4)).product()
            h = fam.sample_word(rng, rng.randint(0, 4)).product()
            assert mon_twist(model, g @ h).matrix == \
                (mon_twist(model, g) @ mon_twist(model, h)).matrix

    def test_images_in_w(self, rng):
        model = vperp_model(2)
        fam = generator_family(2)
        for _ in range(15):
            g = fam.sample_word(rng, rng.randint(0, 5)).product()
            assert w_membership(model, mon_twist(model, g))

    def test_requires_fixing_v(self):
        model = vperp_model(2)
        with pytest.raises(LatticeError):
            mon_twist(model, Isometry.identity(model.mukai).negate())


class TestDuality:
    def test_duality_matrix(self, mukai):
        d = duality_isometry()
        x = MukaiVector(2, label_vector(mukai, **{"e.1": 5})[:22], -3)
        assert MukaiVector.from_coords(d.apply(x.coords())) == dualize(x)
        assert covariance(d) == 1
