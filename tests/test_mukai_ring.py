"""Mukai pairing, duality, cup calculus, Chern character map, effectivity."""

from fractions import Fraction

import pytest

from mukailat import linalg
from mukailat.lattices import LatticeError
from mukailat.mukai import (
    Effectivity,
    GradedSurfaceClass,
    IntegralityError,
    MukaiVector,
    ch_to_chern,
    cup,
    dualize,
    effectivity_numeric,
    exp_class,
    hilbert_scheme_vector,
    mukai_pairing,
    sqrt_todd,
    twist_by_line,
    unit_class,
)

from conftest import label_vector, random_vector


def random_mukai(k3, rng, bound=4):
    return MukaiVector(rng.randint(-bound, bound),
                       random_vector(k3, rng, bound=bound, density=0.3),
                       rng.randint(-bound, bound))


def random_graded(k3, rng, bound=4):
    return GradedSurfaceClass(
        Fraction(rng.randint(-bound, bound)),
        tuple(Fraction(rng.randint(-bound, bound))
              if rng.random() < 0.3 else Fraction(0)
              for _ in range(k3.rank)),
        Fraction(rng.randint(-bound, bound), rng.choice((1, 2))),
    )


class TestPairing:
    def test_plus_two_vector(self, k3):
        v = MukaiVector(1, (0,) * 22, -1)
        assert mukai_pairing(v, v) == 2

    def test_minus_two_vector(self, k3):
        v = MukaiVector(1, (0,) * 22, 1)
        assert mukai_pairing(v, v) == -2

    def test_hilbert_vector(self):
        v = hilbert_scheme_vector(5)
        assert mukai_pairing(v, v) == 10

    def test_symmetric(self, k3, rng):
        for _ in range(50):
            x, y = random_mukai(k3, rng), random_mukai(k3, rng)
            assert mukai_pairing(x, y) == mukai_pairing(y, x)

    def test_matches_lattice_pairing(self, k3, mukai, rng):
        for _ in range(30):
            x, y = random_mukai(k3, rng), random_mukai(k3, rng)
            assert mukai_pairing(x, y) == mukai.pair(x.coords(), y.coords())


class TestDuality:
    def test_fixed_vector(self):
        v = MukaiVector(1, (0,) * 22, -1)
        assert dualize(v) == v

    def test_negates_curve_class(self, k3):
        c = label_vector(k3, **{"e.1": 1, "f.2": -3})
        v = MukaiVector(0, c, 0)
        assert dualize(v) == MukaiVector(0, linalg.vec_neg(c), 0)

    def test_isometry_involution(self, k3, rng):
        for _ in range(40):
            x, y = random_mukai(k3, rng), random_mukai(k3, rng)
            assert mukai_pairing(dualize(x), dualize(y)) == mukai_pairing(x, y)
            assert dualize(dualize(x)) == x


class TestCup:
    def test_unit(self, k3, rng):
        one = unit_class()
        for _ in range(10):
            x = random_graded(k3, rng)
            assert cup(one, x) == x

    def test_degree_count(self, k3):
        c1 = label_vector(k3, **{"e.1": 1})
        c2 = label_vector(k3, **{"f.1": 1})
        x = GradedSurfaceClass(0, c1, 0)
        y = GradedSurfaceClass(0, c2, 0)
        out = cup(x, y)
        assert out.deg0 == 0 and all(v == 0 for v in out.deg2)
        assert out.deg4 == k3.pair(c1, c2) == 1

    def test_commutative_associative(self, k3, rng):
        for _ in range(25):
            x, y, z = (random_graded(k3, rng) for _ in range(3))
            assert cup(x, y) == cup(y, x)
            assert cup(cup(x, y), z) == cup(x, cup(y, z))

    def test_mukai_vector_of_ideal_sheaf(self, k3):
        # ch(I_Z(c)) * sqrt(td) for ch = (1, c, c^2/2 - n):
        # the deg-4 part gains +1, matching chi - r bookkeeping
        c = label_vector(k3, **{"e.1": 1, "f.1": 3})
        n = 4
        half_sq = Fraction(k3.square(c), 2)
        ch = GradedSurfaceClass(1, c, half_sq - n)
        v = cup(ch, sqrt_todd())
        assert v == GradedSurfaceClass(1, c, half_sq - n + 1)


class TestChToChern:
    def test_ideal_sheaf_shape(self, k3):
        ch = GradedSurfaceClass(1, (0,) * 22, -4)
        assert ch_to_chern(ch) == GradedSurfaceClass(1, (0,) * 22, 4)

    def test_rank_only(self, k3):
        ch = GradedSurfaceClass(3, (0,) * 22, 0)
        assert ch_to_chern(ch) == unit_class()

    def test_rank_two_with_class(self, k3):
        a = label_vector(k3, **{"e.2": 1, "f.2": 2})  # a.a = 4, even
        ch = GradedSurfaceClass(2, a, 0)
        out = ch_to_chern(ch)
        assert out.deg0 == 1
        assert out.deg2 == tuple(Fraction(x) for x in a)
        assert out.deg4 == Fraction(k3.square(a), 2)

    def test_non_integral_rank_rejected(self, k3):
        ch = GradedSurfaceClass(Fraction(1, 2), (0,) * 22, 0)
        with pytest.raises(Exception):
            ch_to_chern(ch)

    def test_integrality_error_is_a_lattice_error(self):
        ch = GradedSurfaceClass(Fraction(1, 2), (0,) * 22, 0)
        with pytest.raises(LatticeError) as info:
            ch_to_chern(ch)
        assert type(info.value) is IntegralityError


class TestDegreeTwoLength:
    # a degree-2 part with 21 entries on the rank-22 K3 lattice is
    # rejected, not paired over its first 21 coordinates; so is one with 23
    SHORT = (1,) * 21
    LONG = (1,) * 23

    def test_cup(self, k3):
        x = GradedSurfaceClass(1, self.SHORT, 0)
        y = GradedSurfaceClass(1, (0,) * 22, 0)
        for a, b in ((x, y), (y, x), (x, x)):
            with pytest.raises(LatticeError, match="does not match"):
                cup(a, b)

    def test_exp_class(self, k3):
        with pytest.raises(LatticeError, match="does not match"):
            exp_class(self.SHORT)
        with pytest.raises(LatticeError, match="does not match"):
            exp_class(self.LONG)

    def test_ch_to_chern(self, k3):
        with pytest.raises(LatticeError, match="does not match"):
            ch_to_chern(GradedSurfaceClass(1, self.SHORT, 0))


class TestTwist:
    def test_twist_by_zero(self, k3, rng):
        for _ in range(10):
            x = random_graded(k3, rng)
            assert twist_by_line(x, (0,) * 22) == x

    def test_rank0_first_chern_invariant(self, k3, rng):
        # c_{r+1}(x (x) L) = c_{r+1}(x) with r = 0: c1 is untouched
        for _ in range(30):
            a = random_vector(k3, rng, bound=3, density=0.3)
            s = rng.randint(-5, 5)
            line = random_vector(k3, rng, bound=3, density=0.3)
            x = GradedSurfaceClass(0, a, s)
            tw = twist_by_line(x, line)
            assert tw.deg2 == tuple(Fraction(v) for v in a)
            assert tw.deg4 == s + k3.pair(a, line)

    def test_rank0_second_chern_pattern(self, k3, rng):
        # c2(x (x) L) = c2(x) - c1(x) c1(L) at rank 0
        for _ in range(30):
            a = random_vector(k3, rng, bound=3, density=0.3)
            s = rng.randint(-5, 5)
            line = random_vector(k3, rng, bound=3, density=0.3)
            x = GradedSurfaceClass(0, a, s)
            c_x = ch_to_chern(x)
            c_tw = ch_to_chern(twist_by_line(x, line))
            assert c_tw.deg2 == c_x.deg2
            assert c_tw.deg4 == c_x.deg4 - k3.pair(a, line)

    def test_rank1_second_chern_invariant(self, k3, rng):
        # c_{r+1}(x (x) L) = c_{r+1}(x) with r = 1: c2 is untouched
        for _ in range(30):
            a = random_vector(k3, rng, bound=3, density=0.3)
            s = rng.randint(-5, 5)
            line = random_vector(k3, rng, bound=3, density=0.3)
            x = GradedSurfaceClass(1, a, Fraction(s))
            c_x = ch_to_chern(x)
            c_tw = ch_to_chern(twist_by_line(x, line))
            assert c_tw.deg4 == c_x.deg4


class TestDualityIntegral:
    def test_pairing_is_minus_integral(self, k3, rng):
        # <a, b> = -(deg-4 of D(a) cup b)
        for _ in range(60):
            x, y = random_mukai(k3, rng), random_mukai(k3, rng)
            dx = GradedSurfaceClass.from_mukai(dualize(x))
            integral = cup(dx, GradedSurfaceClass.from_mukai(y)).deg4
            assert mukai_pairing(x, y) == -integral


class TestEffectivity:
    def test_plus_two_effective(self):
        assert effectivity_numeric(MukaiVector(1, (0,) * 22, -1)) \
            is Effectivity.EFFECTIVE

    def test_point_class(self):
        assert effectivity_numeric(MukaiVector(0, (0,) * 22, 1)) \
            is Effectivity.EFFECTIVE
        assert effectivity_numeric(MukaiVector(0, (0,) * 22, -1)) \
            is Effectivity.NOT_EFFECTIVE

    def test_divisor_class_indeterminate(self, k3):
        c = label_vector(k3, **{"e.1": 1})
        assert effectivity_numeric(MukaiVector(0, c, 0)) \
            is Effectivity.INDETERMINATE

    def test_negative_rank(self):
        assert effectivity_numeric(MukaiVector(-1, (0,) * 22, 1)) \
            is Effectivity.NOT_EFFECTIVE

    def test_below_minus_two(self, k3):
        v = MukaiVector(1, (0,) * 22, 2)  # square -4
        assert mukai_pairing(v, v) == -4
        assert effectivity_numeric(v) is Effectivity.NOT_EFFECTIVE

    def test_zero_rejected(self):
        with pytest.raises(LatticeError):
            effectivity_numeric(MukaiVector(0, (0,) * 22, 0))


class TestWhitney:
    def test_first_chern_additive_under_twist(self, k3, rng):
        # ell(x . exp(a)) has degree-2 part a1 + a at rank one
        for _ in range(25):
            a1 = random_vector(k3, rng, bound=3, density=0.3)
            a = random_vector(k3, rng, bound=3, density=0.3)
            x = GradedSurfaceClass(1, a1, rng.randint(-4, 4))
            tw = ch_to_chern(twist_by_line(x, a))
            assert tw.deg2 == tuple(p + q for p, q in zip(a1, a))


class TestJsonRoundTrip:
    def test_mukai_vector(self, k3, rng):
        from mukailat import jsonio

        v = MukaiVector(2, random_vector(k3, rng, bound=4), -7)
        assert jsonio.mukai_vector_from_json(jsonio.mukai_vector_to_json(v)) == v
