"""The elliptic-curve analogue: antisymmetric pairing and transvections."""

from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import linalg
from mukailat.elliptic import (
    enumerate_stabilizer,
    even_pairing,
    even_stabilizer,
    preserves_even_pairing,
    transvection,
)
from mukailat.lattices import LatticeError

pairs = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


class TestPairing:
    def test_examples(self):
        assert even_pairing((1, 0), (0, 1)) == -1
        assert even_pairing((0, 1), (1, 0)) == 1

    @settings(max_examples=60, deadline=None)
    @given(pairs, pairs)
    def test_antisymmetric(self, x, y):
        assert even_pairing(x, y) == -even_pairing(y, x)
        assert even_pairing(x, x) == 0


class TestTransvection:
    def test_example(self):
        t = transvection((1, 0))
        assert linalg.mat_vec(t, (0, 1)) == (1, 1)
        assert linalg.mat_vec(t, (1, 0)) == (1, 0)

    def test_fixes_v_det_one(self):
        for v in ((1, 0), (2, 3), (-1, 4), (0, 1)):
            t = transvection(v)
            assert linalg.mat_vec(t, v) == v
            assert linalg.det(t) == 1

    def test_infinite_order(self):
        t = transvection((1, 0))
        power = linalg.identity(2)
        for k in range(1, 101):
            power = linalg.mat_mul(power, t)
            assert power != linalg.identity(2)

    def test_imprimitive_rejected(self):
        with pytest.raises(LatticeError):
            transvection((2, 4))
        with pytest.raises(LatticeError):
            transvection((0, 0))

    @settings(max_examples=80, deadline=None)
    @given(pairs.filter(lambda v: gcd(*v) == 1), pairs)
    def test_matches_formula(self, v, w):
        # t_v(w) = w + (w, v) v
        p = even_pairing(w, v)
        assert linalg.mat_vec(transvection(v), w) == \
            (w[0] + p * v[0], w[1] + p * v[1])

    @settings(max_examples=80, deadline=None)
    @given(pairs, pairs)
    def test_preserves_pairing(self, x, y):
        t = transvection((2, 3))
        tx = linalg.mat_vec(t, x)
        ty = linalg.mat_vec(t, y)
        assert even_pairing(tx, ty) == even_pairing(x, y)


class TestStabilizer:
    def test_power_roundtrip(self, rng):
        stab = even_stabilizer((2, 3))
        for _ in range(20):
            k = rng.randint(-10, 10)
            assert stab.is_power(stab.power(k)) == k

    def test_identity_is_power_zero(self):
        stab = even_stabilizer((1, 0))
        assert stab.is_power(linalg.identity(2)) == 0

    def test_non_fixing_rejected(self):
        stab = even_stabilizer((1, 0))
        with pytest.raises(LatticeError):
            stab.is_power(((1, 0), (1, 1)))  # fixes (0,1), not (1,0)

    @pytest.mark.parametrize("v", [(1, 0), (0, 1), (2, 3), (3, -5)])
    def test_is_power_exactly_on_enumeration(self, v):
        # over every matrix with entries in [-5, 5] that fixes v, is_power
        # answers exactly on the det-1 ones enumerate_stabilizer lists
        stab = even_stabilizer(v)
        listed = set(enumerate_stabilizer(v, 5))
        for a, b, c, d in product(range(-5, 6), repeat=4):
            mat = ((a, b), (c, d))
            if linalg.mat_vec(mat, v) != v:
                with pytest.raises(LatticeError):
                    stab.is_power(mat)
                continue
            k = stab.is_power(mat)
            assert (k is not None) == (mat in listed)
            if k is not None:
                assert stab.power(k) == mat

    @pytest.mark.parametrize("v,bound", [((1, 0), 8), ((2, 3), 9)])
    def test_completeness_by_enumeration(self, v, bound):
        # every det-1 matrix fixing primitive v within the bound is a
        # transvection power (tau_{(2,3)} itself has an entry -9)
        stab = even_stabilizer(v)
        found = enumerate_stabilizer(v, bound)
        assert stab.generator in found
        for mat in found:
            assert preserves_even_pairing(mat)
            k = stab.is_power(mat)
            assert k is not None
            assert stab.power(k) == mat
