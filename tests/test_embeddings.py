"""Constructive rank-2 primitive embeddings and the clearing engine."""

import re
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from mukailat import embeddings, linalg
from mukailat.embeddings import (
    WitnessNotFound,
    clearing_isometry,
    eichler_transvection,
    embed_rank2,
    verify_embedding,
)
from mukailat.lattices import (
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    check_isometry,
    hyperbolic_plane,
    k3_lattice,
    mukai_lattice,
)
from mukailat.stabilizer import vperp_model

from conftest import fail_enumeration, label_vector, random_vector


def unit(n, i):
    return tuple(int(k == i) for k in range(n))


def random_primitive(k3, rng, bound, density=0.6):
    while True:
        v = tuple(
            rng.randint(-bound, bound) if rng.random() < density else 0
            for _ in range(k3.rank)
        )
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 1:
            return v


class TestTransvection:
    def test_is_isometry_and_fixes_e(self, k3, rng):
        e = label_vector(k3, **{"e.1": 1})
        for _ in range(10):
            a = tuple(
                rng.randint(-3, 3) if 2 <= i < 16 else 0
                for i in range(k3.rank)
            )
            t = eichler_transvection(k3, e, a)
            assert check_isometry(k3, t.matrix).is_isometry
            assert t.apply(e) == e

    def test_matches_formula(self, k3, rng):
        # t(e,a)(x) = x - (a,x) e + (e,x) a - (a,a)/2 (e,x) e; t(e,-a)
        # is also an isometry fixing e, but differs from t(e,a) here
        i_e1, i_f1, i_e2, i_f2 = (k3.basis_labels.index(lab)
                                  for lab in ("e.1", "f.1", "e.2", "f.2"))
        for k in (0, 1, -3):
            e = label_vector(k3, **{"e.1": 1, "e.2": k})
            for _ in range(10):
                a = list(random_vector(k3, rng, bound=5, density=0.7))
                a[i_f1] = -k * a[i_f2]
                a = tuple(a)
                half = k3.square(a) // 2
                if half == 0:
                    continue
                assert k3.square(e) == 0 and k3.pair(e, a) == 0
                t = eichler_transvection(k3, e, a)
                x = random_vector(k3, rng, bound=50, density=0.8)
                pa, pe = k3.pair(a, x), k3.pair(e, x)
                assert t.apply(x) == tuple(
                    xi - pa * ei + pe * ai - half * pe * ei
                    for xi, ei, ai in zip(x, e, a))

    def test_requires_isotropic(self, k3):
        sigma = label_vector(k3, **{"e.1": 1, "f.1": 1})
        with pytest.raises(LatticeError):
            eichler_transvection(k3, sigma, (0,) * 22)

    def test_requires_orthogonal(self, k3):
        e = label_vector(k3, **{"e.1": 1})
        f = label_vector(k3, **{"f.1": 1})
        with pytest.raises(LatticeError):
            eichler_transvection(k3, e, f)

    def test_requires_even_square(self):
        # on U + <1>, a = (0, 0, 1) is orthogonal to e but (a, a) = 1
        lat = build_lattice(("U", ("diag", (1,))))
        with pytest.raises(LatticeError,
                           match="^transvection needs an even square$"):
            eichler_transvection(lat, (1, 0, 0), (0, 0, 1))


class TestSpecExamples:
    def test_isotropic_lambda1(self, k3):
        # lam1 = e1, target (0, 1, 2d); the stated witness d e1 + f1 is one
        # valid answer, and whatever we return satisfies the same contract
        for d in (0, 2, -7):
            lam1 = label_vector(k3, **{"e.1": 1})
            stated = label_vector(k3, **{"e.1": d, "f.1": 1})
            assert verify_embedding(k3, lam1, stated, 0, 1, 2 * d)
            lam2 = embed_rank2(k3, lam1, (0, 1, 2 * d))
            assert verify_embedding(k3, lam1, lam2, 0, 1, 2 * d)

    def test_square_two_orthogonal_plane(self, k3):
        lam1 = label_vector(k3, **{"e.1": 1, "f.1": 1})
        stated = label_vector(k3, **{"e.2": 1, "f.2": -1})
        assert verify_embedding(k3, lam1, stated, 2, 0, -2)
        lam2 = embed_rank2(k3, lam1, (2, 0, -2))
        assert verify_embedding(k3, lam1, lam2, 2, 0, -2)

    def test_pair_condition_target(self, k3):
        for m in (1, 2, 5):
            lam1 = label_vector(k3, **{"e.1": 1, "f.1": m - 1})
            target = (2 * m - 2, 1 + 2 * m, 2 * m - 2)
            lam2 = embed_rank2(k3, lam1, target)
            assert verify_embedding(k3, lam1, lam2, *target)


class TestGeneral:
    @pytest.mark.parametrize("bound,density", [(4, 0.4), (50, 0.7), (10**6, 1.0)])
    def test_random_contracts(self, k3, rng, bound, density):
        for _ in range(6):
            lam1 = random_primitive(k3, rng, bound, density)
            two_a = k3.square(lam1)
            b = rng.randint(-3 * bound, 3 * bound)
            d = rng.randint(-bound, bound)
            lam2 = embed_rank2(k3, lam1, (two_a, b, 2 * d))
            assert verify_embedding(k3, lam1, lam2, two_a, b, 2 * d)

    def test_imprimitive_rejected(self, k3):
        lam1 = label_vector(k3, **{"e.1": 2})
        with pytest.raises(LatticeError):
            embed_rank2(k3, lam1, (0, 1, 0))

    def test_wrong_square_rejected(self, k3):
        lam1 = label_vector(k3, **{"e.1": 1})
        with pytest.raises(LatticeError):
            embed_rank2(k3, lam1, (2, 1, 0))

    def test_vperp_ambient(self):
        # embedding inside v-perp when lambda_1 has w-support
        model = vperp_model(2)
        lat = model.lattice
        lam1 = tuple(1 if lat.basis_labels[i] in ("e.1", "w") else 0
                     for i in range(lat.rank))
        two_a = lat.square(lam1)
        lam2 = embed_rank2(lat, lam1, (two_a, 3, -2))
        assert verify_embedding(lat, lam1, lam2, two_a, 3, -2)

    def test_enumeration_finds_witness_on_u(self, monkeypatch):
        # neither the free plane nor clearing applies to a lone U; only the
        # bounded enumeration finds lambda_2 = f
        found = []
        enumerate_witness = embeddings._enumerate_witness

        def spy(*args):
            found.append(enumerate_witness(*args))
            return found[-1]

        monkeypatch.setattr(embeddings, "_enumerate_witness", spy)
        assert embed_rank2(hyperbolic_plane(), (1, 0), (0, 1, 0)) == (0, 1)
        assert found == [(0, 1)]

    def test_free_plane_with_odd_mu_square(self):
        # (mu, mu) = 1 is odd, but b = 0 makes b^2 (mu, mu) even, so
        # e + (d - 0) f = (0, 1, 1) is a witness in the free U block
        lat = build_lattice((("diag", (1,)), "U"))
        lam2 = embed_rank2(lat, (1, 0, 0), (1, 0, 2))
        assert verify_embedding(lat, (1, 0, 0), lam2, 1, 0, 2)

    def test_negative_radius_rejected(self, k3):
        lam1 = label_vector(k3, **{"e.1": 1})
        with pytest.raises(LatticeError, match=re.escape(
                "the search radius must be non-negative, got -1")):
            embed_rank2(k3, lam1, (0, 1, 0), radius=-1)

    def test_odd_target_square_rejected(self, k3):
        lam1 = label_vector(k3, **{"e.1": 1})
        with pytest.raises(LatticeError,
                           match="^target square 2d must be even$"):
            embed_rank2(k3, lam1, (0, 1, 3))

    def test_odd_lattice_walk_falls_back(self):
        # on U + U + <1> no U block of lam1 is free.  The walk's first step
        # has a = (0, 0, -1, -2, -2), of square 8, and leaves (3, 18, 1, 1,
        # -1); the next would have a = (-3, -18, 0, 0, 1), of odd square
        # 109, so the walk gives up and the enumeration finds the witness
        lat = build_lattice(("U", "U", ("diag", (1,))))
        lam1, target = (3, 5, 4, 7, 5), (111, 1, 2)
        assert clearing_isometry(lat, lam1) is None
        lam2 = embed_rank2(lat, lam1, target)
        assert lam2 == (1, 1, -1, 0, 0)
        assert verify_embedding(lat, lam1, lam2, *target)
        with pytest.raises(WitnessNotFound) as err:
            embed_rank2(lat, lam1, target, radius=0)
        assert err.value.radius == 0

    def test_witness_not_found_without_room(self):
        # a definite lattice with no hyperbolic block: the search is honest
        lat = build_lattice((("diag", (-2, -2)),))
        with pytest.raises(WitnessNotFound) as err:
            embed_rank2(lat, (1, 0), (-2, 5, -2), radius=3)
        assert err.value.radius == 3


class TestFallbackBranches:
    """The branches of the free plane and of the enumeration fallback that
    K3 and Mukai never take."""

    @staticmethod
    def record(monkeypatch, name):
        calls = []
        original = getattr(embeddings, name)

        def spy(*args):
            calls.append((args, original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(embeddings, name, spy)
        return calls

    def test_covector_not_primitive(self, monkeypatch):
        # on vperp:1 the covector of w is -2 w*, so no mu has (w, mu) = 1:
        # the free plane gives nothing although three U blocks are free.
        # The fallback skips the E8(-1) blocks and the third U block, each
        # of which would take it past 6 indices, and finds the witness on w
        # and the first two U blocks
        lat = vperp_model(1).lattice
        w = unit(lat.rank, lat.rank - 1)
        assert gcd(*lat.covector(w)) == 2
        planes = self.record(monkeypatch, "_free_plane_witness")
        lam2 = embed_rank2(lat, w, (-2, 0, 0))
        assert [result for _, result in planes] == [None, None]
        assert lam2 == label_vector(
            lat, **{"e.1": -1, "f.1": -1, "e.2": -1, "f.2": 1})
        assert verify_embedding(lat, w, lam2, -2, 0, 0)

    def test_odd_mu_square(self, monkeypatch):
        # on <1> + U, lam1 = (1, 0, 0) has mu = lam1 of square 1, so an odd
        # b makes b^2 (mu, mu) odd; indeed every lam2 pairing to 1 with
        # lam1 has an odd square, so the enumeration finds nothing either
        lat = build_lattice((("diag", (1,)), "U"))
        planes = self.record(monkeypatch, "_free_plane_witness")
        with pytest.raises(WitnessNotFound) as err:
            embed_rank2(lat, (1, 0, 0), (1, 1, 2), radius=2)
        assert err.value.radius == 2
        assert [result for _, result in planes] == [None]

    def test_witness_only_in_a_fresh_block(self):
        # lam1 spans the <-2> block, which holds no lam2 of square 2; the
        # fallback adds the fresh <2> block, where (0, -1) comes first
        lat = build_lattice((("diag", (-2,)), ("diag", (2,))))
        assert embed_rank2(lat, (1, 0), (-2, 0, 2)) == (0, -1)

    def test_gives_up_past_six_indices(self, monkeypatch):
        # lam1 in <-2> and the fresh E8(-1) block would make 9 indices, so
        # the block is skipped, though an E8 root would do: on the <-2>
        # coordinate alone only the zero vector pairs to 0 with lam1, and it
        # is tried and rejected at each bound up to min(64, 8)
        lat = build_lattice((("diag", (-2,)), "E8_minus"))
        checked = self.record(monkeypatch, "verify_embedding")
        with pytest.raises(WitnessNotFound):
            embed_rank2(lat, unit(9, 0), (-2, 0, -2))
        assert [(args[2], result) for args, result in checked] == \
            [((0,) * 9, False)] * 8

    def test_gives_up_when_lam1_blocks_hold_past_six_indices(
            self, monkeypatch):
        # lam1 lies in the E8(-1) block, whose 8 indices alone pass 6, so
        # the enumeration returns None before it verifies any candidate
        lat = build_lattice(("E8_minus",))
        searches = self.record(monkeypatch, "_enumerate_witness")
        checked = self.record(monkeypatch, "verify_embedding")
        with pytest.raises(WitnessNotFound) as err:
            embed_rank2(lat, unit(8, 0), (-2, 0, -2), radius=5)
        assert err.value.radius == 5
        assert [result for _, result in searches] == [None]
        assert checked == []

    def test_right_pairing_wrong_square_skipped(self, monkeypatch):
        # in <-2> + <2, 2>, (0, -1, -1) is the first candidate pairing to 0
        # with lam1; its square is 4, not 2, so (0, -1, 0) is returned
        lat = build_lattice((("diag", (-2,)), ("diag", (2, 2))))
        checked = self.record(monkeypatch, "verify_embedding")
        assert embed_rank2(lat, (1, 0, 0), (-2, 0, 2)) == (0, -1, 0)
        assert [(args[2], result) for args, result in checked] == [
            ((0, -1, -1), False), ((0, -1, 0), True)]


@st.composite
def unimodular_targets(draw):
    """(lattice, lambda_1, b, 2d): K3 or Mukai, a random primitive lambda_1
    with entries up to 10^40 (some zero, so that a U block may be free),
    any b and any even 2d."""
    lattice = draw(st.sampled_from((k3_lattice(), mukai_lattice())))
    big = st.integers(-10**40, 10**40)
    v = draw(st.lists(st.one_of(st.just(0), big),
                      min_size=lattice.rank, max_size=lattice.rank))
    c = gcd(*v)
    assume(c)
    return lattice, tuple(x // c for x in v), draw(big), 2 * draw(big)


class TestNoEnumerationOnUnimodular:
    @settings(max_examples=150, deadline=None)
    @given(unimodular_targets())
    def test_closed_form_or_clearing_always_returns(self, case):
        # the covector of a primitive vector of a unimodular lattice is
        # primitive and the lattice is even, so the free-plane witness
        # exists, after the clearing walk when no U block is free
        lattice, lam1, b, two_d = case
        two_a = lattice.square(lam1)
        with mock.patch.object(embeddings, "_enumerate_witness",
                               fail_enumeration):
            lam2 = embed_rank2(lattice, lam1, (two_a, b, two_d))
        assert verify_embedding(lattice, lam1, lam2, two_a, b, two_d)


class TestClearing:
    def test_clears_full_support(self, rng):
        # 8 vectors with entries up to 30 and 3 up to 10^300 on each lattice
        inputs = [(lattice, bound)
                  for lattice in (k3_lattice(), mukai_lattice(),
                                  vperp_model(7).lattice)
                  for bound, count in ((30, 8), (10**300, 3))
                  for _ in range(count)]
        for lattice, bound in inputs:
            v = random_primitive(lattice, rng, bound, density=1.0)
            # the walk reads its image at the start of each pass, so the
            # spy sees v and every closed-form image after it
            seen = []
            free_u_block = embeddings._free_u_block

            def spy(lat, x):
                seen.append(x)
                return free_u_block(lat, x)

            with mock.patch.object(embeddings, "_free_u_block", spy):
                out = clearing_isometry(lattice, v)
            assert out is not None
            steps, image = out
            assert seen[0] == v and seen[-1] == image
            assert len(seen) == len(steps) + 1
            # each step (p, j, q, h) is the transvection t(e_j, -q), with
            # G e_j = e_p, q_p = q_j = 0 and h = (q, q)/2, as the public
            # constructor builds it: at most one per bit of the largest
            # entry, ending on a free U block
            transvections = []
            for (p, j, q, h), before, after in zip(steps, seen, seen[1:]):
                e = unit(lattice.rank, j)
                assert lattice.covector(e) == unit(lattice.rank, p)
                assert q[p] == q[j] == 0 and 2 * h == lattice.square(q)
                g = eichler_transvection(lattice, e, linalg.vec_neg(q))
                assert after == g.apply(before)
                transvections.append(g)
            assert len(steps) <= max(abs(x) for x in v).bit_length()
            assert any(image[b.start] == image[b.start + 1] == 0
                       for b in lattice.blocks_named("U"))
            assert embeddings._walk_back(lattice, steps, image) == v
            if bound == 30:
                h = Isometry.identity(lattice)
                for g in transvections:
                    h = g @ h
                assert check_isometry(lattice, h.matrix).is_isometry
                inverse = h.inverse()
                for _ in range(3):
                    y = random_vector(lattice, rng, bound=10**6, density=0.8)
                    assert embeddings._walk_back(lattice, steps, y) == \
                        inverse.apply(y)

    def test_witness_path_forms_no_gram_inverse(self, k3, rng, monkeypatch):
        # a lambda_1 of full support takes the walk, and the witness comes
        # back through the inverse steps, not through G^{-1}
        walks = []
        walk = embeddings.clearing_isometry

        def spy(*args):
            walks.append(walk(*args))
            return walks[-1]

        def forbidden(*args):
            raise AssertionError("G^{-1} product on the witness path")

        monkeypatch.setattr(embeddings, "clearing_isometry", spy)
        monkeypatch.setattr(embeddings, "_enumerate_witness", fail_enumeration)
        monkeypatch.setattr(Lattice, "gram_inverse", forbidden)
        monkeypatch.setattr(linalg, "mat_vec", forbidden)
        for bound in (30, 10**40):
            lam1 = random_primitive(k3, rng, bound, density=1.0)
            two_a = k3.square(lam1)
            lam2 = embed_rank2(k3, lam1, (two_a, 7, -4))
            assert verify_embedding(k3, lam1, lam2, two_a, 7, -4)
        assert len(walks) == 2 and all(w[0] for w in walks)

    @pytest.mark.parametrize("spec", [("U",), ("U", "E8_minus")])
    def test_none_without_two_u_blocks(self, spec):
        lattice = build_lattice(spec)
        v = tuple(int(i < 3) for i in range(lattice.rank))
        assert clearing_isometry(lattice, v) is None

    @pytest.mark.parametrize("coeffs, pivot_partner, a", [
        # 3 is the smallest, in the e slot of U.1 and the f slot of U.2:
        # the lower block U.1 pivots on e.1 through t(f.1, a)
        ({"e.1": 3, "f.1": 5, "e.2": 7, "f.2": 3, "e.3": 4, "f.3": 9},
         "f.1", {"e.2": -2, "f.2": -1, "e.3": -1, "f.3": -3}),
        # 3 in both slots of U.2 and the e slot of U.3: U.2 pivots on its
        # f coefficient through t(e.2, a)
        ({"e.1": 5, "f.1": 6, "e.2": 3, "f.2": 3, "e.3": 3, "f.3": 7},
         "e.2", {"e.1": -2, "f.1": -2, "e.3": -1, "f.3": -2}),
    ])
    def test_pivot_tie_break(self, k3, coeffs, pivot_partner, a):
        # the pivot order fixes every factored word: the smallest nonzero
        # |c|, then the lowest U block, then its f coefficient before its e
        steps, _ = clearing_isometry(k3, label_vector(k3, **coeffs))
        _, partner, q, _ = steps[0]
        assert unit(k3.rank, partner) == label_vector(k3, **{pivot_partner: 1})
        assert linalg.vec_neg(q) == label_vector(k3, **a)
