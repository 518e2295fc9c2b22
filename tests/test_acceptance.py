"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success (run with -s to see them); any
failure trips the assert.  The whole suite is budgeted to run in well under
a minute.
"""

import random
from fractions import Fraction

from mukailat import linalg
from mukailat.characters import (
    covariance,
    general_reflection,
    orientation_char,
    reflection,
)
from mukailat.elliptic import (
    enumerate_stabilizer,
    even_pairing,
    even_stabilizer,
    preserves_even_pairing,
    transvection,
)
from mukailat.fourier_mukai import (
    duality_isometry,
    elliptic_phi,
    mon_twist,
    verify_sigma_tau_duality,
)
from mukailat.lattices import (
    Isometry,
    build_lattice,
    discriminant_group,
    is_primitive,
    k3_lattice,
    mukai_lattice,
)
from mukailat.mukai import (
    GradedSurfaceClass,
    MukaiVector,
    ch_to_chern,
    cup,
    dualize,
    mukai_pairing,
    twist_by_line,
)
from mukailat.stabilizer import (
    Minus2Orbit,
    TauLetter,
    aplus_witness,
    classify_minus2,
    disc_action,
    disc_group_order,
    ExtensionKind,
    factor,
    generator_family,
    in_gamma_v,
    vperp_model,
    w_membership,
)

from conftest import random_vector


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_duality_identity():
    """- (sigma_{u0} o tau_{v0}) = D as a 24x24 identity, and they commute."""
    checks = verify_sigma_tau_duality()
    assert checks["minus_sigma_tau_equals_D"]
    assert checks["commute"]
    assert checks["all"]
    _report(1, "-(sigma_u0 o tau_v0) = D and the reflections commute")


def test_criterion_02_phi_verification():
    """phi is a Gram isometry of Lambda; phi(1,0,1-n) = (0, sigma+nf, 1) for
    n in 2..10; phi(1, beta-f, n-1) = (0, sigma+(2-n)f-beta, 0); and
    phi g phi^{-1} = rho."""
    for n in range(2, 11):
        phi, checks = elliptic_phi(n)
        assert checks["phi_preserves_gram_lambda"], n
        assert checks["phi_of_ideal_class"], n
        assert checks["phi_of_v0"], n
        assert checks["conjugation"], n
        assert checks["all"], (n, checks)
    _report(2, "phi matrix verified, both image identities and the "
               "conjugation hold for n in 2..10")


def test_criterion_03_character_table():
    """cov(-id) = 0, cov(D) = 1, cov(rho_-2) = 0, cov(rho_+2) = 1 and
    det(rho_{+-2}) = -1 on at least 20 random +-2 vectors of each sign."""
    mukai = mukai_lattice()
    assert covariance(Isometry.identity(mukai).negate()) == 0
    assert covariance(duality_isometry()) == 1

    fam = generator_family(2)
    rng = random.Random(3001)
    seen = {2: 0, -2: 0}
    while min(seen.values()) < 20:
        u = fam.sample_pm2_vector(rng) + (0, 0)
        sq = mukai.square(u)
        rho = reflection(mukai, u)
        assert covariance(rho) == (0 if sq == -2 else 1)
        assert rho.det() == -1
        seen[sq] += 1
    # +-2 vectors with H04 support as well
    for s, cov in ((1, 0), (-1, 1)):
        rho = reflection(mukai, MukaiVector(1, (0,) * 22, s).coords())
        assert covariance(rho) == cov and rho.det() == -1
    _report(3, f"character table verified on {seen[-2]} -2 and "
               f"{seen[2]} +2 reflections")


def test_criterion_04_discriminant_law():
    """#{u : u^2 = 1 mod 4m} = 2^rho(m) for all m <= 5000, and for m <= 50
    the Smith-form discriminant of v-perp is Z/2m with q(gen) = -1/2m."""
    # smallest-prime-factor sieve for omega(m)
    top = 5000
    spf = list(range(top + 1))
    for p in range(2, int(top ** 0.5) + 1):
        if spf[p] == p:
            for k in range(p * p, top + 1, p):
                if spf[k] == k:
                    spf[k] = p
    for m in range(1, top + 1):
        four_m = 4 * m
        # solutions of u^2 = 1 mod 4m are odd, and come in pairs u, 2m - u
        count = 0
        for u in range(1, 2 * m, 2):
            if u * u % four_m == 1:
                count += 1
        omega = 0
        k = m
        while k > 1:
            p = spf[k]
            omega += 1
            while k % p == 0:
                k //= p
        assert count == 2 ** omega, m
        assert disc_group_order(m)["rho"] == omega

    from math import gcd

    for m in range(1, 51):
        lat = build_lattice(("K3", ("diag", (-2 * m,))))
        dg = discriminant_group(lat)
        assert dg.divisors == (2 * m,), m
        # the Smith-form generator is k * (w/2m) for a unit k, so its q value
        # is -k^2/2m; the canonical generator w/2m itself has q = -1/2m
        q_snf = dg.q_values[0]
        assert any(
            gcd(k, 2 * m) == 1 and (q_snf - Fraction(-k * k, 2 * m)) % 2 == 0
            for k in range(1, 2 * m + 1)
        ), m
        model = vperp_model(m)
        w_lift = tuple(Fraction(0) for _ in range(22)) + (Fraction(1, 2 * m),)
        q_w = sum(
            a * model.lattice.gram[i][j] * b
            for i, a in enumerate(w_lift)
            for j, b in enumerate(w_lift)
            if model.lattice.gram[i][j]
        )
        assert q_w % 2 == Fraction(-1, 2 * m) % 2, m
        assert model.disc_group.q_values[0] % 2 == Fraction(-1, 2 * m) % 2, m
    _report(4, "unit count equals 2^rho for m <= 5000; v-perp discriminant "
               "is Z/2m with q(gen) = -1/2m for m <= 50")


def test_criterion_05_kernel_criterion():
    """disc action is trivial on 200 random Gamma_v words over
    m in {1,2,3,4,6}; -id on v-perp is in Gamma_v iff m = 1."""
    rng = random.Random(3005)
    words = 0
    for m in (1, 2, 3, 4, 6):
        model = vperp_model(m)
        fam = generator_family(m)
        for _ in range(40):
            word = fam.sample_word(rng, rng.randint(0, 5))
            restricted = model.restrict(word.product())
            assert disc_action(model, restricted) == 1 % (2 * m)
            words += 1
        minus = Isometry.identity(model.lattice).negate()
        kind = in_gamma_v(model, minus)
        if m == 1:
            assert kind is ExtensionKind.IN_GAMMA_V
        else:
            assert kind is not ExtensionKind.IN_GAMMA_V
    assert words >= 200
    _report(5, f"disc action trivial on {words} sampled words; "
               "-id lies in Gamma_v only at m = 1")


def test_criterion_06_orbits():
    """Bounded exhaustive search (coords <= 6 in 3U + <-2m>) finds A_+
    nonempty iff m = 1 mod 4 for m <= 12, always with odd rank; the
    constructed witnesses check out for m in {1, 5, 9, 13}."""
    # pair-product value tables for even classes L = 2L', L' coords <= 3
    vals1 = {}
    for a in range(-3, 4):
        for b in range(-3, 4):
            vals1.setdefault(a * b, []).append((a, b))
    sums2 = set()
    for p in vals1:
        for q in vals1:
            sums2.add(p + q)

    def even_solution_exists(k):
        # k = p + q + s with p, q, s products of coords <= 3
        return any(k - s in sums2 for s in vals1)

    for m in range(1, 13):
        found_ranks = set()
        for r in range(0, 7):
            t = r * r * m - 1
            # L = 2L' with L^2 = 2t requires L'^2 = t/2, hence 4 | t
            if t >= 0 and t % 4 == 0 and even_solution_exists(t // 4):
                found_ranks.add(r)
        assert bool(found_ranks) == (m % 4 == 1), m
        assert all(r % 2 == 1 for r in found_ranks), m

    for m in (1, 5, 9, 13):
        v0 = aplus_witness(m)
        assert v0 is not None
        assert mukai_pairing(v0, v0) == -2
        assert classify_minus2(vperp_model(m), v0) is Minus2Orbit.A_PLUS
        assert v0.r % 2 == 1
    assert aplus_witness(3) is None and aplus_witness(12) is None
    _report(6, "A_+ nonempty iff m = 1 mod 4 (m <= 12, coords <= 6), all "
               "ranks odd; witnesses verified for m in {1,5,9,13}")


def test_criterion_07_sym3_relations():
    """tau_{v0} = tau_{v1} tau_{v2} tau_{v1} = tau_{v2} tau_{v1} tau_{v2}
    and the group has order 6, on 50+ pair_witness_peel instances, m in
    1..6."""
    from mukailat.stabilizer import pair_witness_peel, sym3_triple

    k3 = k3_lattice()
    rng = random.Random(3007)
    instances = 0
    for m in range(1, 7):
        fam = generator_family(m)
        for trial in range(9):
            r = rng.choice((2, 2, 3))
            # a primitive class of square 2 r^2 m - 2 via a random twist
            l0 = [0] * 22
            l0[16] = 1
            l0[17] = r * r * m - 1
            l0 = tuple(l0)
            for _ in range(rng.randrange(3)):
                l0 = general_reflection(
                    k3, fam.sample_pm2_vector(rng)
                ).apply(l0)
            l1, l2 = pair_witness_peel(m, l0, r)
            v1 = MukaiVector(1, linalg.vec_neg(l1), m)
            v2 = MukaiVector(r - 1, linalg.vec_neg(l2), (r - 1) * m)
            checks = sym3_triple(m, v1, v2)
            assert checks["all"], (m, trial, checks)
            instances += 1
        # one split-mode instance per m: at r = 2 the peel halves L0
        r = 2
        l0 = [0] * 22
        l0[16] = 1
        l0[17] = r * r * m - 1
        la, lb = pair_witness_peel(m, tuple(l0), r)
        va = MukaiVector(1, linalg.vec_neg(la), m)
        vb = MukaiVector(1, linalg.vec_neg(lb), m)
        assert sym3_triple(m, va, vb)["all"]
        instances += 1
    assert instances >= 50
    _report(7, f"Sym3 relations and order 6 verified on {instances} "
               "instances across m in 1..6")


def test_criterion_08_factor_round_trip():
    """factor returns a word with exactly the input product, on 100 random
    generator words of length <= 6 over m in {1,2,3}; normalized words have
    rank-one tau letters with primitive class."""
    rng = random.Random(3008)
    done = 0
    for m in (1, 2, 3):
        model = vperp_model(m)
        fam = generator_family(m)
        for trial in range(34):
            word = fam.sample_word(rng, rng.randint(1, 6))
            g = word.product()
            normalize = trial % 2 == 0
            out = factor(model, g, normalize=normalize)
            assert out.product().matrix == g.matrix, (m, trial)
            if normalize:
                for letter in out.letters:
                    if isinstance(letter, TauLetter):
                        assert letter.v0.r in (1, -1)
                        assert is_primitive(model.k3, letter.v0.c)
            done += 1
    assert done >= 100
    _report(8, f"factor round-trips exactly on {done} random words "
               "(normalized form verified on half)")


def test_criterion_09_mon_kernel_at_m1():
    """mon_twist(-sigma_v) is the identity on v-perp for m = 1."""
    model = vperp_model(1)
    mukai = mukai_lattice()
    sigma_v = general_reflection(mukai, model.v.coords())
    minus_sigma_v = sigma_v.negate()
    assert minus_sigma_v.fixes(model.v.coords())
    assert mon_twist(model, minus_sigma_v).is_identity()
    _report(9, "mon kernel: mon_twist(-sigma_v) = id on v-perp at m = 1")


def test_criterion_10_w_membership():
    """mon_twist images of 100+ Gamma_v samples land in W(v-perp)."""
    rng = random.Random(3010)
    count = 0
    for m in (1, 2, 3, 6):
        model = vperp_model(m)
        fam = generator_family(m)
        for _ in range(26):
            g = fam.sample_word(rng, rng.randint(0, 5)).product()
            twisted = mon_twist(model, g)
            assert w_membership(model, twisted)
            assert orientation_char(twisted) == 0
            count += 1
    assert count >= 100
    _report(10, f"mon_twist images of {count} samples verified inside W")


def test_criterion_11_mukai_ring_identities():
    """<a,b> = -integral(a-dual cup b) on 10^4 pairs; the line-twist Chern
    identities on 10^3 rank-0/1 classes; the ch -> Chern formula on 10^3."""
    k3 = k3_lattice()
    rng = random.Random(3011)

    def rand_mukai():
        return MukaiVector(
            rng.randint(-4, 4),
            random_vector(k3, rng, bound=4, density=0.25),
            rng.randint(-4, 4),
        )

    for _ in range(10_000):
        x, y = rand_mukai(), rand_mukai()
        dx = GradedSurfaceClass.from_mukai(dualize(x))
        assert mukai_pairing(x, y) == \
            -cup(dx, GradedSurfaceClass.from_mukai(y)).deg4

    for i in range(1_000):
        r = i % 2
        a = random_vector(k3, rng, bound=3, density=0.25)
        s = rng.randint(-5, 5)
        line = random_vector(k3, rng, bound=3, density=0.25)
        x = GradedSurfaceClass(r, a, Fraction(s))
        c_x = ch_to_chern(x)
        c_tw = ch_to_chern(twist_by_line(x, line))
        if r == 0:
            # c1 invariant and c2 drops by c1(x) c1(L)
            assert c_tw.deg2 == c_x.deg2
            assert c_tw.deg4 == c_x.deg4 - k3.pair(a, line)
        else:
            # c2 invariant at rank 1
            assert c_tw.deg4 == c_x.deg4

    for _ in range(1_000):
        r = rng.randint(0, 4)
        a1 = random_vector(k3, rng, bound=3, density=0.25)
        a2 = rng.randint(-6, 6)
        out = ch_to_chern(GradedSurfaceClass(r, a1, a2))
        assert out.deg0 == 1
        assert out.deg2 == tuple(Fraction(x) for x in a1)
        assert out.deg4 == Fraction(k3.square(a1), 2) - a2
    _report(11, "pairing = -dual-cup integral (10^4), line-twist Chern "
                "identities (10^3), ch -> Chern formula (10^3)")


def test_criterion_12_elliptic_stabilizer():
    """Bounded enumeration: every pairing-preserving matrix fixing (1,0) or
    (2,3) is a transvection power; transvections preserve the pairing on
    10^4 samples."""
    for v, bound in (((1, 0), 8), ((2, 3), 9)):
        stab = even_stabilizer(v)
        found = enumerate_stabilizer(v, bound)
        assert stab.generator in found
        powers = set()
        for mat in found:
            assert preserves_even_pairing(mat)
            k = stab.is_power(mat)
            assert k is not None and stab.power(k) == mat
            powers.add(k)
        assert len(powers) == len(found)

    rng = random.Random(3012)
    t = transvection((3, -2))
    for _ in range(10_000):
        x = (rng.randint(-50, 50), rng.randint(-50, 50))
        y = (rng.randint(-50, 50), rng.randint(-50, 50))
        tx = linalg.mat_vec(t, x)
        ty = linalg.mat_vec(t, y)
        assert even_pairing(tx, ty) == even_pairing(x, y)
    _report(12, "even stabilizers of (1,0), (2,3) are exactly the "
                "transvection powers; pairing preserved on 10^4 samples")
