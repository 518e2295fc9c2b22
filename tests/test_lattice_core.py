"""Lattice construction, pairing, isometry checks, complements, discriminants."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from mukailat import linalg
from mukailat.lattices import (
    Lattice,
    LatticeError,
    build_lattice,
    check_isometry,
    discriminant_group,
    e8_minus,
    hyperbolic_plane,
    is_primitive,
    mukai_lattice,
    orthogonal_complement,
)
from mukailat.mukai import MukaiVector
from mukailat.stabilizer import vperp_model

from conftest import (
    elementary_divisors,
    in_span,
    label_vector,
    mukai_complements,
    random_vector,
)


class TestBuild:
    def test_u_gram(self):
        assert hyperbolic_plane().gram == ((0, 1), (1, 0))

    def test_mukai_rank_and_signature(self, mukai):
        assert mukai.rank == 24
        assert mukai.signature() == (4, 20)

    def test_k3_signature(self, k3):
        assert k3.signature() == (3, 19)
        assert k3.rank == 22
        assert k3.is_even

    def test_e8_minus_negative_definite_unimodular(self):
        e8 = e8_minus()
        assert e8.signature() == (0, 8)
        assert e8.determinant() == 1
        assert e8.is_even

    def test_unimodular_blocks(self, k3, mukai):
        assert abs(k3.determinant()) == 1
        assert abs(mukai.determinant()) == 1

    def test_mukai_h04_block(self, mukai):
        h0 = mukai.basis_vector("h0")
        h4 = mukai.basis_vector("h4")
        assert mukai.square(h0) == 0
        assert mukai.square(h4) == 0
        assert mukai.pair(h0, h4) == -1

    def test_unknown_block(self):
        with pytest.raises(LatticeError):
            build_lattice(("Leech",))

    def test_empty_spec(self):
        with pytest.raises(LatticeError):
            build_lattice(())

    def test_diag_block(self):
        lat = build_lattice((("diag", (2, -2)),))
        assert lat.gram == ((2, 0), (0, -2))


class TestPair:
    def test_u_basis(self):
        u = hyperbolic_plane()
        assert u.pair((1, 0), (0, 1)) == 1
        assert u.pair((1, 1), (1, 1)) == 2

    def test_e8_root(self):
        e8 = e8_minus()
        assert e8.square((1, 0, 0, 0, 0, 0, 0, 0)) == -2

    def test_dimension_mismatch(self, k3):
        with pytest.raises(LatticeError):
            k3.pair((1, 0), (0, 1))

    def test_symmetric_bilinear(self, k3, rng):
        for _ in range(30):
            x = random_vector(k3, rng)
            y = random_vector(k3, rng)
            z = random_vector(k3, rng)
            assert k3.pair(x, y) == k3.pair(y, x)
            assert k3.pair(linalg.vec_add(x, z), y) == \
                k3.pair(x, y) + k3.pair(z, y)


class TestPrimitive:
    def test_plane_vector(self, k3, mukai):
        u2 = k3.blocks_named("U")[1]
        assert k3.plane_vector(u2, 2, -3) == \
            label_vector(k3, **{"e.2": 2, "f.2": -3})
        h = mukai.blocks_named("H04")[0]
        assert mukai.plane_vector(h, 1, -1) == label_vector(mukai, h0=1, h4=-1)

    def test_basis_vector(self, k3):
        assert is_primitive(k3, label_vector(k3, **{"e.1": 1}))

    def test_basis_vector_unknown_label(self, k3):
        assert k3.basis_vector("f.2") == label_vector(k3, **{"f.2": 1})
        with pytest.raises(LatticeError, match="'zz'"):
            k3.basis_vector("zz")

    def test_multiple(self, k3):
        assert not is_primitive(k3, label_vector(k3, **{"e.1": 2, "f.1": 2}))

    def test_coprime(self, k3):
        assert is_primitive(k3, label_vector(k3, **{"e.1": 2, "f.1": 3}))

    def test_zero_rejected(self, k3):
        with pytest.raises(LatticeError):
            is_primitive(k3, (0,) * 22)


class TestIsometry:
    def test_identity(self, mukai):
        res = check_isometry(mukai, linalg.identity(24))
        assert res.is_isometry and res.det == 1

    def test_minus_identity(self, mukai, k3):
        assert check_isometry(mukai, linalg.mat_neg(linalg.identity(24))) \
            .det == 1  # (-1)^24
        assert check_isometry(k3, linalg.mat_neg(linalg.identity(22))) \
            .det == 1  # (-1)^22
        u = hyperbolic_plane()
        res = check_isometry(u, ((-1, 0), (0, -1)))
        assert res.is_isometry and res.det == 1

    def test_swap_in_u(self):
        u = hyperbolic_plane()
        swap = ((0, 1), (1, 0))
        # direct Gram check as the oracle
        for x in ((1, 0), (0, 1), (1, 1), (2, -3)):
            for y in ((1, 0), (0, 1), (1, 2)):
                sx = linalg.mat_vec(swap, x)
                sy = linalg.mat_vec(swap, y)
                assert u.pair(sx, sy) == u.pair(x, y)
        res = check_isometry(u, swap)
        assert res.is_isometry and res.det == -1

    def test_non_isometry_reports_false(self):
        u = hyperbolic_plane()
        assert not check_isometry(u, ((1, 1), (0, 1))).is_isometry

    def test_compose_inverse_associate(self, mukai, rng):
        from mukailat.characters import reflection
        from mukailat.stabilizer import generator_family

        fam = generator_family(2)
        isos = []
        for _ in range(6):
            u = fam.sample_pm2_vector(rng)
            iso = reflection(fam.k3, u)
            isos.append(iso)
        for _ in range(10):
            g, h, k = rng.choices(isos, k=3)
            gh = g @ h
            assert check_isometry(g.lattice, gh.matrix).is_isometry
            assert ((g @ h) @ k).matrix == (g @ (h @ k)).matrix
            assert (gh.inverse()).matrix == (h.inverse() @ g.inverse()).matrix
            assert (gh @ gh.inverse()).is_identity()


class TestComplement:
    def test_vperp_shape(self, mukai, k3):
        m = 3
        v = MukaiVector(1, (0,) * 22, -m).coords()
        basis, gram = orthogonal_complement(mukai, [v])
        assert len(basis) == 23
        # the expected sublattice: 22 K3 basis vectors + (1, 0, m)
        expected = [tuple(1 if i == j else 0 for i in range(24))
                    for j in range(22)]
        expected.append(MukaiVector(1, (0,) * 22, m).coords())
        for vec in expected:
            assert in_span(vec, basis)
        for vec in basis:
            assert in_span(vec, tuple(expected))
        # restricted Gram is K3 + <-2m> after the change to the model basis
        lat = build_lattice(("K3", ("diag", (-2 * m,))))
        d1 = elementary_divisors(gram)
        d2 = elementary_divisors(lat.gram)
        assert d1 == d2

    def test_empty_set(self, k3):
        basis, gram = orthogonal_complement(k3, [])
        assert len(basis) == 22 and gram == k3.gram

    def test_isotropic_vector_in_own_complement(self, mukai):
        e = label_vector(mukai, **{"e.1": 1})
        basis, _ = orthogonal_complement(mukai, [e])
        assert len(basis) == 23
        assert in_span(e, basis)

    def test_saturation_probes(self, mukai, rng):
        v = MukaiVector(1, (0,) * 22, -4).coords()
        basis, _ = orthogonal_complement(mukai, [v])
        hits = 0
        for _ in range(200):
            x = random_vector(mukai, rng, bound=6)
            if mukai.pair(x, v) == 0 and any(x):
                hits += 1
                assert in_span(x, basis)
        assert hits > 10


class TestDeterminant:
    def test_one_bareiss_per_lattice_object(self, monkeypatch):
        lat = build_lattice((("diag", (-6, 4)), "K3"))
        calls = []
        real = linalg.symmetric_elimination

        def counted(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(linalg, "symmetric_elimination", counted)
        assert lat.determinant() == 24
        assert lat.determinant() == 24
        assert discriminant_group(lat).order == 24
        assert calls == [24]

    def test_kept_determinant_is_not_compared(self):
        spec = (("diag", (-6,)), "U")
        read, fresh = build_lattice(spec), build_lattice(spec)
        read.determinant()
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert {read: 1}[fresh] == 1


class TestDiscriminant:
    def test_unimodular_trivial(self, mukai):
        assert discriminant_group(mukai).is_trivial

    def test_vperp_cyclic(self):
        m = 3
        lat = build_lattice((("diag", (-2 * m,)), "K3"))
        dg = discriminant_group(lat)
        assert dg.divisors == (6,)
        assert dg.q_values[0] % 2 == Fraction(-1, 6) % 2

    def test_two_by_two(self):
        lat = build_lattice((("diag", (2, -2)),))
        dg = discriminant_group(lat)
        assert dg.divisors == (2, 2)

    def test_order_equals_det(self, rng):
        for entries in ((4,), (2, 6), (-2, 8, 3)):
            lat = build_lattice((("diag", entries), "U"))
            dg = discriminant_group(lat)
            assert dg.order == abs(lat.determinant())

    def test_lift_invariants(self):
        lat = build_lattice((("diag", (-6,)), "U"))
        dg = discriminant_group(lat)
        for d, lift in zip(dg.divisors, dg.lifts):
            scaled = tuple(d * x for x in lift)
            assert all(x.denominator == 1 for x in scaled)
            gy = [sum(Fraction(g) * x for g, x in zip(row, lift))
                  for row in lat.gram]
            assert all(val.denominator == 1 for val in gy)

    def test_degenerate_rejected(self):
        lat = build_lattice((("diag", (0, 2)),))
        with pytest.raises(LatticeError):
            discriminant_group(lat)


def _q_direct(lattice, lift):
    """q(lift) mod 2 from the Fraction square of the lift itself."""
    value = Fraction(lattice.square(lift))
    return value - 2 * (value / 2).__floor__()


def _index_over_zn(lifts, n):
    """[Z^n + sum Z lift : Z^n]: the lattice Lambda they span, scaled by a
    common denominator den into Z^n, has index den^n / [Lambda : Z^n]
    there, the product of its elementary divisors."""
    den = lcm(*(x.denominator for lift in lifts for x in lift))
    rows = [tuple(den if i == j else 0 for j in range(n)) for i in range(n)]
    rows += [tuple(int(den * x) for x in lift) for lift in lifts]
    return den ** n // prod(elementary_divisors(linalg.freeze(rows)))


def assert_disc_pinned(lattice):
    """The group against properties that do not depend on how it was found:
    each lift x lies in L* = {x : G x in Z^n}, is reduced into [0, 1) and
    has order exactly d_i mod Z^n; the lifts together with Z^n span a
    lattice of index |det G|, so they generate L*/L; and q is the Fraction
    square of the lift mod 2."""
    dg = discriminant_group(lattice)
    det = abs(lattice.determinant())
    assert len(dg.divisors) == len(dg.lifts) == len(dg.q_values)
    assert all(d > 1 for d in dg.divisors)
    assert all(b % a == 0 for a, b in zip(dg.divisors, dg.divisors[1:]))
    for d, lift, q in zip(dg.divisors, dg.lifts, dg.q_values):
        assert all(0 <= x < 1 for x in lift)
        assert all(y.denominator == 1 for y in lattice.covector(lift))
        assert lcm(*(x.denominator for x in lift)) == d
        assert q == _q_direct(lattice, lift)
    assert dg.order == det
    assert _index_over_zn(dg.lifts, lattice.rank) == det
    return dg


@settings(max_examples=25, deadline=None)
@given(mukai_complements())
def test_disc_q_values_match_direct_square(sample):
    _, _, basis, gram = sample
    # the complement Gram is the full matrix of pairings of its basis
    mukai = mukai_lattice()
    assert gram == tuple(tuple(mukai.pair(a, b) for b in basis)
                         for a in basis)
    lattice = Lattice(gram, tuple(f"b{i}" for i in range(len(gram))))
    dg = assert_disc_pinned(lattice)
    # sympy's invariant factors, an oracle outside this package
    invariants = (abs(int(x))
                  for x in invariant_factors(Matrix(gram), domain=ZZ))
    assert dg.divisors == tuple(x for x in invariants if x != 1)


@pytest.mark.parametrize("m", [1, 30, 10**12 + 2])
def test_disc_of_vperp_pinned(m):
    assert assert_disc_pinned(vperp_model(m).lattice).divisors == (2 * m,)


def test_disc_lifts_with_mixed_denominators():
    lattice = build_lattice(("K3", ("diag", (-6, 4, 10))))
    dg = assert_disc_pinned(lattice)
    assert dg.divisors == (2, 2, 60)
    assert dg.lifts[2][-3:] == (Fraction(1, 6), Fraction(3, 4),
                                Fraction(1, 10))


@pytest.mark.parametrize("make, built", [
    (lambda: build_lattice(("K3", ("diag", (-6, 4, 10)))), [22, 23, 24]),
    (lambda: vperp_model(30).lattice, [22]),
    (lambda: build_lattice((("diag", (2, 4, 6, 12)),)), [0, 1, 2, 3]),
    (mukai_lattice, []),
], ids=["K3,diag(-6:4:10)", "vperp30", "diag(2:4:6:12)", "mukai"])
def test_disc_builds_only_the_nonunit_columns(monkeypatch, make, built):
    # one replay, of the columns with d_i != 1, mod the largest divisor;
    # none for a unimodular Gram
    lattice = make()
    asked = []
    replay = linalg.smith_columns

    def recording(log, n, cols, modulus=None):
        asked.append((list(cols), modulus))
        return replay(log, n, cols, modulus)

    monkeypatch.setattr(linalg, "smith_columns", recording)
    dg = discriminant_group(lattice)
    det = abs(lattice.determinant())
    diag, _ = linalg.smith_elimination(lattice.gram, det)
    assert built == [i for i, x in enumerate(diag) if x != 1]
    expected = [(built, dg.divisors[-1])] if built else []
    assert asked == expected and len(dg.divisors) == len(built)


@pytest.mark.parametrize("make", [
    lambda: build_lattice(("K3", ("diag", (-6, 4, 10)))),
    lambda: vperp_model(30).lattice,
    lambda: build_lattice((("diag", (-4, 8, 12, 18)), "U")),
], ids=["K3,diag(-6:4:10)", "vperp30", "diag(-4:8:12:18)"])
def test_disc_eliminates_once_mod_det(monkeypatch, make):
    # the Smith elimination runs once, mod D = |det G| itself, not mod D^2
    lattice = make()
    moduli = []
    eliminate = linalg.smith_elimination

    def recording(mat, modulus=None):
        moduli.append(modulus)
        return eliminate(mat, modulus)

    monkeypatch.setattr(linalg, "smith_elimination", recording)
    discriminant_group(lattice)
    assert moduli == [abs(lattice.determinant())]


@pytest.mark.parametrize("lattice", [mukai_lattice(), e8_minus(),
                                     hyperbolic_plane()],
                         ids=["mukai", "E8_minus", "U"])
def test_disc_of_unimodular_lattice_does_not_eliminate(monkeypatch, lattice):
    def eliminate(*args):
        raise AssertionError("a unimodular Gram was eliminated")

    monkeypatch.setattr(linalg, "smith_elimination", eliminate)
    monkeypatch.setattr(linalg, "smith_columns", eliminate)
    dg = discriminant_group(lattice)
    assert dg.is_trivial
    assert (dg.divisors, dg.lifts, dg.q_values) == ((), (), ())


@pytest.mark.parametrize("gram", [
    ((2, 4), (4, 8)),
    ((1, 2, 3), (2, 4, 6), (3, 6, 10)),
], ids=["rank-1", "dependent-rows"])
def test_disc_of_degenerate_gram_raises(gram):
    lattice = Lattice(gram, tuple(f"b{i}" for i in range(len(gram))))
    with pytest.raises(LatticeError, match="degenerate"):
        discriminant_group(lattice)


@pytest.mark.parametrize("entries, divisors", [
    ((2, 4, 6, 12), (2, 2, 12, 12)),
    ((6, 4), (2, 12)),
    ((3, 2, 5, 7), (210,)),
    ((-4, 8, 12, 18), (2, 4, 12, 72)),
])
def test_disc_of_non_cyclic_diagonal(entries, divisors):
    # the entries do not form a chain, so the elimination repairs it
    lattice = build_lattice((("diag", entries), "U"))
    assert assert_disc_pinned(lattice).divisors == divisors


NON_CYCLIC_CHAINS = ((2, 2, 12, 12), (2, 4, 12, 72), (3, 9, 27, 81),
                     (2,) * 6)


@st.composite
def non_cyclic_grams(draw):
    """(V^T diag(+-d) V, chain): d is a chain of invariant factors that
    share primes, padded with +-1 entries and shuffled, and V = L U is
    unimodular, L and U unitriangular, with entries up to 10^20."""
    chain = draw(st.sampled_from(NON_CYCLIC_CHAINS))
    entries = draw(st.permutations(
        list(chain) + [1] * draw(st.integers(0, 4))))
    diag = [draw(st.sampled_from((1, -1))) * e for e in entries]
    n = len(entries)
    bound = isqrt(10**20 // n)
    off = st.integers(-bound, bound)
    low = [[1 if i == j else draw(off) if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else draw(off) if j > i else 0 for j in range(n)]
          for i in range(n)]
    v = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    assert all(abs(x) <= 10**20 for row in v for x in row)
    gram = tuple(tuple(sum(v[k][i] * diag[k] * v[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))
    return gram, chain


@settings(max_examples=30, deadline=None)
@given(non_cyclic_grams())
def test_disc_of_non_cyclic_unimodular_conjugate(sample):
    # where the invariants share primes, mod D and mod D^2 could part ways;
    # the group must still be the chain itself, as sympy finds it too
    gram, chain = sample
    lattice = Lattice(gram, tuple(f"b{i}" for i in range(len(gram))))
    dg = assert_disc_pinned(lattice)
    invariants = (abs(int(x))
                  for x in invariant_factors(Matrix(gram), domain=ZZ))
    assert dg.divisors == tuple(x for x in invariants if x != 1) == chain


def test_disc_of_vperp_under_python_O():
    # the order check and the lattice errors are not asserts, so the group
    # the Smith elimination finds for v-perp is the same with assertions
    # stripped
    m = 10**12 + 2
    code = ("from mukailat.stabilizer import vperp_model\n"
            "from mukailat.lattices import Lattice, LatticeError, "
            "discriminant_group\n"
            f"dg = discriminant_group(vperp_model({m}).lattice)\n"
            "try:\n"
            "    discriminant_group(Lattice(((2, 4), (4, 8)), ('a', 'b')))\n"
            "except LatticeError:\n"
            "    print('degenerate')\n"
            "print(dg.divisors, dg.order, [str(x) for x in dg.lifts[0]],"
            " dg.q_values)\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lift = ["0"] * 22 + [f"1/{2 * m}"]
    q = Fraction(-1, 2 * m) % 2
    assert proc.stdout == (f"degenerate\n({2 * m},) {2 * m} {lift} "
                           f"({q!r},)\n")
