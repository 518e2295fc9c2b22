"""Each typed raise of `Lattice`, `Isometry`, `discriminant_group`,
`kernel_basis`, the v-perp model, `disc_group_order`, `factor`,
`sym3_triple`, `elliptic_phi`, `mon_twist` and the word reader fires on its
input, with its error type and message."""

import re

import pytest

from mukailat import fourier_mukai, linalg
from mukailat.characters import covariance
from mukailat.embeddings import verify_embedding
from mukailat.jsonio import word_from_json
from mukailat.lattices import (
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    discriminant_group,
    hyperbolic_plane,
    is_primitive,
    k3_lattice,
    mukai_lattice,
    primitive_part,
)
from mukailat.mukai import MukaiVector
from mukailat.stabilizer import (
    InvariantError,
    NotInGammaV,
    classify_minus2,
    disc_group_order,
    factor,
    sym3_triple,
    vperp_model,
)

from conftest import label_vector


@pytest.mark.parametrize("gram, labels, message", [
    (((0, 1), (1,)), ("e", "f"), "Gram matrix must be square"),
    (((0, 1), (1, 0)), ("e",), "basis labels must match the rank"),
    (((0, 1), (2, 0)), ("e", "f"), "Gram matrix must be symmetric"),
], ids=["not_square", "label_count", "asymmetric"])
def test_lattice_rejects_bad_gram(gram, labels, message):
    with pytest.raises(LatticeError, match=message):
        Lattice(gram, labels)


def test_degenerate_lattice():
    lattice = build_lattice((("diag", (0, 2)), "U"))
    with pytest.raises(LatticeError, match="degenerate Gram matrix"):
        lattice.signature()
    assert lattice.determinant() == 0
    with pytest.raises(LatticeError, match="degenerate Gram matrix"):
        discriminant_group(lattice)


def test_zero_vector_has_no_primitive_part():
    with pytest.raises(LatticeError, match="zero vector has no primitive"):
        primitive_part((0, 0, 0))


def test_compose_across_lattices():
    u, k3 = hyperbolic_plane(), k3_lattice()
    with pytest.raises(LatticeError, match="isometries live on different"):
        Isometry.identity(u).compose(Isometry.identity(k3))


def test_discriminant_order_checks_the_kept_determinant():
    # the Smith divisors mod the kept determinant, 48, multiply to
    # |det G| = 24, not to 48
    lattice = build_lattice((("diag", (-6, 4)), "U"))
    pos, neg, zero, det = lattice._elimination
    assert (zero, abs(det)) == (0, 24)
    vars(lattice)["_elimination"] = (pos, neg, zero, 2 * det)
    with pytest.raises(LatticeError, match=re.escape(
            "discriminant order 24 is not |det G|")):
        discriminant_group(lattice)


def test_kernel_basis_of_empty_shapes():
    # no columns: the kernel is Z^0.  A matrix of no rows, (), has no
    # column count either, so it reads as 0 columns too
    assert linalg.kernel_basis(((),)) == ()
    assert linalg.kernel_basis(((), ())) == ()
    assert linalg.kernel_basis(()) == ()


def _sym3(l1, l2):
    # v1 = (1, -L1, 2) and v2 = (1, -L2, 2) at m = 2, a = b = 1: the pair
    # conditions ask L1^2 = L2^2 = 2 (and L1.L2 = 5)
    return sym3_triple(2, MukaiVector(1, linalg.vec_neg(l1), 2),
                       MukaiVector(1, linalg.vec_neg(l2), 2))


def _plane(k3, block):
    # e + f in U.block, of square 2
    return label_vector(k3, **{f"e.{block}": 1, f"f.{block}": 1})


def _off_disc_kernel(m):
    # h0 -> v and h4 -> 0 fixes v = h0 - m h4 and sends w = h0 + m h4 to v,
    # whose s = -m is not r m
    mukai = mukai_lattice()
    h0, h4 = mukai.rank - 2, mukai.rank - 1
    rows = [list(row) for row in linalg.identity(mukai.rank)]
    rows[h4][h0], rows[h4][h4] = -m, 0
    return Isometry._trusted(mukai, linalg.freeze(rows))


@pytest.mark.parametrize("call, error, message", [
    (lambda: word_from_json(vperp_model(2), {"letters": [{"kind": "sigma"}]}),
     LatticeError, "unknown letter kind 'sigma'"),
    (lambda: build_lattice((("free", (1,)),)),
     LatticeError, "unknown block ('free', (1,))"),
    (lambda: is_primitive(k3_lattice(), (1, 0)),
     LatticeError, "vector length does not match lattice rank"),
    (lambda: vperp_model(2).to_perp_coords(MukaiVector(1, (0,) * 22, 0)),
     LatticeError, "vector is not orthogonal to v"),
    (lambda: vperp_model(2).restrict(Isometry.identity(k3_lattice())),
     LatticeError, "expected an isometry of the Mukai lattice"),
    (lambda: vperp_model(2).extend_k3(Isometry.identity(mukai_lattice())),
     LatticeError, "expected an isometry of the K3 lattice"),
    # (1, 0, 1) has square -2 but pairs with v = (1, 0, -2) to 1
    (lambda: classify_minus2(vperp_model(2), MukaiVector(1, (0,) * 22, 1)),
     LatticeError, "vector is not orthogonal to v"),
    (lambda: _sym3((0,) * 22, _plane(k3_lattice(), 1)),
     LatticeError, "L1 square condition fails"),
    (lambda: _sym3(_plane(k3_lattice(), 1), (0,) * 22),
     LatticeError, "L2 square condition fails"),
    (lambda: factor(vperp_model(2), Isometry.identity(k3_lattice())),
     NotInGammaV, "expected an isometry of the Mukai lattice"),
    (lambda: factor(vperp_model(2), _off_disc_kernel(2)),
     NotInGammaV, "not in the kernel of the disc action"),
    (lambda: factor(vperp_model(3), _off_disc_kernel(3)),
     NotInGammaV, "not in the kernel of the disc action"),
    (lambda: vperp_model(0), LatticeError, "m must be a positive integer"),
    (lambda: disc_group_order(0), LatticeError,
     "m must be a positive integer"),
], ids=["word_letter_kind", "tuple_block", "is_primitive_length",
        "to_perp_coords", "restrict_not_mukai", "extend_k3_not_k3",
        "classify_not_orthogonal", "sym3_l1_square", "sym3_l2_square",
        "factor_not_mukai", "factor_off_disc_kernel_m2",
        "factor_off_disc_kernel_m3", "vperp_model_m0", "disc_group_order_m0"])
def test_typed_raise(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error


def test_verify_embedding_false_branches():
    # lambda_1 = e.1 + f.1 and lambda_2 = e.2 + f.2, both of square 2 and
    # orthogonal: a wrong square, then a wrong pairing, is False
    k3 = k3_lattice()
    lam1, lam2 = _plane(k3, 1), _plane(k3, 2)
    assert verify_embedding(k3, lam1, lam2, 2, 0, 2)
    assert not verify_embedding(k3, lam1, lam2, 2, 0, 4)
    assert not verify_embedding(k3, lam1, lam2, 2, 1, 2)


def test_isometry_equals_only_an_isometry():
    identity = Isometry.identity(k3_lattice())
    assert identity.__eq__(3) is NotImplemented
    assert identity != 3


def test_elliptic_phi_checks_the_extended_matrix(monkeypatch):
    # not an isometry of Lambda, so its extension by -1 is none of the
    # Mukai lattice
    monkeypatch.setattr(fourier_mukai, "PHI_LAMBDA_MATRIX",
                        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 0, 1, 1)))
    with pytest.raises(LatticeError, match=re.escape(
            "matrix does not preserve the Gram form")) as info:
        fourier_mukai.elliptic_phi(5)
    assert type(info.value) is LatticeError


def test_mon_twist_checks_the_orientation(monkeypatch):
    # the wrong sign negates the restriction, and -1 on the positive
    # 3-space of v-perp reverses its orientation
    monkeypatch.setattr(fourier_mukai, "covariance",
                        lambda g: 1 - covariance(g))
    with pytest.raises(InvariantError, match=re.escape(
            "twisted restriction must preserve orientation")):
        fourier_mukai.mon_twist(vperp_model(2),
                                Isometry.identity(mukai_lattice()))
