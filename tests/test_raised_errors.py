"""Each typed raise of `Lattice`, `Isometry`, `discriminant_group` and
`kernel_basis` fires on its input, with its error type and message."""

import re

import pytest

from mukailat import linalg
from mukailat.lattices import (
    Isometry,
    Lattice,
    LatticeError,
    build_lattice,
    discriminant_group,
    hyperbolic_plane,
    k3_lattice,
    primitive_part,
)


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
    # the Smith divisors mod D^2 multiply to |det G| = 24, not to a wrong
    # kept determinant
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
