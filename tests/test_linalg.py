"""Exact linear algebra kernels, checked against independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import linalg


def rect_matrix(max_rows=5, max_cols=6, bound=10**12):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)) \
        .flatmap(lambda shape: st.lists(
            st.lists(st.integers(-bound, bound) | st.just(0),
                     min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0])).map(linalg.freeze)


def small_matrix(n_max=4, bound=9):
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ).map(linalg.freeze)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_snf_identity_and_transforms(a):
    d, s, t = linalg.smith_normal_form(a)
    assert linalg.mat_mul(linalg.mat_mul(s, a), t) == d
    assert linalg.det(s) in (1, -1)
    assert linalg.det(t) in (1, -1)
    n = len(a)
    diag = [d[i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros come last
    assert diag[len(nonzero):] == [0] * (n - len(nonzero))


@settings(max_examples=60, deadline=None)
@given(rect_matrix(bound=9) | rect_matrix())
def test_snf_transform_same_without_row_transform(a):
    d, s, t = linalg.smith_normal_form(a)
    assert linalg.mat_mul(linalg.mat_mul(s, a), t) == d
    assert linalg.smith_normal_form(a, row_transform=False) == (d, None, t)
    # kernel_basis reads the same column transform: its trailing columns
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    assert linalg.kernel_basis(a) == linalg.transpose(t)[rank:]


def test_snf_known_example():
    # divisors of [[2,4],[6,8]]: gcd of entries 2, |det| = |16-24| = 8 => (2, 4)
    d, s, t = linalg.smith_normal_form(((2, 4), (6, 8)))
    assert (d[0][0], d[1][1]) == (2, 4)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_det_matches_fraction_gauss(a):
    assert linalg.det(a) == linalg.det_q(a)


@settings(max_examples=40, deadline=None)
@given(small_matrix(n_max=4, bound=6))
def test_kernel_annihilates_and_is_saturated(a):
    kernel = linalg.kernel_basis(a)
    for v in kernel:
        assert all(x == 0 for x in linalg.mat_vec(a, v))
    # saturation: the span contains every integer solution; probe with
    # random integer combinations scaled down when divisible
    if kernel:
        probe = tuple(
            sum(3 * v[i] for v in kernel) for i in range(len(kernel[0]))
        )
        assert linalg.in_span(probe, kernel)


def test_kernel_saturation_catches_imprimitive_span():
    # x + y = 0 over 2 variables: kernel (1, -1); (2, -2) is inside,
    # (1, -1) must be too
    kernel = linalg.kernel_basis(((1, 1),))
    assert linalg.in_span((1, -1), kernel)
    assert linalg.in_span((2, -2), kernel)
    assert not linalg.in_span((1, 0), kernel)


def test_solve_int():
    a = ((2, 0), (0, 3))
    assert linalg.solve_int(a, (4, 9)) == (2, 3)
    assert linalg.solve_int(a, (1, 0)) is None


@settings(max_examples=40, deadline=None)
@given(small_matrix(n_max=4, bound=5))
def test_inverse_roundtrip(a):
    if linalg.det(a) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.mat_inv_q(a)
        return
    inv = linalg.mat_inv_q(a)
    prod = linalg.mat_mul(a, inv)
    n = len(a)
    assert prod == tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    )


def test_signature_of_diagonal():
    g = ((2, 0, 0), (0, -4, 0), (0, 0, 0))
    assert linalg.signature(g) == (1, 1, 1)


def test_signature_hyperbolic_plane():
    assert linalg.signature(((0, 1), (1, 0))) == (1, 1, 0)


@settings(max_examples=30, deadline=None)
@given(small_matrix(n_max=3, bound=3))
def test_signature_congruence_invariant(a):
    # symmetrize, then conjugate by a unimodular matrix
    n = len(a)
    g = tuple(
        tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n)
    )
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u[0][n - 1] += 2
    u = linalg.freeze(u)
    conj = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), g), u)
    assert linalg.signature(conj) == linalg.signature(g)


def test_xgcd_vector():
    g, combo = linalg.xgcd_vector((6, 10, 15))
    assert g == 1
    assert 6 * combo[0] + 10 * combo[1] + 15 * combo[2] == 1
    g, combo = linalg.xgcd_vector((0, 4, 6))
    assert g == 2 and 4 * combo[1] + 6 * combo[2] == 2
