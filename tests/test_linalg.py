"""Exact linear algebra kernels, checked against independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import linalg

from conftest import in_span


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
@given(rect_matrix(bound=9) | rect_matrix())
def test_snf_identity_and_transforms(a):
    d, t = linalg.smith_normal_form(a)
    assert linalg.det(t) in (1, -1)
    rows, cols = len(a), len(a[0])
    assert len(d) == rows and all(len(row) == cols for row in d)
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j)
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros come last
    rank = len(nonzero)
    assert diag[rank:] == [0] * (len(diag) - rank)
    # a @ t = s^-1 d: column j of a t is divisible by d_j, zero past the rank
    at_cols = linalg.transpose(linalg.mat_mul(a, t))
    for j, col in enumerate(at_cols):
        if j < rank:
            assert all(x % diag[j] == 0 for x in col)
        else:
            assert not any(col)


@settings(max_examples=60, deadline=None)
@given(rect_matrix(bound=9) | rect_matrix())
def test_kernel_basis_is_trailing_columns_of_t(a):
    d, t = linalg.smith_normal_form(a)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    assert linalg.kernel_basis(a) == linalg.transpose(t)[rank:]


@st.composite
def snf_with_columns(draw, bound=10**12):
    """(a, cols): a rectangular or square matrix with entries up to bound,
    sometimes singular, with zero rows and columns spliced in, and any
    columns of its Smith transform, in any order."""
    rows = draw(st.integers(1, 5))
    ncols = rows if draw(st.booleans()) else draw(st.integers(1, 6))
    entry = st.integers(-bound, bound) | st.just(0)
    a = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # singular: one row a multiple of another
        src = a[draw(st.integers(0, rows - 1))]
        a.append([draw(st.integers(-3, 3)) * x for x in src])
    for _ in range(draw(st.integers(0, 2))):
        a.insert(draw(st.integers(0, len(a))), [0] * ncols)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, ncols))
        a = [row[:j] + [0] + row[j:] for row in a]
        ncols += 1
    cols = draw(st.lists(st.integers(0, ncols - 1), unique=True))
    return linalg.freeze(a), cols


def _transform_from_log(log, n):
    """The columns of t, the logged column operations applied to I in
    order (the log read forwards, unlike `smith_columns`)."""
    t_cols = [list(col) for col in linalg.identity(n)]
    for k, j, a, b, c, e in log:
        u, v = t_cols[k], t_cols[j]
        t_cols[k] = [a * x + b * y for x, y in zip(u, v)]
        t_cols[j] = [c * x + e * y for x, y in zip(u, v)]
    return tuple(map(tuple, t_cols))


@settings(max_examples=80, deadline=None)
@given(snf_with_columns(bound=9) | snf_with_columns())
def test_replayed_columns_are_columns_of_t(sample):
    a, cols = sample
    n = len(a[0])
    divisors, log = linalg.smith_elimination(a)
    d_full, t = linalg.smith_normal_form(a)
    assert divisors == tuple(d_full[i][i] for i in range(len(divisors)))
    t_cols = linalg.transpose(t)
    assert t_cols == _transform_from_log(log, n)
    assert linalg.smith_columns(log, n, cols) == \
        tuple(t_cols[j] for j in cols)


@settings(max_examples=80, deadline=None)
@given(snf_with_columns(bound=9) | snf_with_columns(),
       st.integers(1, 10**30))
def test_replayed_columns_mod_are_columns_of_t(sample, modulus):
    # the mod elimination logs steps of determinant 1, and its replay mod M
    # is the transform built forwards, reduced mod M
    a, cols = sample
    n = len(a)
    a = linalg.freeze(row[:n] + (0,) * (n - len(row)) for row in a)
    cols = [j for j in cols if j < n]
    diag, log = linalg.smith_elimination(a, modulus)
    assert all(modulus % x == 0 for x in diag)
    assert all(y % x == 0 for x, y in zip(diag, diag[1:]))
    assert all(a_ * e - b * c == 1 for _, _, a_, b, c, e in log)
    t_cols = _transform_from_log(log, n)
    assert linalg.smith_columns(log, n, cols, modulus) == \
        tuple(tuple(x % modulus for x in t_cols[j]) for j in cols)


def test_snf_known_example():
    # divisors of [[2,4],[6,8]]: gcd of entries 2, |det| = |16-24| = 8 => (2, 4)
    d, t = linalg.smith_normal_form(((2, 4), (6, 8)))
    assert (d[0][0], d[1][1]) == (2, 4)


def test_zero_column_goes_last():
    # over Z the zero first column is swapped past the nonzero one, so the
    # zero divisor comes last; over Z/25 it reads as 25
    a = ((0, 0), (0, 5))
    assert linalg.smith_elimination(a)[0] == (5, 0)
    assert linalg.smith_elimination(a, 25)[0] == (5, 25)
    assert linalg.kernel_basis(a) in (((1, 0),), ((-1, 0),))


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
        assert in_span(probe, kernel)


def test_kernel_saturation_catches_imprimitive_span():
    # x + y = 0 over 2 variables: kernel (1, -1); (2, -2) is inside,
    # (1, -1) must be too
    kernel = linalg.kernel_basis(((1, 1),))
    assert in_span((1, -1), kernel)
    assert in_span((2, -2), kernel)
    assert not in_span((1, 0), kernel)


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
