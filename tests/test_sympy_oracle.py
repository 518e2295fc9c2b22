"""The exact kernels of `linalg`, checked against sympy as an independent
oracle: determinants, Smith normal forms, saturated kernels, span
membership, signatures and the integer Gram inverse.  The products that
skip zero entries are checked against the plain sums of all products."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import (
    hermite_normal_form,
    invariant_factors,
    smith_normal_decomp,
    smith_normal_form,
)

from mukailat import linalg
from mukailat.lattices import (
    Lattice,
    discriminant_group,
    e8_minus,
    hyperbolic_plane,
    k3_lattice,
    mukai_lattice,
)
from mukailat.stabilizer import vperp_model

from conftest import (
    elementary_divisors,
    in_span,
    mixed_mukai_reference,
    mukai_complements,
)

LATTICES = {"U": hyperbolic_plane(), "E8_minus": e8_minus(),
            "K3": k3_lattice(), "Mukai": mukai_lattice()}
LATTICES.update((f"vperp:{m}", vperp_model(m).lattice)
                for m in (1, 2, 3, 7, 30))


def shaped(rows, cols, bound):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(linalg.freeze)


def matrices(max_rows=4, max_cols=4, bound=9):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)) \
        .flatmap(lambda shape: shaped(*shape, bound))


def square_matrices(n_max=4, bound=9):
    return st.integers(1, n_max).flatmap(lambda n: shaped(n, n, bound))


def symmetric_matrices(n_max=5, bound=9):
    return square_matrices(n_max, bound).map(
        lambda a: linalg.freeze(
            [[a[min(i, j)][max(i, j)] for j in range(len(a))]
             for i in range(len(a))]))


def snf_diagonal(a):
    d, _ = linalg.smith_normal_form(a)
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]))))


def sympy_invariants(a):
    return tuple(abs(int(x)) for x in invariant_factors(Matrix(a), domain=ZZ))


def sympy_signature(gram):
    """(n_+, n_-, n_0) from the characteristic polynomial: a real symmetric
    matrix has only real eigenvalues, so Descartes' rule of signs counts the
    positive and the negative ones exactly."""
    x = sympy.Symbol("x")
    poly = Matrix(gram).charpoly(x)
    coeffs = [int(c) for c in poly.all_coeffs()]
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for p, q in zip(signs, signs[1:]) if p != q)

    n = len(coeffs) - 1
    negated = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(negated), zero


def assert_kernel_matches(a):
    """kernel_basis(a) spans exactly Q-kernel intersected with Z^n."""
    kernel = linalg.kernel_basis(a)
    null = Matrix(a).nullspace()
    assert len(kernel) == len(null)
    for v in kernel:
        assert Matrix(a) * Matrix(v) == Matrix.zeros(len(a), 1)
    if kernel:
        # saturated: the basis matrix has all invariant factors 1
        assert sympy_invariants(linalg.transpose(linalg.freeze(kernel))) \
            == (1,) * len(kernel)


# -- the standard lattices ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_standard_gram_det_and_snf(name):
    g = LATTICES[name].gram
    assert linalg.det(g) == Matrix(g).det()
    assert snf_diagonal(g) == sympy_invariants(g)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_standard_gram_signature(name):
    g = LATTICES[name].gram
    assert linalg.signature(g) == sympy_signature(g)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_standard_gram_inverse(name):
    lattice = LATTICES[name]
    a, d = lattice.gram_inverse()
    assert d == abs(Matrix(lattice.gram).det())
    assert Matrix(a) == Matrix(lattice.gram).inv() * d


@pytest.mark.parametrize("m", (1, 2, 3, 7, 30))
def test_vperp_complement_kernel(m):
    # v-perp inside the Mukai lattice: the kernel of the row (G v)^T
    mukai = mukai_lattice()
    v = (0,) * 22 + (1, -m)
    assert_kernel_matches(linalg.freeze([linalg.mat_vec(mukai.gram, v)]))


# -- hypothesis-drawn matrices ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_det_small(a):
    assert linalg.det(a) == Matrix(a).det()


@settings(max_examples=40, deadline=None)
@given(square_matrices(n_max=5, bound=10**12))
def test_det_large_entries(a):
    assert linalg.det(a) == Matrix(a).det()


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_snf_diagonal(a):
    assert snf_diagonal(a) == sympy_invariants(a)


@settings(max_examples=40, deadline=None)
@given(matrices(max_rows=4, max_cols=4, bound=10**12))
def test_snf_diagonal_large_entries(a):
    assert snf_diagonal(a) == sympy_invariants(a)


@settings(max_examples=120, deadline=None)
@given(square_matrices(n_max=5, bound=9)
       | square_matrices(n_max=4, bound=10**12),
       st.integers(1, 10**6) | st.sampled_from(("det", "det^2")))
def test_snf_mod_diagonal(a, modulus):
    # over Z/M the Smith form of a is diag(gcd(e_i, M)) for its invariant
    # factors e_i over Z; M = |det| or det^2 leaves every e_i of a
    # nonsingular a as it is
    invariants = sympy_invariants(a)
    invariants += (0,) * (len(a) - len(invariants))
    power = {"det": 1, "det^2": 2}.get(modulus)
    if power:
        modulus = abs(linalg.det(a)) ** power or 1
    diag, _ = linalg.smith_elimination(a, modulus)
    assert diag == tuple(math.gcd(e, modulus) for e in invariants)


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=3, max_cols=5, bound=6))
def test_kernel_basis(a):
    assert_kernel_matches(a)


def sympy_in_span(vec, gens):
    """Membership through sympy: the columns of the Hermite normal form of
    the generator columns are a basis of their integer span, so vec lies in
    it iff H c = vec has a rational solution (then unique) that is
    integral."""
    h = hermite_normal_form(Matrix(gens).T)
    if h.cols == 0:
        return not any(vec)
    try:
        c, _ = h.gauss_jordan_solve(Matrix(vec))
    except ValueError:  # no rational solution
        return False
    return all(x.is_integer for x in c)


@st.composite
def span_problems(draw):
    """(vec, gens) in Z^n: gens independent or not (a combination of the
    others appended), vec an integer combination of them, such a
    combination moved by a vector in {-1, 0, 1}^n, or arbitrary."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    bound = draw(st.sampled_from((6, 10**12)))
    vec = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    gens = [draw(vec) for _ in range(k)]

    def combination():
        cs = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        return [sum(c * g[i] for c, g in zip(cs, gens)) for i in range(n)]

    if draw(st.booleans()):
        gens.append(combination())
    kind = draw(st.sampled_from(("member", "moved", "arbitrary")))
    if kind == "arbitrary":
        target = draw(vec)
    else:
        target = combination()
        if kind == "moved":
            step = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
            target = [x + y for x, y in zip(target, step)]
    return tuple(target), linalg.freeze(gens)


@settings(max_examples=150, deadline=None)
@given(span_problems())
def test_in_span(problem):
    vec, gens = problem
    assert in_span(vec, gens) == sympy_in_span(vec, gens)


def test_in_span_known_cases():
    # 2 e1 and e1 + e2 span the index-2 sublattice {x + y even}; appending
    # their sum 3 e1 + e2 keeps the span
    gens = ((2, 0), (1, 1))
    for g in (gens, gens + ((3, 1),)):
        assert in_span((1, -1), g) and sympy_in_span((1, -1), g)
        assert not in_span((1, 0), g)
        assert not sympy_in_span((1, 0), g)
    assert in_span((0, 0), ()) and not in_span((0, 1), ())


@st.composite
def rational_matrices(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    bound, den = draw(st.sampled_from(((3, 12), (10**6, 60))))
    entry = st.fractions(min_value=-bound, max_value=bound,
                         max_denominator=den) | st.integers(-bound, bound)
    return linalg.freeze([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_det_q_rational(a):
    det = Matrix(a).det()
    assert linalg.det_q(a) == Fraction(int(det.p), int(det.q))


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_signature(gram):
    assert linalg.signature(gram) == sympy_signature(gram)


@st.composite
def vector_pairs(draw, bound=10**30):
    """(u, v) in Z^n, independent, dependent (v = c u) or the rows of
    [[p, q], [r, t]] [u; v] for small p, q, r, t."""
    n = draw(st.integers(2, 7))
    vec = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    u, v = draw(vec), draw(vec)
    kind = draw(st.sampled_from(("free", "multiple", "mixed")))
    if kind == "multiple":
        c = draw(st.integers(-5, 5))
        v = [c * x for x in u]
    elif kind == "mixed":
        p, q, r, t = (draw(st.integers(-4, 4)) for _ in range(4))
        u, v = ([p * x + q * y for x, y in zip(u, v)],
                [r * x + t * y for x, y in zip(u, v)])
    return tuple(u), tuple(v)


@settings(max_examples=200, deadline=None)
@given(vector_pairs(bound=9) | vector_pairs())
def test_saturated_pair_is_unit_smith_form(pair):
    u, v = pair
    diag = smith_normal_form(Matrix([u, v]), domain=ZZ)
    unit = (abs(diag[0, 0]), abs(diag[1, 1])) == (1, 1)
    assert linalg.is_saturated_pair(u, v) == unit
    assert (elementary_divisors(linalg.freeze([u, v])) == (1, 1)) \
        == unit


# -- signatures: zero pivots, large entries ------------------------------------


def test_rational_signature_of_mixed_reference(mukai):
    # the rational base change of test_reference_base_change_invariance,
    # scaled by the lcm of its denominators, which keeps the signature
    mixed = mixed_mukai_reference(mukai)
    gram = [[mukai.pair(a, b) for b in mixed] for a in mixed]
    scale = math.lcm(*(Fraction(x).denominator for row in gram for x in row))
    assert scale > 1
    scaled = linalg.freeze([[int(x * scale) for x in row] for row in gram])
    assert linalg.signature(scaled) == sympy_signature(scaled) == (4, 0, 0)


@st.composite
def degenerate_grams(draw, n_max=8, bound=10**12):
    """Symmetric n x n Grams, n <= 8, that reach the zero-pivot branches:
    zero diagonal entries, all-zero rows, or V^T D V of rank below n."""
    n = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(("zero_diagonal", "zero_rows", "low_rank")))
    if kind == "low_rank":
        r = draw(st.integers(0, n - 1))
        v = [draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                           max_size=n)) for _ in range(r)]
        dd = [draw(st.sampled_from((-3, -1, 1, 2))) for _ in range(r)]
        return linalg.freeze(
            [[sum(v[k][i] * dd[k] * v[k][j] for k in range(r))
              for j in range(n)] for i in range(n)])
    entry = st.integers(-bound, bound) | st.just(0)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in (i for i in range(n) if chosen[i]):
        if kind == "zero_diagonal":
            g[i][i] = 0
        else:
            for j in range(n):
                g[i][j] = g[j][i] = 0
    return linalg.freeze(g)


@settings(max_examples=100, deadline=None)
@given(degenerate_grams())
def test_signature_zero_pivots_large_entries(gram):
    assert linalg.signature(gram) == sympy_signature(gram)


@settings(max_examples=30, deadline=None)
@given(mukai_complements())
def test_signature_of_mukai_complement(sample):
    # the Mukai lattice is unimodular of signature (4, 20), so the
    # complement of a nondegenerate span of signature (p, n) has (4-p, 20-n)
    _, g3, basis, gram = sample
    p, n, z = sympy_signature(g3)
    assert z == 0 and len(basis) == 21
    assert linalg.signature(gram) == (4 - p, 20 - n, 0)


# -- one symmetric elimination: signature and determinant ---------------------


@st.composite
def symmetric_grams(draw, n_max=10, bound=10**40):
    """Symmetric n x n Grams, 0 <= n <= 10, entries up to 10^40: dense,
    with forced zero diagonal entries, with orthogonal summands c U (zero
    pivots repaired by e_k <- e_k + e_j), or V^T D V of rank below n."""
    n = draw(st.integers(0, n_max))
    kinds = ("dense", "zero_diagonal", "u_blocks") + (("low_rank",) if n
                                                      else ())
    kind = draw(st.sampled_from(kinds))
    entry = st.integers(-bound, bound) | st.sampled_from((0, 1, -1))
    if kind == "low_rank":
        r = draw(st.integers(0, n - 1))
        v = [draw(st.lists(st.integers(-10**12, 10**12), min_size=n,
                           max_size=n)) for _ in range(r)]
        dd = [draw(st.sampled_from((-3, -1, 1, 2))) for _ in range(r)]
        return linalg.freeze(
            [[sum(v[k][i] * dd[k] * v[k][j] for k in range(r))
              for j in range(n)] for i in range(n)])
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in (i for i in range(n) if chosen[i]):
        if kind == "zero_diagonal":
            g[i][i] = 0
        elif kind == "u_blocks" and i + 1 < n:
            c = draw(entry)
            for j in range(n):
                g[i][j] = g[j][i] = g[i + 1][j] = g[j][i + 1] = 0
            g[i][i + 1] = g[i + 1][i] = c
    return linalg.freeze(g)


@settings(max_examples=120, deadline=None)
@given(symmetric_grams())
def test_symmetric_elimination_against_det_and_sympy(gram):
    pos, neg, zero, det = linalg.symmetric_elimination(gram)
    assert type(det) is int
    assert det == linalg.det(gram) == Matrix(gram).det()
    assert (pos, neg, zero) == sympy_signature(gram)
    assert linalg.signature(gram) == (pos, neg, zero)


class LowerTriangle:
    """An entry that must never be read: any arithmetic, comparison or
    attribute read on it raises."""

    def _read(self, *args):
        raise AssertionError("an entry below the diagonal was read")

    __getattr__ = __bool__ = __index__ = __int__ = __neg__ = _read
    __add__ = __radd__ = __sub__ = __rsub__ = _read
    __mul__ = __rmul__ = __floordiv__ = __rfloordiv__ = _read
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _read
    __hash__ = None


def upper_only(gram):
    return tuple(tuple(x if j >= i else LowerTriangle()
                       for j, x in enumerate(row))
                 for i, row in enumerate(gram))


@pytest.mark.parametrize("gram", [
    LATTICES["Mukai"].gram,
    LATTICES["vperp:7"].gram,
    ((0, 0, 3), (0, 0, 0), (3, 0, 5)),
    # e_0 + e_1 is isotropic, so the zero pivot is repaired by e_0 + 2 e_1
    ((0, 1, 3), (1, -2, 0), (3, 0, 5)),
], ids=["mukai", "vperp7", "degenerate", "repair_c2"])
def test_symmetric_elimination_reads_only_the_upper_triangle(gram):
    with pytest.raises(AssertionError):
        upper_only(gram)[1][0] + 1
    out = linalg.symmetric_elimination(upper_only(gram))
    assert out == linalg.symmetric_elimination(gram)
    assert out[:3] == sympy_signature(gram)
    assert out[3] == Matrix(gram).det()


@settings(max_examples=40, deadline=None)
@given(symmetric_grams(n_max=8, bound=10**6))
def test_symmetric_elimination_never_reads_below_the_diagonal(gram):
    assert linalg.symmetric_elimination(upper_only(gram)) == \
        linalg.symmetric_elimination(gram)


@settings(max_examples=30, deadline=None)
@given(mukai_complements(), st.integers(1, 3))
def test_disc_of_mukai_complement_is_that_of_saturated_span(sample, k):
    # Nikulin (1979, Prop. 1.6.1): in the unimodular Mukai lattice S-perp
    # and the saturated span S_sat of S have isomorphic discriminant
    # groups.  S_sat is spanned by the first three rows of t^-1 in sympy's
    # Smith decomposition d = s A t of the 3 x 24 matrix A of S.  Scaling
    # the first vector by k changes neither S-perp nor S_sat.
    triple, _, _, gram = sample
    triple = (tuple(k * x for x in triple[0]),) + triple[1:]
    mukai = mukai_lattice()
    _, _, t = smith_normal_decomp(Matrix(triple), domain=ZZ)
    sat = t.inv()[:3, :]
    sat_gram = sat * Matrix(mukai.gram) * sat.T
    dg = discriminant_group(Lattice(gram, tuple(f"b{i}" for i in range(21))))
    assert dg.divisors == tuple(x for x in sympy_invariants(sat_gram)
                                if x != 1)
    # |det S_sat| = |det G3| / [S_sat : S]^2, and the index is the gcd c of
    # the 3 x 3 minors of A
    c = 0
    for cols in combinations(range(24), 3):
        c = math.gcd(c, linalg.det([[row[j] for j in cols]
                                    for row in triple]))
    g3 = Matrix([[mukai.pair(a, b) for b in triple] for a in triple])
    assert dg.order * c * c == abs(int(g3.det()))


# -- products and determinants that skip zero entries -------------------------

BIG = 10**40
ENTRIES = {
    "small": st.integers(-9, 9),
    "big": st.integers(-BIG, BIG),
    "fraction": st.fractions(min_value=-BIG, max_value=BIG,
                             max_denominator=10**6),
}


@st.composite
def sparse_matrices(draw, rows, cols, entry, share=0.3):
    """rows x cols with at most a `share` of the entries nonzero: every
    entry outside a drawn set of positions is 0, so at the default 30 %
    whole rows and columns (and whole matrices) are often 0."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    chosen = draw(st.sets(st.sampled_from(cells),
                          max_size=int(len(cells) * share)))
    return linalg.freeze([[draw(entry) if (i, j) in chosen else 0
                           for j in range(cols)] for i in range(rows)])


def shapes_and_entries(dims):
    return st.tuples(*(st.integers(1, 6) for _ in range(dims)),
                     st.sampled_from(sorted(ENTRIES)))


def naive_mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def assert_int_if_int_input(out, *inputs):
    if all(type(x) is int for m in inputs for row in m for x in row):
        assert all(type(x) is int for row in out for x in row)


@settings(max_examples=150, deadline=None)
@given(st.data(), shapes_and_entries(2))
def test_sparse_mat_vec(data, shape):
    rows, cols, kind = shape
    m = data.draw(sparse_matrices(rows, cols, ENTRIES[kind]))
    # a vector with any number of zeros, wherever they fall
    v = data.draw(sparse_matrices(1, cols, ENTRIES[kind], share=1))[0]
    out = linalg.mat_vec(m, v)
    assert out == tuple(sum(x * y for x, y in zip(row, v)) for row in m)
    assert_int_if_int_input((out,), m, (v,))


@settings(max_examples=150, deadline=None)
@given(st.data(), shapes_and_entries(3))
def test_sparse_mat_mul(data, shape):
    rows, inner, cols, kind = shape
    a = data.draw(sparse_matrices(rows, inner, ENTRIES[kind]))
    b = data.draw(sparse_matrices(inner, cols, ENTRIES[kind]))
    out = linalg.mat_mul(a, b)
    assert out == naive_mat_mul(a, b)
    assert len(out) == rows and all(len(row) == cols for row in out)
    assert_int_if_int_input(out, a, b)


def test_zero_vectors_rows_and_columns():
    m = ((0, 3, 0), (0, 0, 0), (0, -7, 0))
    assert linalg.mat_vec(m, (0, 0, 0)) == (0, 0, 0)
    assert linalg.mat_vec(m, (5, 0, 5)) == (0, 0, 0)
    assert linalg.mat_vec(m, (0, 2, 0)) == (6, 0, -14)
    # v's first entry is 0 and its only nonzero entry comes after it
    assert linalg.mat_vec(((1, 2), (3, 4)), (0, 1)) == (2, 4)
    assert linalg.mat_mul(m, m) == naive_mat_mul(m, m)
    assert linalg.mat_mul(((0, 0),), ((1, 2, 3), (4, 5, 6))) == ((0, 0, 0),)
    # with no nonzero term the sum is the int 0, for Fraction input too
    half = ((Fraction(1, 2), Fraction(0)),)
    assert [type(x) for x in linalg.mat_vec(half, (0, 0))] == [int]
    assert linalg.mat_vec(half, (Fraction(2), 0)) == (1,)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6), st.sampled_from(("small", "big")),
       st.sampled_from((0.3, 0.6)))
def test_sparse_det(data, n, kind, share):
    # at 30 % nonzero most determinants are 0; at 60 % rows with a zero
    # multiplier below a pivot that differs from the previous one are common
    a = data.draw(sparse_matrices(n, n, ENTRIES[kind], share))
    assert linalg.det(a) == Matrix(a).det()


@pytest.mark.parametrize("a, expected", [
    # a zero pivot at k = 0 forces a row swap
    (((0, 1, 2), (3, 0, 1), (1, 1, 0)), 7),
    # at k = 0 row 2 has multiplier 0 while the pivot 2 != prev 1: it must
    # still be scaled by 2, or the next step's exact division goes wrong
    (((2, 1, 0), (1, 3, 1), (0, 1, 4)), 18),
    # at k = 1 (pivot 5, prev 2) rows 2 and 3 have multiplier 0
    (((2, 1, 0, 0), (1, 3, 0, 0), (0, 0, 4, 1), (0, 0, 1, 3)), 55),
    # pivot == prev == 1 everywhere: zero multipliers leave rows as they are
    (((1, 0, 0), (0, 1, 0), (0, 1, 1)), 1),
    (((0, 0), (0, 0)), 0),
    (((BIG, 0, 1), (0, 0, BIG), (1, BIG, 0)), -BIG**3),
], ids=["swap", "scale_row", "scale_rows_later", "pivot_is_prev", "zero",
        "big"])
def test_det_zero_multipliers_and_swaps(a, expected):
    assert Matrix(a).det() == expected
    assert linalg.det(a) == expected


# -- determinants with unit rows and columns on the diagonal ------------------


def unit(n, i):
    return [int(i == j) for j in range(n)]


@st.composite
def planted_unit_matrices(draw):
    """An n x n matrix, n <= 24, some of whose rows i or columns i are set
    to e_i (the indices `det_mod` drops).  The other rows are dense, and
    some are decoys it must keep: e_j at i != j, -e_i, or 1 at (i, i) beside
    other nonzero entries."""
    n = draw(st.integers(1, 8) | st.integers(16, 24))
    a = [list(row) for row in
         draw(shaped(n, n, draw(st.sampled_from((9, BIG)))))]
    kinds = draw(st.lists(st.sampled_from((
        "keep", "keep", "row", "column", "decoy", "minus", "diagonal")),
        min_size=n, max_size=n))
    for i, kind in enumerate(kinds):
        if kind == "row":
            a[i] = unit(n, i)
        elif kind == "column":
            for j in range(n):
                a[j][i] = int(i == j)
        elif kind == "decoy":
            a[i] = unit(n, draw(st.integers(0, n - 1)))
        elif kind == "minus":
            a[i] = [-x for x in unit(n, i)]
        else:
            a[i][i] = 1
    return linalg.freeze(a)


@settings(max_examples=100, deadline=None)
@given(planted_unit_matrices())
def test_det_with_planted_unit_rows_and_columns(a):
    d = Matrix(a).det()
    assert linalg.det(a) == d
    for p in (2, 3, 5):
        assert linalg.det_mod(a, p) == d % p


@pytest.mark.parametrize("a, expected", [
    (linalg.identity(24), 1),
    (linalg.identity(1), 1),
    # rows 0 and 1 are e_1 and e_0: unit vectors off the diagonal, which
    # must stay (dropping them would give +1); row 2 is e_2 and goes
    (((0, 1, 0), (1, 0, 0), (0, 0, 1)), -1),
    # column 0 is e_0 and goes, row 0 is not e_0; the rest is a swap
    (((1, BIG, 3), (0, 0, 1), (0, 1, 0)), -1),
    # row 1 is e_1 and column 2 is e_2, both go; a_00 = 7 stays
    (((7, BIG, 0), (0, 1, 0), (BIG, -BIG, 1)), 7),
    # -e_1 is not e_1: the sign has to come from the elimination
    (((2, 5), (0, -1)), -2),
], ids=["identity-24", "identity-1", "off-diagonal-units", "unit-column",
        "row-and-column", "minus-unit"])
def test_det_drops_only_unit_rows_and_columns_on_the_diagonal(a, expected):
    # `det_mod` eliminates only `_moved_block`; `det` the whole matrix
    assert Matrix(a).det() == expected
    assert linalg.det(a) == expected
    for p in (2, 3, 5):
        assert linalg.det_mod(a, p) == expected % p
