"""Exact integer / rational linear algebra kernels.

Matrices are tuples of row tuples, vectors are flat tuples.  Entries are
Python ints (or ``fractions.Fraction`` where a function says so).  There is
no floating point anywhere in this package; every result below is exact.

The workhorses are one Smith elimination, taken over Z (for saturated
kernels) or mod a modulus (for discriminant groups, mod |det|), and
fraction-free (Bareiss) elimination on integers (`det_q` and
`symmetric_elimination` first scale a rational matrix to one), over the upper triangle alone for a symmetric Gram's
signature and determinant (`symmetric_elimination`).  The Smith
elimination records its unimodular column transform as the 2x2 column
steps it made, and only the columns that are read are built from that log:
all of them for a kernel, the few with d_i != 1 for a discriminant group.

Isometries here are mostly zeros, so the products skip zero entries:
`mat_vec` sums the columns of the nonzero entries of the vector, `mat_mul`
builds each row from the rows of b picked by its nonzero entries, and an
elimination step only rescales a row whose multiplier is 0.  An entry with
no nonzero term is the int 0, whatever the type of the other entries.  An
isometry also fixes many basis vectors e_i (column i is e_i) or coordinates
x_i (row i is e_i); `det` drops those indices and eliminates only the
block the matrix moves, and so does `det_mod`, its elimination over F_p for
a caller that knows the determinant up to a residue (an isometry of a
nondegenerate lattice has determinant +-1, told apart mod 3).  A reflection
or transvection s I + sum_k b_k c_k^T has one kernel for matrices,
`identity_plus_outer_mul` (its own matrix is the product with I), and one
for vectors, `identity_plus_outer_vec`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Vec = tuple
Mat = tuple


def freeze(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_vec(n: int) -> Vec:
    return (0,) * n


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a @ b, row i as sum_j a_ij b_j over the nonzero a_ij."""
    ncols = len(b[0]) if b else 0
    rows = []
    for arow in a:
        out = [0] * ncols
        for x, brow in zip(arow, b):
            if x:
                out = [y + x * z for y, z in zip(out, brow)]
        rows.append(tuple(out))
    return tuple(rows)


def mat_vec(m: Mat, v: Vec) -> Vec:
    """m @ v as sum_j v_j m[:, j] over the nonzero v_j."""
    out = [0] * len(m)
    for j, x in enumerate(v):
        if x:
            out = [y + x * row[j] for y, row in zip(out, m)]
    return tuple(out)


def mat_neg(m: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in m)


def identity_plus_outer_mul(s: int, terms, m: Mat) -> Mat:
    """(s I + sum_k b_k c_k^T) @ m = s m + sum_k b_k (c_k^T m), in O(n^2)
    per term, not mat_mul's O(n^3); with s = 1 an untouched row is m's own.

    Each b_k is a column vector and each c_k a row covector (for a lattice
    map, a vector already multiplied by the Gram matrix: `Lattice.covector`),
    so the matrix sends x to s x + sum_k c_k(x) b_k.  Reflections and
    transvections are all of this shape; with m = I this builds the matrix
    itself."""
    outer = [(b, mat_mul((c,), m)[0]) for b, c in terms]
    rows = []
    for i, row in enumerate(m):
        out = row if s == 1 else [s * x for x in row]
        for b, cm in outer:
            if b[i]:
                out = [x + b[i] * y for x, y in zip(out, cm)]
        rows.append(tuple(out))
    return tuple(rows)


def identity_plus_outer_vec(s: int, terms, v: Vec) -> Vec:
    """(s I + sum_k b_k c_k^T) v = s v + sum_k (c_k . v) b_k, in O(n) per
    term."""
    out = [s * x for x in v]
    for b, c in terms:
        t = sum(x * y for x, y in zip(c, v) if x)
        if t:
            out = [x + t * y for x, y in zip(out, b)]
    return tuple(out)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def vec_neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def _moved_block(m: Mat) -> list:
    """The principal minor of m, as a list of lists, on the indices m moves:
    every index i whose row i or column i is the unit vector e_i is dropped.
    Expanding along that row or column leaves the principal minor without
    i, with sign (-1)^(i+i) = +, so the minor has the determinant of m.
    Dropping i keeps row j (column j) of every other such index j equal to
    e_j on the indices that remain, so all of them go in one pass."""
    n = len(m)
    keep = [i for i, (row, col) in enumerate(zip(m, zip(*m)))
            if row[i] != 1 or (row.count(0) < n - 1 and col.count(0) < n - 1)]
    if len(keep) == n:
        return [list(row) for row in m]
    return [[m[i][j] for j in keep] for i in keep]


def det(m: Mat) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination on the block it moves (`_moved_block`)."""
    a = _moved_block(m)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        _bareiss_step(a, k, prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_mod(m: Mat, p: int) -> int:
    """det m mod the prime p, in [0, p), by Gaussian elimination over F_p
    on the block m moves (`_moved_block`).  Each step clears column k below
    the pivot row with the multiplier a_ik / a_kk; a row with a_ik = 0 is
    left as it is."""
    a = [[x % p for x in row] for row in _moved_block(m)]
    n = len(a)
    d = 1
    for k in range(n):
        i = next((i for i in range(k, n) if a[i][k]), None)
        if i is None:
            return 0
        if i != k:
            a[k], a[i] = a[i], a[k]
            d = -d
        rk = a[k][k + 1:]
        pivot = a[k][k]
        d = d * pivot % p
        inv = pow(pivot, -1, p)
        for ri in a[k + 1:]:
            c = ri[k]
            if c:
                c = c * inv % p
                ri[k + 1:] = [(x - c * y) % p for x, y in zip(ri[k + 1:], rk)]
    return d % p


def _bareiss_step(a: list, k: int, prev: int) -> None:
    """One fraction-free elimination step below the pivot p = a[k][k]: each
    later row's entries right of column k become (p x - a_ik y) / prev, y
    the pivot row's, an exact division.  A row with a_ik = 0 is only
    rescaled by p / prev, and left as it is when p == prev.  Column k below
    the pivot is not cleared; no later step reads it."""
    rk = a[k][k + 1:]
    p = a[k][k]
    for ri in a[k + 1:]:
        c = ri[k]
        if c:
            ri[k + 1:] = [(p * x - c * y) // prev
                          for x, y in zip(ri[k + 1:], rk)]
        elif p != prev:
            ri[k + 1:] = [p * x // prev for x in ri[k + 1:]]


def _clear_denominators(m) -> tuple[int, list]:
    """(scale, a): the positive lcm of the denominators of the entries of m,
    and the integer matrix a = scale * m as a list of lists."""
    if all(type(x) is int for row in m for x in row):
        return 1, [list(row) for row in m]
    scale = lcm(*(x.denominator for row in m for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row]
                   for row in m]


def det_q(m) -> Fraction:
    """Determinant of a rational matrix, det(scale * m) / scale^n."""
    scale, a = _clear_denominators(m)
    return Fraction(det(a), scale ** len(a))


def mat_inv_q(m) -> Mat:
    """Inverse of a matrix, over Fraction.  Raises ZeroDivisionError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                factor = a[i][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def xgcd(a: int, b: int):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def xgcd_vector(coeffs) -> tuple[int, Vec]:
    """(g, x) with sum(c_i * x_i) = g = gcd(coeffs) >= 0."""
    g = 0
    combo = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if g == 0:
            g = abs(c)
            combo[i] = 1 if c > 0 else -1
            continue
        g2, p, q = xgcd(g, c)
        combo = [p * x for x in combo]
        combo[i] += q
        g = g2
    return g, tuple(combo)


def _gcd_step(p: int, r: int):
    """(a, b, c, e) with a p + b r = gcd(p, r), c p + e r = 0 and
    a e - b c = 1: the 2x2 step that folds the entry r into the pivot p.
    When p divides r it is the elementary step (1, 0, -r // p, 1), which
    leaves the pivot as it is."""
    if p and r % p == 0:
        return 1, 0, -(r // p), 1
    g, x, y = xgcd(p, r)
    return x, y, -(r // g), p // g


def smith_elimination(mat: Mat, modulus: int | None = None):
    """Smith normal form of an integer matrix, over Z or over Z/modulus,
    with its column transform kept as a log.

    Returns (divisors, log): one divisor per diagonal position,
    d_1 | d_2 | ..., and the log of the 2x2 steps (k, j, a, b, c, e) that
    make t = E_1 ... E_K from I (see `smith_columns`).  t is unimodular and
    mat @ t = s^-1 @ diag(d) for some s, which is not built.  Over Z, s is
    unimodular, every d_i >= 0 and the zeros come last.  Over Z/modulus the
    equation holds mod modulus with s invertible mod modulus, and each d_i
    divides modulus (an invariant that is 0 mod modulus reads as modulus).

    At position k one extended-gcd step on rows k, i clears each nonzero
    entry below the pivot; the rows are not recorded.  Then one logged step
    on columns k, j clears each nonzero entry right of it, and the two
    passes repeat only if such a step refilled column k.  Each repeat
    replaces the pivot by a proper divisor of it, so they end.  The cleared
    pivot p becomes gcd(p, modulus), p times a unit mod modulus, as a row
    scaling; over Z that is |p|.  Over Z/modulus every entry is kept in
    [0, modulus).  Over Z entries are not reduced, and a zero column k of
    the remaining block is first swapped with a nonzero one, logged as
    (k, j, 0, 1, 1, 0); when none is left the block is zero and the
    elimination stops.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if modulus:
        d = [[x % modulus for x in row] for row in mat]
    else:
        d = [list(row) for row in mat]
    log = []

    def combine(a, b, u, v):
        # a u + b v, entrywise
        if modulus:
            return [(a * x + b * y) % modulus for x, y in zip(u, v)]
        return [a * x + b * y for x, y in zip(u, v)]

    def clear_position(k) -> bool:
        rows = d[k:]
        if not modulus and not any(row[k] for row in rows):
            j = next((j for j in range(k + 1, ncols)
                      if any(row[j] for row in rows)), None)
            if j is None:
                return False
            for row in rows:
                row[k], row[j] = row[j], row[k]
            log.append((k, j, 0, 1, 1, 0))
        pivot_row = rows[0]
        while True:
            for row in rows[1:]:
                if row[k]:
                    a, b, c, e = _gcd_step(pivot_row[k], row[k])
                    u, v = pivot_row[k:], row[k:]
                    if b:
                        pivot_row[k:] = combine(a, b, u, v)
                    row[k:] = combine(c, e, u, v)
            for j in range(k + 1, ncols):
                if pivot_row[j]:
                    a, b, c, e = _gcd_step(pivot_row[k], pivot_row[j])
                    if b:
                        for row in rows:
                            x, y = row[k], row[j]
                            x, y = a * x + b * y, c * x + e * y
                            if modulus:
                                x, y = x % modulus, y % modulus
                            row[k], row[j] = x, y
                    else:
                        # column k stays; only rows with a nonzero entry
                        # in it change
                        for row in rows:
                            if row[k]:
                                y = row[j] + c * row[k]
                                row[j] = y % modulus if modulus else y
                    log.append((k, j, a, b, c, e))
            if not any(row[k] for row in rows[1:]):
                pivot_row[k] = gcd(pivot_row[k], modulus or 0)
                return True

    n = 0
    while n < min(nrows, ncols) and clear_position(n):
        n += 1
    # enforce the chain d_i | d_{i+1} on the n nonzero divisors: adding row
    # i + 1 to row i puts d_{i+1} beside d_i, and clearing again makes d_i
    # their gcd
    while True:
        bad = next(
            (i for i in range(n - 1) if d[i + 1][i + 1] % d[i][i]), None
        )
        if bad is None:
            return tuple(d[i][i] for i in range(min(nrows, ncols))), log
        d[bad] = combine(1, 1, d[bad], d[bad + 1])
        for k in range(bad, n):
            clear_position(k)


def smith_columns(log, n: int, cols, modulus: int | None = None
                  ) -> tuple[Vec, ...]:
    """Columns cols of the n x n transform t = E_1 ... E_K that
    `smith_elimination` logged, without forming the others; each entry is
    reduced into [0, modulus) when a modulus is given.

    A logged step (k, j, a, b, c, e) replaces column k by a col_k + b col_j
    and column j by c col_k + e col_j.  Column j of t is
    E_1 (E_2 (... (E_K e_j))): the log is applied from last to first to
    e_j, and on a vector the step sends (x_k, x_j) to
    (a x_k + c x_j, b x_k + e x_j).  A step with b = 0 is elementary
    (a = e = 1) and changes x_k only, by c x_j.  That is O(K) per column
    read, against O(K n) for all of t."""
    out = []
    for col in cols:
        x = [0] * n
        x[col] = 1 % modulus if modulus else 1
        for k, j, a, b, c, e in reversed(log):
            xj = x[j]
            if b:
                xk = x[k]
                xk, xj = a * xk + c * xj, b * xk + e * xj
                if modulus:
                    xk, xj = xk % modulus, xj % modulus
                x[k], x[j] = xk, xj
            elif xj:
                xk = x[k] + c * xj
                x[k] = xk % modulus if modulus else xk
        out.append(tuple(x))
    return tuple(out)


def smith_normal_form(mat: Mat):
    """Smith normal form with its whole column transform.

    Returns (d, t) with d = s @ mat @ t for some unimodular s (not built), t
    unimodular, d diagonal with non-negative entries d_1 | d_2 | ... .  t is
    every column replayed from the log of `smith_elimination`; a caller that
    reads only some columns asks `smith_columns` for those.
    """
    divisors, log = smith_elimination(mat)
    n = len(mat[0]) if mat else 0
    d = tuple(tuple(divisors[i] if i == j else 0 for j in range(n))
              for i in range(len(mat)))
    return d, transpose(smith_columns(log, n, range(n)))


def is_saturated_pair(u: Vec, v: Vec) -> bool:
    """Whether u, v span a saturated rank-2 sublattice of Z^n, i.e.
    the Smith form of [u; v] has diagonal (1, 1): the gcd of the 2x2 minors
    of a 2 x n matrix is d_1 d_2 of its Smith form.  Stops at the first gcd
    1."""
    g = 0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            g = gcd(g, u[i] * v[j] - u[j] * v[i])
            if g == 1:
                return True
    return False


def kernel_basis(mat: Mat) -> tuple[Vec, ...]:
    """Basis of the saturated integer kernel {x : mat @ x = 0}, as columns of
    the SNF column transform; the span is automatically primitive in Z^n."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0  # no rows: no column count either
    if ncols == 0:
        return ()
    d, t = smith_normal_form(mat)
    rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    cols = transpose(t)
    return tuple(cols[rank:])


def symmetric_elimination(gram: Mat) -> tuple:
    """(n_plus, n_minus, n_zero, det) of a symmetric integer or rational
    matrix, by one fraction-free (Bareiss) elimination that reads and
    updates only the upper triangle, kept as u[i][j - i] = a_ij for j >= i.

    Rational input is first scaled by the lcm of its denominators, which
    keeps the signature; det is scaled back.  After each pivot the trailing
    block is prev * S, S the rational Schur complement and prev that pivot:
    symmetric, so the multiplier a_ik is read as a_ki, and the next pivot
    a_kk / prev of S has the sign of a_kk * prev.  Every division by prev
    is exact.  A zero row counts once in n_zero; another zero pivot is
    repaired by e_k <- e_k + c e_j for an a_kj != 0, which changes only row
    k and makes a_kk = c (2 a_kj + c a_jj), nonzero for c = 1 or 2.  That
    keeps det, so det is the last pivot when no row was zero."""
    n = len(gram)
    scale, u = _clear_denominators([row[i:] for i, row in enumerate(gram)])
    pos = zero = 0
    prev = 1
    for k in range(n):
        rk = u[k]
        if rk[0] == 0:
            j = next((j for j in range(k + 1, n) if rk[j - k]), None)
            if j is None:
                zero += 1
                continue
            c = 1 if 2 * rk[j - k] + u[j][0] else 2
            rk = u[k] = [x + c * u[min(j, t)][abs(j - t)]
                         for t, x in enumerate(rk, k)]
            rk[0] += c * rk[j - k]
        p = rk[0]
        pos += (p > 0) == (prev > 0)
        for i in range(k + 1, n):
            q = rk[i - k]
            if q:
                u[i] = [(p * x - q * y) // prev
                        for x, y in zip(u[i], rk[i - k:])]
            elif p != prev:
                u[i] = [p * x // prev for x in u[i]]
        prev = p
    det = 0 if zero else prev if scale == 1 else Fraction(prev, scale ** n)
    return pos, n - zero - pos, zero, det


def signature(gram: Mat) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero): `symmetric_elimination` without det."""
    return symmetric_elimination(gram)[:3]
