"""Seeded inputs and exact reference arithmetic owned by the benchmark.

Nothing here calls into ``mukailat``: the Gram matrices, the +-2 sampler,
the products of reflections and the checks are written out again, so that a
change to the library's samplers or kernels cannot change what the
benchmark feeds in or how it judges the outputs.

Conventions (the library's documented ones): the Mukai basis is
E8(-1), E8(-1), U, U, U (the 22 K3 coordinates) followed by h0 = (1,0,0)
and h4 = (0,0,1) with (h0, h4) = -1.  A Mukai vector (r, c, s) has
coordinates c + (r, s).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
K3_RANK = 22
MUKAI_RANK = 24
E8_STARTS = (0, 8)
U_STARTS = (16, 18, 20)


def _mukai_gram():
    g = [[0] * MUKAI_RANK for _ in range(MUKAI_RANK)]
    for s in E8_STARTS:
        for i in range(8):
            g[s + i][s + i] = -2
        for i, j in E8_EDGES:
            g[s + i - 1][s + j - 1] = g[s + j - 1][s + i - 1] = 1
    for s in U_STARTS:
        g[s][s + 1] = g[s + 1][s] = 1
    g[22][23] = g[23][22] = -1
    return tuple(tuple(row) for row in g)


MUKAI_GRAM = _mukai_gram()
K3_GRAM = tuple(row[:K3_RANK] for row in MUKAI_GRAM[:K3_RANK])
# sparse rows: for each i the (j, g_ij) with g_ij != 0
_SPARSE = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                for row in MUKAI_GRAM)


def gram_vec(x):
    """G x in Mukai coordinates (length 24) or K3 coordinates (length 22)."""
    return tuple(sum(g * x[j] for j, g in _SPARSE[i] if j < len(x))
                 for i in range(len(x)))


def pair(x, y):
    return sum(a * b for a, b in zip(x, gram_vec(y)))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mukai_coords(r, c, s):
    return tuple(c) + (r, s)


# -- the benchmark's own +-2 sampler ------------------------------------------

def _e8_root(rng):
    """A root of one E8(-1) block: a simple root or the sum of two adjacent
    simple roots, with a random sign; square -2."""
    v = [0] * K3_RANK
    start = rng.choice(E8_STARTS)
    sign = rng.choice((1, -1))
    if rng.random() < 0.5:
        v[start + rng.randrange(8)] = sign
    else:
        i, j = rng.choice(E8_EDGES)
        v[start + i - 1] = v[start + j - 1] = sign
    return v


def pm2_vector(rng):
    """A random K3 vector of square +2 or -2 (the benchmark's own mix)."""
    kind = rng.randrange(4)
    if kind == 0:
        v = [0] * K3_RANK
        s = rng.choice(U_STARTS)
        v[s], v[s + 1] = 1, rng.choice((1, -1))
    elif kind == 1:
        v = _e8_root(rng)
    elif kind == 2:
        s1, s2 = rng.sample(U_STARTS, 2)
        k = rng.randint(-4, 4)
        v = [0] * K3_RANK
        v[s1], v[s1 + 1] = 1, k
        v[s2], v[s2 + 1] = 1, rng.choice((1, -1)) - k
    else:
        v = _e8_root(rng)
        s = rng.choice(U_STARTS)
        v[s], v[s + 1] = rng.choice((1, -1)), rng.choice((0, 2))
        v[s + 1] *= v[s]
    v = tuple(v)
    assert pair(v, v) in (2, -2)
    return v


# -- reflections and their exact products --------------------------------------

def reflect_right(mat, u):
    """mat <- mat @ R_u in place, R_u(x) = x - (2 (x,u)/(u,u)) u, a true
    reflection for (u,u) = +-2.  Rank-one update, O(n^2)."""
    n = len(u)
    q = pair(u, u)
    coef = -2 // q  # R_u = I + coef * u (G u)^T
    gu = gram_vec(u)
    mu = [sum(row[k] * u[k] for k in range(n) if u[k]) * coef for row in mat]
    for i, row in enumerate(mat):
        if mu[i]:
            c = mu[i]
            for j in range(n):
                if gu[j]:
                    row[j] += c * gu[j]


def extend_k3(u):
    """A K3 vector seen in Mukai coordinates (zero on h0, h4)."""
    return tuple(u) + (0, 0)


def canonical_tau_class(m):
    """L = e + (m-1) f in the first hyperbolic block: primitive, L^2 = 2m-2."""
    c = [0] * K3_RANK
    c[U_STARTS[0]], c[U_STARTS[0] + 1] = 1, m - 1
    return tuple(c)


def reflect_vec(x, u):
    q = pair(u, u)
    k = -2 * pair(x, u) // q
    return tuple(a + k * b for a, b in zip(x, u))


def tau_vector(rng, m):
    """(1, -L, m) with L the image of the canonical class under 0..2 random
    K3 reflections; a -2 vector orthogonal to v = (1, 0, -m)."""
    cls = canonical_tau_class(m)
    for _ in range(rng.randrange(3)):
        cls = reflect_vec(cls, pm2_vector(rng))
    return mukai_coords(1, tuple(-x for x in cls), m)


def rank_tau_vector(m, a):
    """(a, c, m a) with c = e + (m a^2 - 1) f: a -2 vector orthogonal to v
    whose rank is a."""
    c = [0] * K3_RANK
    c[U_STARTS[0]], c[U_STARTS[0] + 1] = 1, m * a * a - 1
    return mukai_coords(a, tuple(c), m * a)


class Element:
    """A sampled element of Gamma_v with the letters that produced it."""

    __slots__ = ("m", "letters", "matrix", "plus2")

    def __init__(self, m, letters, matrix):
        self.m = m
        self.letters = letters  # Mukai-coordinate reflection vectors
        self.matrix = matrix    # tuple of row tuples
        self.plus2 = sum(1 for u in letters if pair(u, u) == 2)


def sample_element(rng, m, length):
    """A product of `length` reflections, each a K3 +-2 reflection (a Gamma_0
    letter) or a tau reflection in (1, -L, m), with probability 1/2 each."""
    letters = []
    for _ in range(length):
        if rng.random() < 0.5:
            letters.append(extend_k3(pm2_vector(rng)))
        else:
            letters.append(tau_vector(rng, m))
    mat = identity(MUKAI_RANK)
    for u in letters:
        reflect_right(mat, u)
    elem = Element(m, tuple(letters), tuple(tuple(r) for r in mat))
    check_gamma_v(elem.matrix, m)
    return elem


def rank_element(m, a):
    """The canonical tau reflection followed by the reflection in
    rank_tau_vector(m, a).  For the (m, a) that workloads.RANK_TAIL lists,
    first_tau_rank of the product is a."""
    letters = (mukai_coords(1, tuple(-x for x in canonical_tau_class(m)), m),
               rank_tau_vector(m, a))
    mat = identity(MUKAI_RANK)
    for u in letters:
        reflect_right(mat, u)
    elem = Element(m, letters, tuple(tuple(r) for r in mat))
    check_gamma_v(elem.matrix, m)
    return elem


def first_tau_rank(elem):
    """The rank a of the tau letter that factor's first reduction step
    needs for this element, from x = g(w), w = (1, 0, m): with c the content
    of (class part of x) / 2m and r the rank of x, a is the residue of
    -r^{-1} mod c of least absolute value (1 when c <= 1).  Normalizing a
    tau letter of rank a through the Sym3 relations yields on the order of
    |a|^(log2 3) letters, each with its own witness search."""
    m = elem.m
    w = mukai_coords(1, (0,) * K3_RANK, m)
    x = [sum(a * b for a, b in zip(row, w)) for row in elem.matrix]
    c = content(xi // (2 * m) for xi in x[:K3_RANK])
    if c <= 1:
        return 1
    a = -pow(x[K3_RANK] % c, -1, c) % c
    return a - c if a > c - a else a


# -- exact checks --------------------------------------------------------------

class CheckFailed(Exception):
    pass


def preserves_gram(mat, gram):
    """M^T G M == G, with G applied through its sparse rows."""
    n = len(gram)
    sparse = _SPARSE if gram is MUKAI_GRAM else tuple(
        tuple((j, x) for j, x in enumerate(row) if x) for row in gram)
    gm = [[sum(g * mat[j][k] for j, g in sparse[i]) for k in range(n)]
          for i in range(n)]
    mt = tuple(zip(*mat))
    for i in range(n):
        for k in range(n):
            if sum(a * b[k] for a, b in zip(mt[i], gm) if a) != gram[i][k]:
                return False
    return True


def check_gamma_v(mat, m):
    v = mukai_coords(1, (0,) * K3_RANK, -m)
    if tuple(sum(a * b for a, b in zip(row, v)) for row in mat) != v:
        raise CheckFailed("sampled element does not fix v")
    if not preserves_gram(mat, MUKAI_GRAM):
        raise CheckFailed("sampled element does not preserve the Gram form")


def det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        p = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def signature_small(gram):
    """(n_plus, n_minus) of a small nondegenerate symmetric matrix, by exact
    rational congruence diagonalization."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next(j for j in range(k + 1, n) if a[k][j] != 0)
                for i in range(n):
                    a[k][i] += a[j][i]
                for i in range(n):
                    a[i][k] += a[i][j]
        p = a[k][k]
        pos, neg = (pos + 1, neg) if p > 0 else (pos, neg + 1)
        for i in range(k + 1, n):
            c = a[i][k] / p
            if c:
                for t in range(n):
                    a[i][t] -= c * a[k][t]
                for t in range(n):
                    a[t][i] -= c * a[t][k]
    return pos, neg


def row_content(rows):
    """gcd of the maximal minors of a full-row-rank integer matrix, from a
    column-style Hermite reduction (unimodular column operations keep the
    gcd of maximal minors).  The span of the rows is saturated in Z^n iff
    this is 1."""
    a = [list(r) for r in rows]
    k, n = len(a), len(a[0])
    content = 1
    for i in range(k):
        # gather row i's entries in columns i.. into column i by xgcd steps
        for j in range(i + 1, n):
            x, y = a[i][i], a[i][j]
            if y == 0:
                continue
            g, p, q = _xgcd(x, y)
            xg, yg = x // g, y // g
            for r in a:
                ci, cj = r[i], r[j]
                r[i], r[j] = p * ci + q * cj, -yg * ci + xg * cj
        if a[i][i] == 0:
            return 0
        content *= abs(a[i][i])
    return content


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def random_mukai_vector(rng, bound):
    """A random nonzero Mukai vector with entries in [-bound, bound]."""
    while True:
        x = tuple(rng.randint(-bound, bound) for _ in range(MUKAI_RANK))
        if any(x):
            return x


def nondegenerate_triple(rng, bound):
    """Three Mukai vectors whose 3x3 Gram is nondegenerate, so that their
    orthogonal complement in the unimodular Mukai lattice is too."""
    while True:
        vs = tuple(random_mukai_vector(rng, bound) for _ in range(3))
        g = tuple(tuple(pair(a, b) for b in vs) for a in vs)
        if det(g):
            return vs, g


def content(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g
