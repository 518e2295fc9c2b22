"""Integral lattices with exact arithmetic.

A lattice is a symmetric integer Gram matrix over a labeled basis.  The
standard building blocks are the hyperbolic plane U, the negative definite
E8(-1), the K3 lattice 2E8(-1) + 3U, and the rank-24 Mukai lattice obtained
from K3 by adjoining the classes (1,0,0) and (0,0,1) of pairing -1.

Everything downstream (reflections, stabilizers, discriminant forms) builds
on the operations here: pairing, primitivity, isometry verification,
saturated orthogonal complements and discriminant groups via Smith normal
form.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, prod
from operator import mul

from . import linalg
from .linalg import Mat, Vec, freeze


class LatticeError(ValueError):
    pass


# Fixed E8 Gram: Cartan matrix in Bourbaki node order (chain 1-3-4-5-6-7-8,
# node 2 attached to node 4).  E8(-1) is its negation.  See README for the
# matrix spelled out.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_cartan() -> Mat:
    g = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = g[j - 1][i - 1] = -1
    return freeze(g)


def _make_checked(cls, iterable):
    """`_make`, through which `_replace` also builds, for a record that
    checks or normalises its fields in __new__: it goes through __new__."""
    return cls(*iterable)


class Block(namedtuple("Block", "name start size")):
    __slots__ = ()


class Lattice(namedtuple("Lattice", "gram basis_labels blocks name")):
    """A named tuple of the four compared fields.  Its instance dict holds
    what is derived from them, unseen by == and repr: `_rows`, per row of G
    the (j, g_ij) with g_ij != 0, the only form in which G multiplies a
    vector; `_hash`, the hash of the fields, formed once because lattices
    key caches; and the `_elimination` cached below."""

    def __new__(cls, gram: Mat, basis_labels: tuple[str, ...],
                blocks: tuple[Block, ...] = (), name: str = ""):
        self = tuple.__new__(cls, (gram, basis_labels, blocks, name))
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square")
        if len(basis_labels) != n:
            raise LatticeError("basis labels must match the rank")
        if gram != linalg.transpose(gram):
            raise LatticeError("Gram matrix must be symmetric")
        if not all(isinstance(g, int) for row in gram for g in row):
            raise LatticeError("Gram matrix must have integer entries")
        self._rows = tuple(
            tuple((j, g) for j, g in enumerate(r) if g) for r in gram)
        self._hash = tuple.__hash__(self)
        return self

    _make = classmethod(_make_checked)

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @cached_property
    def _elimination(self) -> tuple:
        # (n_plus, n_minus, n_zero, det G), kept on the object, unseen by ==
        return linalg.symmetric_elimination(self.gram)

    def signature(self) -> tuple[int, int]:
        pos, neg, zero, _ = self._elimination
        if zero:
            raise LatticeError("degenerate Gram matrix")
        return pos, neg

    def determinant(self) -> int:
        """det G, from the one elimination that also gives the signature."""
        return self._elimination[3]

    def _check_length(self, *vectors):
        n = len(self.gram)
        for v in vectors:
            if len(v) != n:
                raise LatticeError("vector length does not match lattice rank")

    def pair(self, x: Vec, y: Vec):
        """(x, y) = x^T G y, for int or Fraction entries."""
        self._check_length(x, y)
        total = 0
        for a, row in zip(x, self._rows):
            if a:
                for j, g in row:
                    total += a * g * y[j]
        return total

    def square(self, x: Vec):
        return self.pair(x, x)

    def covector(self, x: Vec) -> Vec:
        """G x, the row covector y -> (x, y), as sum_j x_j G[:, j] over the
        nonzero x_j; column j of the symmetric G is its row j."""
        self._check_length(x)
        out = [0] * self.rank
        for a, row in zip(x, self._rows):
            if a:
                for j, g in row:
                    out[j] += a * g
        return tuple(out)

    def basis_vector(self, label: str) -> Vec:
        if label not in self.basis_labels:
            raise LatticeError(f"no basis vector labelled {label!r}")
        return linalg.identity(self.rank)[self.basis_labels.index(label)]

    def plane_vector(self, block: Block, a: int, b: int) -> Vec:
        """a e + b f, for the basis (e, f) of a rank-2 block."""
        v = [0] * self.rank
        v[block.start], v[block.start + 1] = a, b
        return tuple(v)

    def blocks_named(self, name: str) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.name == name)

    def gram_inverse(self) -> tuple[Mat, int]:
        """(A, d) with G^{-1} = A / d, A integral and d = |det G|."""
        return _gram_inverse(self.gram, abs(self.determinant()))


@lru_cache(maxsize=None)
def _gram_inverse(gram: Mat, d: int) -> tuple[Mat, int]:
    a = freeze([int(x * d) for x in row] for row in linalg.mat_inv_q(gram))
    return a, d


def _divide_exact(v: Vec, d: int) -> Vec:
    """v / d, which must be integral: it is for the G^{-1} M^T G of an
    isometry M."""
    if d == 1:
        return v
    if any(x % d for x in v):
        raise LatticeError("matrix is not an isometry; inverse not integral")
    return tuple(x // d for x in v)


def _block_pieces(spec_item):
    """Expand one block descriptor into a list of (name, labels, gram)."""
    if isinstance(spec_item, (tuple, list)):
        kind = spec_item[0]
        if kind != "diag":
            raise LatticeError(f"unknown block {spec_item!r}")
        entries = tuple(int(x) for x in spec_item[1])
        labels = tuple(f"d{i+1}" for i in range(len(entries)))
        g = freeze([[x if i == j else 0 for j in range(len(entries))]
                    for i, x in enumerate(entries)])
        return [(f"diag{list(entries)}", labels, g)]
    if spec_item == "U":
        return [("U", ("e", "f"), ((0, 1), (1, 0)))]
    if spec_item == "E8_minus":
        return [("E8_minus", tuple(f"a{i+1}" for i in range(8)),
                 linalg.mat_neg(_e8_cartan()))]
    if spec_item == "K3":
        return (_block_pieces("E8_minus") + _block_pieces("E8_minus")
                + _block_pieces("U") + _block_pieces("U") + _block_pieces("U"))
    if spec_item == "Mukai":
        # H^0 + H^4 part: ((1,0,0),(0,0,1)) = -1, both isotropic.
        return _block_pieces("K3") + [("H04", ("h0", "h4"), ((0, -1), (-1, 0)))]
    raise LatticeError(f"unknown block {spec_item!r}")


def build_lattice(spec) -> Lattice:
    """Orthogonal direct sum of standard blocks.

    spec is a sequence of block descriptors: "U", "E8_minus", "K3", "Mukai",
    or ("diag", (n1, ..., nk)).
    """
    spec = tuple(spec)
    if not spec:
        raise LatticeError("empty block specification")
    pieces = []
    for item in spec:
        pieces.extend(_block_pieces(item))

    rank = sum(len(labels) for _, labels, _ in pieces)
    gram = [[0] * rank for _ in range(rank)]
    labels: list[str] = []
    blocks: list[Block] = []
    counts: dict[str, int] = {}
    offset = 0
    for name, piece_labels, piece_gram in pieces:
        k = counts.get(name, 0) + 1
        counts[name] = k
        suffix = "" if name in ("H04",) else f".{k}"
        blocks.append(Block(name, offset, len(piece_labels)))
        labels.extend(f"{lab}{suffix}" for lab in piece_labels)
        for i, row in enumerate(piece_gram, offset):
            gram[i][offset:offset + len(row)] = row
        offset += len(piece_labels)
    return Lattice(freeze(gram), tuple(labels), tuple(blocks),
                   name="+".join(str(s) for s in spec))


@lru_cache(maxsize=None)
def hyperbolic_plane() -> Lattice:
    return build_lattice(("U",))


@lru_cache(maxsize=None)
def e8_minus() -> Lattice:
    return build_lattice(("E8_minus",))


@lru_cache(maxsize=None)
def k3_lattice() -> Lattice:
    return build_lattice(("K3",))


@lru_cache(maxsize=None)
def mukai_lattice() -> Lattice:
    return build_lattice(("Mukai",))


def is_primitive(lattice: Lattice, x: Vec) -> bool:
    lattice._check_length(x)
    if linalg.is_zero_vec(x):
        raise LatticeError("the zero vector is neither primitive nor imprimitive")
    return gcd(*x) == 1


def primitive_part(x: Vec) -> tuple[int, Vec]:
    """x = c * x0 with c > 0 and x0 primitive (x must be nonzero)."""
    c = gcd(*x)
    if c == 0:
        raise LatticeError("zero vector has no primitive part")
    return c, tuple(a // c for a in x)


def _isometry_det(lattice: Lattice, matrix: Mat) -> int:
    """det M for an M with M^T G M = G.  Then det(M)^2 det G = det G, so on
    a nondegenerate lattice det M = +-1, and 1 and -1 differ mod 3: M is
    eliminated over F_3 (`linalg.det_mod`, with each row of the block M
    moves packed into one int and no reduction per entry after packing).
    A residue 0 means M is not an isometry (LatticeError).  A degenerate
    lattice puts no bound on det M, which is then taken by Bareiss."""
    if not lattice.determinant():
        return linalg.det(matrix)
    r = linalg.det_mod(matrix, 3)
    if r == 0:
        raise LatticeError("determinant is 0 mod 3; matrix is not an isometry")
    return 1 if r == 1 else -1


class IsometryCheck(namedtuple("IsometryCheck", "is_isometry matrix lattice")):
    """Whether a matrix preserves the Gram form; its determinant is computed
    only when read, mod 3 when it is an isometry (`_isometry_det`)."""

    __slots__ = ()

    @property
    def det(self) -> int:
        if self.is_isometry:
            return _isometry_det(self.lattice, self.matrix)
        return linalg.det(self.matrix)


class Isometry:
    """An integer matrix M with M^T G M = G; columns are images of basis vectors.

    `Isometry(lattice, matrix)` is the one public door, for matrices from
    outside the library: it verifies M^T G M = G (`check_isometry`) and
    raises LatticeError otherwise.  The library's own constructions go
    through `_trusted`, each stating why its result preserves the form.

    `outer` is (s, terms) when a library site built M = s I + sum_k b_k
    c_k^T that way, through `_trusted(lattice, outer=(s, terms))`.  Only
    two methods read it: `.matrix`, which forms M when first read
    (`linalg.identity_plus_outer_mul` applied to I), and `compose` with M
    on the left, which multiplies through the terms instead.  Everything
    else, `apply` included, reads the matrix.
    ==, hash and repr are those of (lattice, matrix) either way.

    `_orientation_char` holds `characters.orientation_char(self)` once it
    has been read, and `_restricted` holds (model, model.restrict(self))
    once a `stabilizer.VPerpModel` has restricted it.  Each is left unset
    until then, and takes no part in ==, hash or repr.  The matrix never
    changes, so neither does either value."""

    __slots__ = ("lattice", "outer", "_matrix", "_orientation_char",
                 "_restricted")

    def __init__(self, lattice: Lattice, matrix):
        check = check_isometry(lattice, matrix)
        if not check.is_isometry:
            raise LatticeError("matrix does not preserve the Gram form")
        self.lattice = lattice
        self.outer = None
        self._matrix = check.matrix

    @classmethod
    def _trusted(cls, lattice: Lattice, matrix: Mat | None = None,
                 outer=None) -> "Isometry":
        """The isometry with this frozen matrix, or with outer = (s, terms)
        for a nonempty tuple of (b, c) pairs of lattice-rank vectors, not
        verified: the caller knows it preserves the form."""
        iso = cls.__new__(cls)
        iso.lattice = lattice
        iso.outer = outer
        iso._matrix = matrix
        return iso

    @property
    def matrix(self) -> Mat:
        if self._matrix is None:
            self._matrix = linalg.identity_plus_outer_mul(
                *self.outer, linalg.identity(self.lattice.rank))
        return self._matrix

    def __eq__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.lattice == other.lattice and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.lattice, self.matrix))

    def __repr__(self):
        return f"Isometry(lattice={self.lattice!r}, matrix={self.matrix!r})"

    @classmethod
    def identity(cls, lattice: Lattice) -> "Isometry":
        # I^T G I = G
        return cls._trusted(lattice, linalg.identity(lattice.rank))

    def apply(self, v: Vec) -> Vec:
        self.lattice._check_length(v)
        return linalg.mat_vec(self.matrix, v)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product self.matrix @ other.matrix)."""
        if other.lattice.gram != self.lattice.gram:
            raise LatticeError("isometries live on different lattices")
        # (AB)^T G (AB) = B^T (A^T G A) B = B^T G B = G
        if self.outer is not None:
            product = linalg.identity_plus_outer_mul(*self.outer, other.matrix)
        else:
            product = linalg.mat_mul(self.matrix, other.matrix)
        return Isometry._trusted(self.lattice, product)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

    def inverse(self) -> "Isometry":
        # M^{-1} = G^{-1} M^T G for an isometry, with G^{-1} = A / d; the
        # rows of M^T G are the covectors G m_j of the columns m_j of M.  The
        # inverse of an isometry is an isometry
        a, d = self.lattice.gram_inverse()
        mt_g = tuple(map(self.lattice.covector, linalg.transpose(self.matrix)))
        rows = (_divide_exact(row, d) for row in linalg.mat_mul(a, mt_g))
        return Isometry._trusted(self.lattice, freeze(rows))

    def det(self) -> int:
        return _isometry_det(self.lattice, self.matrix)

    def negate(self) -> "Isometry":
        # (-M)^T G (-M) = M^T G M
        return Isometry._trusted(self.lattice, linalg.mat_neg(self.matrix))

    def fixes(self, v: Vec) -> bool:
        return self.apply(v) == tuple(v)

    def is_identity(self) -> bool:
        return self.matrix == linalg.identity(self.lattice.rank)


def check_isometry(lattice: Lattice, matrix) -> IsometryCheck:
    """Whether M^T G M == G, M integer (else LatticeError).  Row x is read
    as P(x) = sum_j x_j 2^(s j): P(row i of M^T G M) = sum_k m_ki sum_j g_kj
    P(row j of M), summed over nonzero m_ki, g_kj.  For |m_ij| < 2^b, rank n
    and r = max_k sum_j |g_kj|, the entries of M^T G M (below n r 4^b) and
    of G (at most r) lie in (-2^(s-1), 2^(s-1)), s = 2b + bitlength(nr) + 1.
    P is injective there: if two such rows first differ at slot j, by
    0 < |d| < 2^s, their P differ by d 2^(s j) != 0 mod 2^(s (j+1))."""
    matrix = freeze(matrix)
    if {len(matrix), *map(len, matrix)} != {lattice.rank}:
        raise LatticeError("matrix must be square of the lattice rank")
    try:
        b = max(map(int.bit_length, chain(*matrix)), default=0)
    except TypeError:
        raise LatticeError("an isometry check needs integer entries") from None
    r = max((sum(abs(g) for _, g in row) for row in lattice._rows), default=0)
    s = 2 * b + (lattice.rank * r).bit_length() + 1
    rows = [sum(x << s * j for j, x in enumerate(row) if x) for row in matrix]
    gm = [sum(g * rows[j] for j, g in row) for row in lattice._rows]
    return IsometryCheck(all(sum(x * p for x, p in zip(col, gm) if x) ==
                             sum(g << s * j for j, g in grow) for col, grow
                             in zip(zip(*matrix), lattice._rows)),
                         matrix, lattice)


def orthogonal_complement(lattice: Lattice, vectors) -> tuple[tuple[Vec, ...], Mat]:
    """Saturated complement {x : (x, s) = 0 for all s}, with restricted Gram."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return linalg.identity(lattice.rank), lattice.gram
    rows = tuple(lattice.covector(v) for v in vectors)
    basis = linalg.kernel_basis(rows)
    # (b_i, b_j) = (G b_i) . b_j, formed for j >= i and mirrored
    n = len(basis)
    gram = [[0] * n for _ in range(n)]
    for i, c in enumerate(map(lattice.covector, basis)):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(map(mul, c, basis[j]))
    return basis, freeze(gram)


class DiscGroup(namedtuple("DiscGroup", "divisors lifts q_values order")):
    """(L*/L, q): elementary divisors with rational generator lifts.

    lifts[i] has order divisors[i] in L*/L; d * lift lies in L and every lift
    pairs integrally with L.  Each lift is reduced into [0, 1), as c / d
    with 0 <= c < d.  q(lift) is recorded mod 2; that is an invariant of the
    class for an even lattice, while for an odd one q mod 2 depends on the
    representative and only q mod 1 does not.
    """

    __slots__ = ()

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


def discriminant_group(lattice: Lattice) -> DiscGroup:
    """L*/L and q from the Smith form of G taken mod D = |det G|.

    The elimination gives G t = s^-1 diag(d) (mod D), t unimodular.  Each
    d_i divides D, so G t_i = 0 (mod d_i) and t_i / d_i lies in L*.  If
    sum a_i t_i / d_i is integral, t (a_i D / d_i) = 0 (mod D): d_i | a_i.
    So the t_i / d_i embed the sum of the Z/d_i, of order prod d_i = D
    (checked below), in L*/L of order D, and generate it with orders d_i.
    t_i mod d_i is the same class; it is replayed mod d_n, a multiple of d_i.
    """
    g = lattice.gram
    order = abs(lattice.determinant())
    if order == 0:
        raise LatticeError("degenerate Gram matrix")
    if order == 1:
        return DiscGroup((), (), (), 1)
    diag, log = linalg.smith_elimination(g, order)
    product = prod(diag)
    if product != order:
        raise LatticeError(f"discriminant order {product} is not |det G|")
    # a unit d_i gives the trivial group, so only the other columns of the
    # transform are built
    nonunit = [i for i, x in enumerate(diag) if x != 1]
    divisors = []
    lifts = []
    q_values = []
    for i, col in zip(nonunit, linalg.smith_columns(
            log, lattice.rank, nonunit, diag[-1])):
        di = diag[i]
        c = tuple(x % di for x in col)
        divisors.append(di)
        lifts.append(tuple(Fraction(x, di) for x in c))
        # q(c / d) mod 2 is (c^T G c mod 2d^2) / d^2
        modulus = 2 * di * di
        q_values.append(Fraction(lattice.square(c) % modulus, di * di))
    return DiscGroup(tuple(divisors), tuple(lifts), tuple(q_values), order)
