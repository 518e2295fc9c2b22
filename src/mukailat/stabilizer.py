"""The stabilizer of the Hilbert-scheme Mukai vector v = (1, 0, -m).

The orthogonal complement v-perp is K3 + <-2m> with w = (1, 0, m) spanning
the <-2m> summand; its discriminant group is cyclic of order 2m with
q(w/2m) = -1/2m mod 2.  The stabilizer Gamma_v of v in the full isometry
group is the kernel of O(v-perp) -> O(disc), and it is generated by O(K3)
(extended by the identity) together with reflections in -2 vectors
(1, -L, m) with L primitive of square 2m - 2.  This module carries the
constructive content: orbit classification of -2 vectors, witnesses for the
two orbits, pairs of classes satisfying the Sym3 relations, samplers for the
generator families, and the factorization of an arbitrary element of
Gamma_v into those generators.
"""

from __future__ import annotations

import enum
import random
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg
from .characters import _rho, general_reflection, orientation_char, reflection
from .embeddings import embed_rank2
from .lattices import (
    Block,
    DiscGroup,
    Isometry,
    Lattice,
    LatticeError,
    _make_checked,
    is_primitive,
    k3_lattice,
    mukai_lattice,
    primitive_part,
)
from .mukai import MukaiVector, hilbert_scheme_vector, mukai_pairing


class NotInGammaV(LatticeError):
    pass


class InvariantError(LatticeError):
    """An identity that a construction here guarantees does not hold: the
    input was not what the caller said (say, not an isometry), or this
    library has a bug."""


def _ensure(condition: bool, message: str):
    if not condition:
        raise InvariantError(message)


class VPerpModel(namedtuple("VPerpModel",
                             "m mukai k3 lattice disc_group")):
    """v-perp for v = (1, 0, -m): basis = 22 K3 vectors plus w = (1, 0, m).
    `lattice` is that rank-23 lattice, Gram K3 + <-2m>, and `disc_group`
    its discriminant group, in closed form (see vperp_model)."""

    __slots__ = ()

    @property
    def v(self) -> MukaiVector:
        return hilbert_scheme_vector(self.m)

    @property
    def w(self) -> MukaiVector:
        return MukaiVector(1, linalg.zero_vec(self.k3.rank), self.m)

    def to_perp_coords(self, x: MukaiVector):
        """Coordinates of x in the basis [K3 basis..., w]; x must lie in v-perp."""
        if x.s != x.r * self.m:
            raise LatticeError("vector is not orthogonal to v")
        return x.c + (x.r,)

    def from_perp_coords(self, coords) -> MukaiVector:
        coords = tuple(coords)
        r = coords[-1]
        return MukaiVector(r, coords[:-1], r * self.m)

    def restrict(self, g: Isometry) -> Isometry:
        """Restriction to v-perp of a Mukai-lattice isometry fixing v; kept
        on g and returned from there when this model restricts g again."""
        kept = getattr(g, "_restricted", None)
        if kept is not None and kept[0] is self:
            return kept[1]
        if g.lattice.gram != self.mukai.gram:
            raise LatticeError("expected an isometry of the Mukai lattice")
        if not g.fixes(self.v.coords()):
            raise NotInGammaV("isometry does not fix v")
        # the images of the K3 basis vectors are g's first k columns, and
        # g(w) = g(h0) + m g(h4); each image (c, r, s) lies in v-perp iff
        # s = m r, and then has coordinates (c, r)
        k, m = self.k3.rank, self.m
        rows = [r[:k] + (r[k] + m * r[k + 1],) for r in g.matrix]
        if rows[k + 1] != tuple(m * x for x in rows[k]):
            raise LatticeError("vector is not orthogonal to v")
        # g fixes v, so it maps v-perp onto itself and preserves the form
        # there
        restricted = Isometry._trusted(self.lattice, tuple(rows[:k + 1]))
        g._restricted = (self, restricted)
        return restricted

    def extend_k3(self, h: Isometry) -> Isometry:
        """Extend an isometry of the K3 block by the identity on h0, h4."""
        if h.lattice.gram != self.k3.gram:
            raise LatticeError("expected an isometry of the K3 lattice")
        rows = tuple(row + (0, 0) for row in h.matrix)
        zeros = (0,) * self.k3.rank
        # h + id preserves the orthogonal sum K3 + <h0, h4>
        return Isometry._trusted(
            self.mukai, rows + (zeros + (1, 0), zeros + (0, 1)))


def vperp_model(m: int) -> VPerpModel:
    if m < 1:
        raise LatticeError("m must be a positive integer")
    mukai = mukai_lattice()
    k3 = k3_lattice()
    gram = tuple(row + (0,) for row in k3.gram) + \
        ((0,) * k3.rank + (-2 * m,),)
    blocks = k3.blocks + (Block(f"W{-2*m}", k3.rank, 1),)
    labels = k3.basis_labels + ("w",)
    lattice = Lattice(gram, labels, blocks, name=f"vperp:{m}")
    # K3 is unimodular, so the discriminant group of K3 + <-2m> is that of
    # <-2m>: Z/2m, generated by w/2m with q(w/2m) = -2m/(2m)^2 = -1/2m
    lift = (Fraction(0),) * k3.rank + (Fraction(1, 2 * m),)
    dg = DiscGroup((2 * m,), (lift,), (Fraction(-1, 2 * m) % 2,), 2 * m)
    return VPerpModel(m, mukai, k3, lattice, dg)


def disc_action(model: VPerpModel, g: Isometry) -> int:
    """The induced action on (v-perp)*/v-perp = Z/2m, as a unit u mod 2m.

    g(w)/2m must be congruent to u * w/2m, i.e. the K3-block part of g(w)
    must vanish mod 2m; this holds for every isometry of v-perp.
    """
    if g.lattice.gram != model.lattice.gram:
        raise LatticeError("expected an isometry of v-perp")
    two_m = 2 * model.m
    # g(w) is the last column of g
    *k3_part, u = (row[-1] % two_m for row in g.matrix)
    _ensure(not any(k3_part),
            "induced map on the discriminant is not multiplication by a unit")
    _ensure((u * u - 1) % (2 * two_m) == 0, "q is not preserved")
    return u


class ExtensionKind(enum.Enum):
    IN_GAMMA_V = "InGammaV"
    EXTENDS_SENDING_V_TO_MINUS_V = "ExtendsSendingVToMinusV"
    DOES_NOT_EXTEND = "DoesNotExtend"


def in_gamma_v(model: VPerpModel, g: Isometry) -> ExtensionKind:
    """Nikulin's criterion: an isometry of v-perp extends to the Mukai
    lattice iff it acts on the discriminant by +-1; the kernel is Gamma_v."""
    u = disc_action(model, g)  # in [0, 2m), and 2m >= 2
    if u == 1:
        return ExtensionKind.IN_GAMMA_V
    if u == 2 * model.m - 1:
        return ExtensionKind.EXTENDS_SENDING_V_TO_MINUS_V
    return ExtensionKind.DOES_NOT_EXTEND


def w_membership(model: VPerpModel, g: Isometry) -> bool:
    """Membership in the reflection group W(v-perp): acting by +-1 on the
    discriminant group and orientation preserving.  The discriminant action
    comes first: it rejects an isometry of another lattice."""
    if in_gamma_v(model, g) is ExtensionKind.DOES_NOT_EXTEND:
        return False
    return orientation_char(g) == 0


class Minus2Orbit(enum.Enum):
    A_PLUS = "APlus"
    A_MINUS = "AMinus"


def classify_minus2(model: VPerpModel, v0: MukaiVector) -> Minus2Orbit:
    """The two O(v-perp)-orbits of -2 vectors (r, L, rm) in v-perp are told
    apart by 2-divisibility of L."""
    if mukai_pairing(v0, v0) != -2:
        raise LatticeError("not a -2 vector")
    if v0.s != v0.r * model.m:
        raise LatticeError("vector is not orthogonal to v")
    if all(x % 2 == 0 for x in v0.c):
        return Minus2Orbit.A_PLUS
    return Minus2Orbit.A_MINUS


def aplus_witness(m: int) -> MukaiVector | None:
    """(1, 2 L0, m) with L0 = e + ((m-1)/4) f when m = 1 mod 4; else None
    (the orbit A_+ is empty in that case)."""
    if m < 1:
        raise LatticeError("m must be a positive integer")
    if m % 4 != 1:
        return None
    k3 = k3_lattice()
    c = k3.plane_vector(k3.blocks_named("U")[0], 2, 2 * ((m - 1) // 4))
    # L0^2 = 2 (m - 1)/4, so (2 L0)^2 = 8 (m - 1)/4 = 2m - 2 and
    # (1, 2 L0, m)^2 = 2m - 2 - 2m = -2
    return MukaiVector(1, c, m)


# -- pairs of classes and the Sym3 relations ----------------------------------


def pair_witness_peel(m: int, l0, r: int):
    """(L1, L0 - L1) for L0 primitive of square 2 r^2 m - 2: L1 has L1^2 =
    2m - 2 and L0.L1 = 2rm - 1, so v1 = (1, -L1, m) and v2 = v0 - v1 =
    (r - 1, -(L0 - L1), (r - 1) m) form a Sym3 pair, (v1, v2) = 1, for v0 =
    (r, -L0, rm).  `embed_rank2` checks L0 and returns a saturated {L0, L1},
    so L0 - L1 is primitive; on K3 it never enumerates or raises
    WitnessNotFound."""
    l0 = tuple(l0)
    l1 = embed_rank2(k3_lattice(), l0,
                     (2 * r * r * m - 2, 2 * r * m - 1, 2 * m - 2))
    return l1, linalg.vec_sub(l0, l1)


def _check_pair_conditions(m: int, l1, l2, a: int, b: int):
    k3 = k3_lattice()
    if k3.square(l1) != 2 * a * a * m - 2:
        raise LatticeError("L1 square condition fails")
    if k3.square(l2) != 2 * b * b * m - 2:
        raise LatticeError("L2 square condition fails")
    if k3.pair(l1, l2) != 1 + 2 * a * b * m:
        raise LatticeError("L1.L2 condition fails")


def sym3_triple(m: int, v1: MukaiVector, v2: MukaiVector) -> dict:
    """Verify the Sym3 relations for v1 = (a, -L1, am), v2 = (b, -L2, bm)
    satisfying the pair conditions: v0 = v1 + v2 is a -2 vector and
    tau_{v0} = tau_{v1} tau_{v2} tau_{v1} = tau_{v2} tau_{v1} tau_{v2},
    with <tau_{v1}, tau_{v2}> of order 6."""
    mukai = mukai_lattice()
    a, b = v1.r, v2.r
    if v1.s != a * m or v2.s != b * m:
        raise LatticeError("v1, v2 must have the shape (a, -L, am)")
    # with that shape, the pair conditions give (v1, v2) = L1.L2 - 2abm = 1
    _check_pair_conditions(m, linalg.vec_neg(v1.c), linalg.vec_neg(v2.c),
                           a, b)
    v0 = v1 + v2
    checks = {}
    checks["v0_is_minus2"] = mukai_pairing(v0, v0) == -2
    t0 = reflection(mukai, v0.coords())
    t1 = reflection(mukai, v1.coords())
    t2 = reflection(mukai, v2.coords())
    t12, t21 = t1 @ t2, t2 @ t1
    t121, t12_sq = t12 @ t1, t12 @ t12
    checks["tau0_eq_121"] = t121.matrix == t0.matrix
    checks["tau0_eq_212"] = (t21 @ t2).matrix == t0.matrix
    # group closure: {1, t1, t2, t1t2, t2t1, t1t2t1} with (t1 t2)^3 = 1
    checks["order_six"] = (
        (t12_sq @ t12).is_identity()
        and not t12.is_identity()
        and not t12_sq.is_identity()
    )
    elements = {
        Isometry.identity(mukai).matrix, t1.matrix, t2.matrix,
        t12.matrix, t21.matrix, t121.matrix,
    }
    checks["six_elements"] = len(elements) == 6
    checks["all"] = all(checks.values())
    return checks


# -- generator families and factorization -------------------------------------


class Gamma0Letter(namedtuple("Gamma0Letter", "isometry")):
    """An isometry of the K3 lattice, extended by the identity on h0, h4.

    It holds an `Isometry`, so its form was verified where the matrix
    entered (`Isometry(k3, m)` in `jsonio.word_from_json`) or the library
    built it as one (a K3 reflection, or `factor`'s residual).  Anything
    else raises LatticeError here."""

    __slots__ = ()

    def __new__(cls, isometry: Isometry):
        if not isinstance(isometry, Isometry) or \
                isometry.lattice.gram != k3_lattice().gram:
            raise LatticeError("a gamma0 letter needs an isometry of the K3 "
                               "lattice")
        return tuple.__new__(cls, (isometry,))

    _make = classmethod(_make_checked)

    @property
    def k3_matrix(self) -> linalg.Mat:
        return self.isometry.matrix

    def to_isometry(self, model: VPerpModel) -> Isometry:
        return model.extend_k3(self.isometry)


class TauLetter(namedtuple("TauLetter", "v0")):
    """The reflection in the -2 vector v0 of v-perp, a MukaiVector."""

    __slots__ = ()

    def to_isometry(self, model: VPerpModel) -> Isometry:
        return reflection(model.mukai, self.v0.coords())


Letter = Gamma0Letter | TauLetter


class GeneratorWord(namedtuple("GeneratorWord", "model letters")):
    """A word in the Gamma_v generators on a VPerpModel; the product of the
    tuple of letters (in order) is the isometry the word factors.  Each
    letter is an isometry: a gamma0 letter holds a K3 `Isometry`, and a tau
    letter's `reflection` takes only a +-2 class.  `jsonio.word_from_json`
    also checks that a tau class it reads is a -2 vector of v-perp."""

    __slots__ = ()

    def product(self) -> Isometry:
        # folded from the right, starting at the last letter, so that each
        # other letter is the left operand of its product and a tau
        # reflection composes in O(n^2)
        if not self.letters:
            return Isometry.identity(self.model.mukai)
        out = self.letters[-1].to_isometry(self.model)
        for letter in reversed(self.letters[:-1]):
            out = letter.to_isometry(self.model) @ out
        return out

    def tau_ranks(self):
        return tuple(l.v0.r for l in self.letters
                     if isinstance(l, TauLetter))


def _canonical_tau_class(model: VPerpModel) -> tuple:
    """L = e + (m-1) f in the first hyperbolic block: primitive, square 2m-2."""
    k3 = model.k3
    return k3.plane_vector(k3.blocks_named("U")[0], 1, model.m - 1)


TAU_TWISTS = 2  # the most reflections a sampled tau class goes through


class GeneratorFamily:
    """Samplers for the two generator families of Gamma_v:

    (i) reflections rho_u in +-2 vectors u of the K3 block, extended by the
        identity (these generate the isometries fixing both v and w), and
    (ii) reflections tau in -2 vectors (1, -L, m), L primitive of square
        2m - 2 (canonical witness L = e + (m-1) f).
    """

    def __init__(self, model: VPerpModel):
        self.model = model
        self.k3 = model.k3

    def sample_pm2_vector(self, rng: random.Random) -> tuple:
        """A random +-2 vector in the K3 lattice (structured pool)."""
        k3 = self.k3
        n = k3.rank
        u_blocks = k3.blocks_named("U")
        e8_blocks = k3.blocks_named("E8_minus")
        kind = rng.randrange(4)
        v = [0] * n
        if kind == 0:  # in-plane root: e - f (-2) or e + f (+2)
            b = rng.choice(u_blocks)
            v[b.start] = 1
            v[b.start + 1] = rng.choice((1, -1))
        elif kind == 1:  # E8 basis root (-2)
            b = rng.choice(e8_blocks)
            v[b.start + rng.randrange(8)] = rng.choice((1, -1))
        elif kind == 2:  # cross-plane: e1 + k f1 + e2 + l f2 with k + l = +-1
            b1, b2 = rng.sample(list(u_blocks), 2)
            k = rng.randint(-3, 3)
            target = rng.choice((1, -1))
            v[b1.start] = 1
            v[b1.start + 1] = k
            v[b2.start] = 1
            v[b2.start + 1] = target - k
        else:  # E8 root plus isotropic or hyperbolic correction
            b = rng.choice(e8_blocks)
            ub = rng.choice(u_blocks)
            v[b.start + rng.randrange(8)] = rng.choice((1, -1))
            k = rng.choice((0, 2))  # square -2 + 2k in {-2, +2}
            v[ub.start] = 1
            v[ub.start + 1] = k
        # the blocks are orthogonal, so the square of each kind is
        # 2 (+-1), -2 (an E8(-1) root), 2 k + 2 (target - k) = 2 target,
        # and -2 + 2 k: +-2 every time
        return tuple(v)

    def gamma0_letter(self, rng: random.Random) -> Gamma0Letter:
        # true reflections: tau_u for -2 (cov 0), sigma_u for +2 (cov 1);
        # together they realize both nontrivial character pairs (-1, 0/1)
        u = self.sample_pm2_vector(rng)
        return Gamma0Letter(general_reflection(self.k3, u))

    def tau_letter(self, rng: random.Random) -> TauLetter:
        """tau_{(1, -L, m)} with L a random Gamma_0-image of the canonical
        class; keeps L primitive with square 2m - 2."""
        cls = _canonical_tau_class(self.model)
        for _ in range(rng.randrange(TAU_TWISTS + 1)):
            u = self.sample_pm2_vector(rng)
            # rho_u(cls) = s cls + (G u . cls) u: one pairing, no matrix
            s, gu = _rho(self.k3, u)
            p = sum(map(mul, gu, cls))
            cls = tuple(s * x + p * y for x, y in zip(cls, u))
        # reflections keep L^2 = 2m - 2, so (1, -L, m) has square
        # L^2 - 2m = -2 and pairs to m - m = 0 with v = (1, 0, -m)
        return TauLetter(MukaiVector(1, linalg.vec_neg(cls), self.model.m))

    def letter(self, rng: random.Random) -> Letter:
        return self.gamma0_letter(rng) if rng.random() < 0.5 \
            else self.tau_letter(rng)

    def sample_word(self, rng: random.Random, length: int) -> GeneratorWord:
        if length < 0:
            raise LatticeError(
                f"the word length must be non-negative, got {length}")
        letters = tuple(self.letter(rng) for _ in range(length))
        return GeneratorWord(self.model, letters)


def generator_family(m: int) -> GeneratorFamily:
    return GeneratorFamily(vperp_model(m))


def _reduction_class(model: VPerpModel, x: MukaiVector) -> MukaiVector:
    """The -2 class u of v-perp whose reflection takes x one step toward w
    in `factor`; NotInGammaV when x shows that g is not in Gamma_v.

    Write x = (r, 2m c l, rm), l primitive, rho = (r - 1)/2m; as (x, x) =
    -2m, c = 0 only at x = +-w.  The content reflection adds 2m u, making
    the class part 2m (c l + A); the rho one adds -2m (rho + 1) u, making it
    2m (l - (rho + 1) A) and rho = -1.  {l, A} is saturated, so either
    leaves c = 1 and x != +-w, and then the final reflection sends x to w.
    x = -w (m = 1) reflects to (1, 2e, 1), where c = 1 and rho = 0."""
    m = model.m
    two_m = 2 * m
    if x == -model.w:
        # forces m = 1: an integer g with g(v) = v has g(h4) = (g(w) -
        # v)/2m integral, so g(w) = -w makes -h0/m integral; each
        # residual is g composed with reflections in v-perp classes, so
        # the same holds for it.  Reflect in (1, L, 1) with L primitive
        # isotropic: the canonical class e + (m - 1) f is e at m = 1
        return MukaiVector(1, _canonical_tau_class(model), 1)
    r = x.r
    if x.s != r * m or (r - 1) % two_m or any(ci % two_m for ci in x.c):
        raise NotInGammaV("not in the kernel of the disc action")
    rho = (r - 1) // two_m
    c2m = tuple(ci // two_m for ci in x.c)
    c, l = primitive_part(c2m)
    l_sq = model.k3.square(l)
    if c * c * l_sq != 2 * rho + 2 * m * rho * rho:
        raise NotInGammaV("g(w) does not have the square of w")
    # Each class u below is a -2 vector: embed_rank2 verified A^2, so
    # (a, A, am)^2 = A^2 - 2 a^2 m = -2, and the final class (-1, L, -m)
    # has L^2 = 2m - 2 by the square check with c = 1, rho = -1.
    if c != 1:
        # drive the content of the class part to 1: pick bc - ar = 1 with
        # minimal |a| and reflect in u = (a, A, am), A.L = b.  The square
        # check gives r^2 = 1 + 2m c^2 L^2 = 1 mod c, so r is a unit mod c,
        # and a = -r^-1 mod c is nonzero as c >= 2
        _, r_inv, _ = linalg.xgcd(r % c, c)
        a = (-r_inv) % c
        if a > c - a:
            a -= c
        b = (1 + a * r) // c
        a_vec = embed_rank2(model.k3, l, (l_sq, b, 2 * a * a * m - 2))
        return MukaiVector(a, a_vec, a * m)
    if rho == -1:
        # (x, v0) = -2m, so tau_{v0}(x) = x - 2m v0 = w
        return MukaiVector(-1, c2m, -m)
    # c = 1, rho != -1: drive rho to -1 with u = (1, A, m), A.L = 2m rho -
    # rho, A^2 = 2m - 2
    a_vec = embed_rank2(model.k3, l, (l_sq, two_m * rho - rho, two_m - 2))
    return MukaiVector(1, a_vec, m)


def factor(model: VPerpModel, g: Isometry, normalize: bool = False
           ) -> GeneratorWord:
    """Factor g in Gamma_v into Gamma_0 and tau letters.

    Follows the reduction of the generation results for Gamma_v: track
    x = g(w); a first reflection makes the class part of x equal to 2m L
    with L primitive (c = 1), a second drives the invariant rho = (r-1)/2m
    to -1, and a third sends x back to w, leaving an isometry that fixes
    both v and w, i.e. a Gamma_0 letter.  Each reflection moves x by
    tau_u(x) = x + (x, u) u, one pairing; the residual tau_N ... tau_1 g is
    composed once, after the loop.  With normalize=True, every tau
    letter of rank a with |a| >= 2 is rewritten into rank-one letters
    through the Sym3 relations, 2|a| - 1 of them when its class part is
    primitive.  The witnesses come from `embed_rank2` on K3 with a
    primitive first class: it never enumerates there.

    The returned word multiplies to g; factor proves this rather than
    multiplying the word back:
    - each tau letter is the `reflection` in a class of square +-2, which
      `reflection` checks, so it is an involution;
    - the residual tau_N ... tau_1 g is checked to fix v and w, so it fixes
      h0 = (v + w)/2 and h4 = (w - v)/2m and maps K3 = {h0, h4}-perp onto
      itself: it is `extend_k3` of its K3 block, the Gamma_0 letter;
    - so the word tau_1 ... tau_N residual multiplies to
      tau_1 ... tau_N tau_N ... tau_1 g = g;
    - `normalize_word` rewrites tau_{v0} as tau_{v1} tau_{v2} tau_{v1}, a
      conjugate of tau_{v2}: it peels off v1 = (1, -L1, m) with (v0, v1) =
      -1, from pairings that `embed_rank2` verifies (see
      `pair_witness_peel`), so v2 = v0 - v1 has v2^2 = -2 + 2 - 2 = -2 and
      tau_{v1}(v2) = v2 + (v2, v1) v1 = v0; a rank-0 letter is the K3
      reflection extended by the identity, and a class with an imprimitive
      class part is factored again, under the same proof.
    The residual check is the one fact the proof reads from the run, so it
    stays: a failure is a library bug (`InvariantError`).
    """
    if g.lattice.gram != model.mukai.gram:
        raise NotInGammaV("expected an isometry of the Mukai lattice")
    v, w = model.v.coords(), model.w
    if not g.fixes(v):
        raise NotInGammaV("isometry does not fix v")

    # x = tau_N ... tau_1 g(w); each pass reflects once or stops at x = w,
    # and three reflections suffice, so four passes do (`_reduction_class`)
    taus: list[MukaiVector] = []
    x = MukaiVector.from_coords(g.apply(w.coords()))
    for _ in range(4):
        if x == w:
            break
        u = _reduction_class(model, x)
        taus.append(u)
        x = MukaiVector.from_coords(linalg.vec_add(
            x.coords(), linalg.vec_scale(mukai_pairing(x, u), u.coords())))

    # the residual tau_N ... tau_1 g, each tau composed through its outer
    # form; the check reads it, not x, and also catches a loop that ran out
    # before x = w
    residual = g
    for u in taus:
        residual = reflection(model.mukai, u.coords()) @ residual
    _ensure(residual.fixes(w.coords()) and residual.fixes(v),
            "the Gamma_0 residual does not fix v and w")
    k = model.k3.rank
    h = linalg.freeze(tuple(residual.matrix[i][:k] for i in range(k)))
    letters: list[Letter] = [TauLetter(v0) for v0 in taus]
    if h != linalg.identity(k):
        # the residual fixes v and w, so it preserves their complement K3
        letters.append(Gamma0Letter(Isometry._trusted(model.k3, h)))

    word = GeneratorWord(model, tuple(letters))
    if normalize:
        word = normalize_word(word)
    return word


def normalize_word(word: GeneratorWord) -> GeneratorWord:
    """Rewrite every tau letter into the form (1, -L, m), L primitive, by
    the Sym3 relations; rank-0 letters become Gamma_0 letters.  Its
    witnesses, like factor's, never enumerate or raise WitnessNotFound."""
    model = word.model
    out: list[Letter] = []
    for letter in word.letters:
        if isinstance(letter, Gamma0Letter):
            out.append(letter)
        else:
            out.extend(_normalize_tau(model, letter.v0))
    return GeneratorWord(model, tuple(out))


def _normalize_tau(model: VPerpModel, v0: MukaiVector) -> list[Letter]:
    m = model.m
    if v0.r < 0:
        v0 = -v0  # tau_{v0} = tau_{-v0}
    if v0.r == 0:
        # (0, A, 0) with A^2 = -2: a K3 reflection extended by the identity
        return [Gamma0Letter(reflection(model.k3, v0.c))]
    if not is_primitive(model.k3, v0.c):
        # refactor the reflection; factor's own classes all have primitive
        # class parts
        inner = factor(model, reflection(model.mukai, v0.coords()))
        return list(normalize_word(inner).letters)
    # peel a rank-one v1 off v0 until rank one is left: (v1, v0 - v1) = 1,
    # so tau_{v0} = tau_{v1} tau_{v0 - v1} tau_{v1}
    sides = []
    while v0.r > 1:
        r = v0.r
        l1, l2 = pair_witness_peel(m, linalg.vec_neg(v0.c), r)
        sides.append(TauLetter(MukaiVector(1, linalg.vec_neg(l1), m)))
        v0 = MukaiVector(r - 1, linalg.vec_neg(l2), (r - 1) * m)
    return sides + [TauLetter(v0)] + sides[::-1]


# -- the discriminant isometry count ------------------------------------------


def _prime_powers(m: int) -> dict[int, int]:
    """{p: e} with m = prod p^e, for m >= 1, by trial division up to sqrt m."""
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _square_roots_of_one(factors: dict[int, int]) -> list[int]:
    """The u in [1, 2m) with u^2 = 1 mod 4m, sorted, given m's factorization
    {p: e}.  A root mod 4m is one root mod each prime power of 4m, glued by
    CRT: +-1 mod an odd p^e, 1 and 3 mod 4, +-1 and 2^(e-1) +- 1 mod 2^e
    for e >= 3.  u^2 mod 4m depends only on u mod 2m, so the roots mod 4m
    are read mod 2m; each one is checked."""
    factors = dict(factors)
    factors[2] = factors.get(2, 0) + 2  # 4m
    roots, modulus = [0], 1
    for p, e in factors.items():
        q = p ** e
        if p != 2:
            local = (1, q - 1)
        elif e == 2:
            local = (1, 3)
        else:
            local = (1, q // 2 - 1, q // 2 + 1, q - 1)
        # r = r0 mod modulus and r = s mod q
        inv = pow(modulus, -1, q)
        roots = [r0 + modulus * ((s - r0) * inv % q)
                 for r0 in roots for s in local]
        modulus *= q
    two_m = modulus // 2
    roots = sorted({r % two_m for r in roots})
    _ensure(all((u * u - 1) % modulus == 0 for u in roots),
            "a CRT root is not a square root of 1 mod 4m")
    return roots


def disc_group_order(m: int) -> dict:
    """|O(disc)| = #{u in (Z/2m)^x : u^2 = 1 mod 4m}, counted from the roots
    built by CRT (`_square_roots_of_one`) from one trial-division
    factorization of m, in O(sqrt m) steps.

    The count equals 2^rho with rho the number of distinct primes of m, and
    it is the index of Gamma_v in O(v-perp)."""
    if m < 1:
        raise LatticeError("m must be a positive integer")
    factors = _prime_powers(m)
    order = len(_square_roots_of_one(factors))
    rho = len(factors)
    _ensure(order == 2 ** rho, f"|O(disc)| = {order} is not 2^{rho}")
    return {"order": order, "rho": rho, "index_O_vperp_over_GammaV": order}


def disc_lift(model: VPerpModel, u: int) -> Isometry:
    """An isometry of v-perp acting on the discriminant Z/2m as u, for any u
    with u^2 = 1 mod 4m, so O(v-perp) -> O(disc) is onto.

    Take u mod 2m, k = (u^2 - 1)/4m and e, f the first U block.  Then
    w' = u w + 2m(e + k f) has square -2m, and its complement in U + <w> has
    basis x1 = e - k f, x2 = u f + w with Gram [[-2k, u], [u, -2m]] of
    determinant -1, a copy of U.  In it e' = (u + 1, 2k)/gcd is isotropic,
    and a y with (e', y) = 1 from one xgcd gives f' = y - (y, y)/2 e'.  The
    lift sends e, f, w to e', f', w' and fixes every other basis vector."""
    two_m = 2 * model.m
    if (u * u - 1) % (2 * two_m):
        raise LatticeError(f"u = {u} is not a square root of 1 mod {2 * two_m}")
    u %= two_m
    k = (u * u - 1) // (2 * two_m)
    g = gcd(u + 1, 2 * k)
    a, b = (u + 1) // g, 2 * k // g  # e' = a x1 + b x2
    # y = p x1 + q x2 with (e', y) = 1, as the covector of the primitive e'
    # in a unimodular plane is primitive
    _, p, q = linalg.xgcd(-2 * k * a + u * b, u * a - two_m * b)
    half_yy = -k * p * p + u * p * q - model.m * q * q
    p, q = p - half_yy * a, q - half_yy * b  # f' = p x1 + q x2
    n = model.lattice.rank
    e = model.k3.blocks_named("U")[0].start
    f, w = e + 1, n - 1

    def image(ce, cf, cw):
        col = [0] * n
        col[e], col[f], col[w] = ce, cf, cw
        return col

    cols = [list(col) for col in linalg.identity(n)]
    # x1 and x2 are e - k f and u f + w
    cols[e] = image(a, u * b - k * a, b)
    cols[f] = image(p, u * q - k * p, q)
    cols[w] = image(two_m, two_m * k, u)
    # e', f', w' have the Gram of e, f, w and lie in U + <w>, orthogonal to
    # every fixed basis vector, so the map preserves the form
    return Isometry._trusted(model.lattice, linalg.transpose(cols))


def nontrivial_disc_isometry(model: VPerpModel) -> Isometry | None:
    """The lift of the least u in (1, 2m - 1) with u^2 = 1 mod 4m, an
    isometry of v-perp whose disc action is not +-1; None when there is no
    such u, which is exactly when m is a prime power."""
    m = model.m
    u = next((u for u in _square_roots_of_one(_prime_powers(m))
              if 1 < u < 2 * m - 1), None)
    return None if u is None else disc_lift(model, u)
