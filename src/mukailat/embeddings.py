"""Constructive rank-2 primitive embeddings.

Given a primitive lambda_1 with (lambda_1, lambda_1) = 2a and a target Gram
[[2a, b], [b, 2d]], produce lambda_2 such that {lambda_1, lambda_2} spans a
primitive (saturated) rank-2 sublattice with that Gram.  Existence is the
Nikulin statement; this module is the constructive side:

1. If some hyperbolic block U_j is disjoint from the support of lambda_1,
   take lambda_2 = b*mu + e_j + (d - b^2 (mu,mu)/2) f_j where (lambda_1, mu)
   = 1; the span is automatically saturated.
2. Otherwise clear a hyperbolic block from lambda_1 by an explicit isometry
   (Euclidean reduction through Eichler transvections and +-2 reflections,
   every step verified), solve there, and pull the witness back.
3. As a last resort, bounded enumeration on small-rank supports.

Failure raises WitnessNotFound with the radius echoed; it never claims
non-existence.
"""

from __future__ import annotations

from . import linalg
from .characters import reflection
from .lattices import Isometry, Lattice, LatticeError, primitive_part, pull_back

DEFAULT_RADIUS = 64


class WitnessNotFound(RuntimeError):
    def __init__(self, radius: int, message: str = ""):
        self.radius = radius
        super().__init__(
            message or f"no witness found within radius {radius}; "
            "the bound may be too small (existence is not refuted)"
        )


def eichler_transvection(lattice: Lattice, e, a) -> Isometry:
    """t(e,a): x -> x - (a,x) e + (e,x) a - (a,a)/2 (e,x) e,
    for e isotropic and a orthogonal to e; an integral isometry on an even
    lattice."""
    e = tuple(e)
    a = tuple(a)
    if lattice.square(e) != 0:
        raise LatticeError("transvection needs an isotropic vector")
    if lattice.pair(e, a) != 0:
        raise LatticeError("transvection needs a orthogonal to e")
    asq = lattice.square(a)
    if asq % 2:
        raise LatticeError("transvection needs an even square")
    half = asq // 2
    ge = lattice.covector(e)
    ga = lattice.covector(a)
    e_coef = tuple(-x - half * y for x, y in zip(ga, ge))
    # the Eichler transvection preserves the form for e isotropic and a
    # orthogonal to e, as checked above
    return Isometry._trusted(lattice, outer=(1, ((e, e_coef), (a, ge))))


def _support_blocks(lattice: Lattice, v):
    return [b for b in lattice.blocks
            if any(v[b.start + i] for i in range(b.size))]


def _free_u_block(lattice: Lattice, v):
    for b in lattice.blocks_named("U"):
        if v[b.start] == 0 and v[b.start + 1] == 0:
            return b
    return None


def _free_plane_witness(lattice: Lattice, lam1, b, d, block):
    """lambda_2 = b*mu + e + y*f in a hyperbolic block free of lambda_1."""
    g, mu = linalg.xgcd_vector(lattice.covector(lam1))
    if g != 1:
        return None
    b2_musq = b * b * lattice.square(mu)
    if b2_musq % 2:
        return None
    y = d - b2_musq // 2
    lam2 = list(linalg.vec_scale(b, mu))
    lam2[block.start] += 1
    lam2[block.start + 1] += y
    return tuple(lam2)


def verify_embedding(lattice: Lattice, lam1, lam2, two_a, b, two_d) -> bool:
    if lattice.square(lam1) != two_a or lattice.square(lam2) != two_d:
        return False
    if lattice.pair(lam1, lam2) != b:
        return False
    return linalg.is_saturated_pair(lam1, lam2)


# -- clearing a hyperbolic block ---------------------------------------------
#
# State: v with coordinates split over blocks.  Writing v = alpha e + beta f
# + u on a hyperbolic block (e, f), the transvections act by
#   t(e, a): u -> u + beta a   (alpha adjusts, beta fixed)
#   t(f, a): u -> u + alpha a  (beta adjusts, alpha fixed)
# for any a without support on that block.  Choosing a = -floordiv(u, c)
# reduces every coordinate outside the pivot block modulo the pivot
# coefficient c in one step, so the minimum |coefficient| on the hyperbolic
# slots shrinks like a gcd computation.  Reflections in roots of the shape
# rho + e_l (rho an E8(-1) root) let definite-block coordinates act back on
# the hyperbolic slots when the plain reduction stalls.


class _Clearer:
    def __init__(self, lattice: Lattice, v):
        self.lattice = lattice
        self.v = tuple(v)
        self.steps: list[Isometry] = []

    def push(self, iso: Isometry, image=None):
        self.v = iso.apply(self.v) if image is None else image
        self.steps.append(iso)

    def u_slots(self):
        out = []
        for b in self.lattice.blocks_named("U"):
            out.append((b, self.v[b.start], self.v[b.start + 1]))
        return out

    def done(self):
        return _free_u_block(self.lattice, self.v) is not None

    def batch_reduce(self, block, use_alpha: bool) -> bool:
        """One transvection reducing all coordinates outside `block` modulo
        the chosen pivot coefficient.  Returns True if it changed v."""
        lat = self.lattice
        n = lat.rank
        alpha = self.v[block.start]
        beta = self.v[block.start + 1]
        c = alpha if use_alpha else beta
        if c == 0:
            return False
        a = [0] * n
        nontrivial = False
        for i in range(n):
            if block.start <= i < block.start + block.size:
                continue
            q = _round_div(self.v[i], c)
            if q:
                a[i] = -q
                nontrivial = True
        if not nontrivial:
            return False
        e = lat.plane_vector(block, 0, 1) if use_alpha \
            else lat.plane_vector(block, 1, 0)
        # t(f, a) shifts u by alpha*a; t(e, a) shifts u by beta*a
        iso = eichler_transvection(lat, e, tuple(a))
        self.push(iso)
        return True

    def inblock_reduce(self, block, helper_block) -> bool:
        """Euclid between alpha and beta of one block, using a transvection
        with momentum parked on a helper block."""
        lat = self.lattice
        alpha = self.v[block.start]
        beta = self.v[block.start + 1]
        if alpha == 0 or beta == 0:
            return False
        # reduce the larger modulo the smaller
        if abs(alpha) >= abs(beta):
            # t(e, a) adjusts alpha by -(a,u) - (a^2/2) beta
            k = _round_div(alpha, beta)
            if k == 0:
                return False
            # a = e_l + k f_l has a^2/2 = k, so alpha shifts by about -k beta
            a = lat.plane_vector(helper_block, 1, k)
            # (a, u) = coeff pairing: (e_l + k f_l, u) = u_f + k u_e
            iso = eichler_transvection(lat, lat.plane_vector(block, 1, 0), a)
        else:
            k = _round_div(beta, alpha)
            if k == 0:
                return False
            a = lat.plane_vector(helper_block, 1, k)
            iso = eichler_transvection(lat, lat.plane_vector(block, 0, 1), a)
        image = iso.apply(self.v)
        if _measure(lat, image) < _measure(lat, self.v):
            self.push(iso, image)
            return True
        return False

    def definite_pump(self) -> bool:
        """Reflections in roots rho + e_l / rho + f_l (rho a -2 root of a
        definite block) to mix definite-block coordinates into hyperbolic
        slots; accept the best strict improvement."""
        lat = self.lattice
        n = lat.rank
        best = None
        for b in lat.blocks:
            if b.name == "U":
                continue
            for i in range(b.size):
                if lat.gram[b.start + i][b.start + i] != -2:
                    continue
                for ublock in lat.blocks_named("U"):
                    for slot in (ublock.start, ublock.start + 1):
                        for sign in (1, -1):
                            root = [0] * n
                            root[b.start + i] = sign
                            root[slot] = 1
                            root = tuple(root)
                            if lat.square(root) != -2:
                                continue
                            pairing = lat.pair(root, self.v)
                            img = tuple(
                                x + pairing * root[j]
                                for j, x in enumerate(self.v)
                            )
                            m = _measure(lat, img)
                            if best is None or m < best[0]:
                                best = (m, root)
        if best is None or best[0] >= _measure(lat, self.v):
            return False
        self.push(reflection(lat, best[1]))
        return True

    def run(self, budget: int):
        lat = self.lattice
        ublocks = lat.blocks_named("U")
        if not ublocks:
            return None
        for _ in range(budget):
            if self.done():
                return tuple(self.steps), self.v
            # pivot: smallest nonzero hyperbolic coefficient
            pivots = []
            for b, alpha, beta in self.u_slots():
                if alpha:
                    pivots.append((abs(alpha), b, True))
                if beta:
                    pivots.append((abs(beta), b, False))
            pivots.sort(key=lambda p: (p[0], p[1].start, p[2]))
            progressed = False
            for _, block, use_alpha in pivots:
                if self.batch_reduce(block, use_alpha):
                    progressed = True
                    break
            if progressed:
                continue
            for _, block, _ in pivots:
                helper = next(u for u in ublocks if u is not block)
                if self.inblock_reduce(block, helper):
                    progressed = True
                    break
            if progressed:
                continue
            if self.definite_pump():
                continue
            return None
        return None


def _round_div(x: int, c: int) -> int:
    """Nearest-integer division (ties toward zero); |x - c*q| <= |c|/2."""
    if c == 0:
        return 0
    q, r = divmod(x, c)
    if 2 * abs(r) > abs(c):
        q += 1
    return q


def _measure(lattice: Lattice, v) -> tuple:
    per_block = []
    for b in lattice.blocks_named("U"):
        per_block.append(abs(v[b.start]) + abs(v[b.start + 1]))
    return (min(per_block) if per_block else 0, sum(abs(x) for x in v))


def clearing_isometry(lattice: Lattice, v):
    """(steps, image): isometries (g_1, ..., g_k), each a transvection or
    reflection kept in outer form, with image = g_k(... g_1(v)) missing some
    hyperbolic block (`lattices.pull_back` inverts the steps on a vector);
    or None if the reduction stalls within its budget.  Each step is a
    Euclid-like reduction, so the budget grows with the bit length of the
    largest entry of v: a quarter of it, and at least 400 steps."""
    if len(lattice.blocks_named("U")) < 2:
        return None
    budget = max(400, max(abs(x) for x in v).bit_length() // 4)
    return _Clearer(lattice, v).run(budget)


# -- bounded enumeration fallback --------------------------------------------


def _enumerate_witness(lattice: Lattice, lam1, two_a, b, two_d, radius: int):
    indices = []
    for blk in _support_blocks(lattice, lam1):
        indices.extend(range(blk.start, blk.start + blk.size))
    for blk in lattice.blocks:
        fresh = [i for i in range(blk.start, blk.start + blk.size)
                 if i not in indices]
        if fresh and len(indices) < 6:
            indices.extend(fresh)
    if len(indices) > 6:
        return None
    indices = indices[:6]
    n = lattice.rank
    gl1 = lattice.covector(lam1)
    for bound in range(1, min(radius, 8) + 1):
        def rec(pos, partial):
            if pos == len(indices):
                cand = tuple(partial)
                if sum(gl1[i] * cand[i] for i in indices) != b:
                    return None
                if lattice.square(cand) != two_d:
                    return None
                if verify_embedding(lattice, lam1, cand, two_a, b, two_d):
                    return cand
                return None
            i = indices[pos]
            for val in range(-bound, bound + 1):
                partial[i] = val
                hit = rec(pos + 1, partial)
                if hit is not None:
                    return hit
            partial[i] = 0
            return None

        hit = rec(0, [0] * n)
        if hit is not None:
            return hit
    return None


def embed_rank2(lattice: Lattice, lam1, target, radius: int = DEFAULT_RADIUS):
    """lambda_2 with (lam1, lam2) = b, (lam2, lam2) = 2d and span{lam1, lam2}
    primitive; target = (2a, b, 2d) = the Gram entries of the rank-2 form."""
    if radius < 0:
        raise LatticeError(
            f"the search radius must be non-negative, got {radius}")
    lam1 = tuple(lam1)
    two_a, b, two_d = target
    c, _ = primitive_part(lam1)
    if c != 1:
        raise LatticeError("lambda_1 must be primitive")
    if lattice.square(lam1) != two_a:
        raise LatticeError(
            f"(lambda_1, lambda_1) = {lattice.square(lam1)} != {two_a}"
        )
    if two_d % 2:
        raise LatticeError("target square 2d must be even")
    d = two_d // 2

    free = _free_u_block(lattice, lam1)
    if free is not None:
        lam2 = _free_plane_witness(lattice, lam1, b, d, free)
        if lam2 is not None and verify_embedding(
            lattice, lam1, lam2, two_a, b, two_d
        ):
            return lam2

    cleared = clearing_isometry(lattice, lam1)
    if cleared is not None:
        steps, image = cleared
        free = _free_u_block(lattice, image)
        lam2_img = _free_plane_witness(lattice, image, b, d, free)
        if lam2_img is not None:
            lam2 = pull_back(lattice, steps, lam2_img)
            if verify_embedding(lattice, lam1, lam2, two_a, b, two_d):
                return lam2

    lam2 = _enumerate_witness(lattice, lam1, two_a, b, two_d, radius)
    if lam2 is not None:
        return lam2
    raise WitnessNotFound(radius)
