"""Constructive rank-2 primitive embeddings.

Given a primitive lambda_1 with (lambda_1, lambda_1) = 2a and a target Gram
[[2a, b], [b, 2d]], produce lambda_2 such that {lambda_1, lambda_2} spans a
primitive (saturated) rank-2 sublattice with that Gram.  Existence is the
Nikulin statement; this module is the constructive side:

1. Clear a hyperbolic block U_j from the support of lambda_1 by a
   Euclidean walk of Eichler transvections t(e, a), at most one per bit of
   its largest entry (on an odd lattice the walk may stop); when a block
   is already free the walk has no steps.
2. With lambda_1' the walk's image, take lambda_2' = b*mu + e_j +
   (d - b^2 (mu,mu)/2) f_j where (lambda_1', mu) = 1, whose span with
   lambda_1' is automatically saturated, and pull it back through the
   inverse steps t(e, -a), with no Gram inverse.
3. As a last resort, bounded enumeration: every candidate with entries up
   to min(radius, 8) on at most 6 coordinates, those of the blocks
   lambda_1 touches plus each fresh block that still fits, in
   lexicographic order; if none verifies, the same again with the first
   fresh block that did not fit filling the coordinates up to 6.

Failure raises WitnessNotFound with the radius echoed; it never claims
non-existence.  On an even unimodular lattice with two or more U blocks
(K3, Mukai) steps 1 and 2 always return, so step 3 is never reached: the
covector of a primitive vector of a unimodular lattice is primitive, so mu
exists, and b^2 (mu, mu) is even.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from . import linalg
from .lattices import Isometry, Lattice, LatticeError, primitive_part

DEFAULT_RADIUS = 64


class WitnessNotFound(RuntimeError):
    def __init__(self, radius: int):
        self.radius = radius
        super().__init__(
            f"no witness found within radius {radius}; "
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


def clearing_isometry(lattice: Lattice, v):
    """(steps, image): Eichler transvections t(e_j, -q), each recorded as
    the integers (p, j, q, h), with image = t_k(... t_1(v)) missing some
    hyperbolic block and k at most the bit length of the largest |v_i|
    (`_walk_back` inverts the steps on a vector); None when the lattice has
    fewer than two U blocks, or at a step whose q has an odd square, which
    an odd lattice allows.  e_j is the partner of the pivot p in its U
    block, so G e_j = e_p; q_p = q_j = 0 and h = (q, q)/2."""
    ublocks = lattice.blocks_named("U")
    if len(ublocks) < 2:
        return None
    # (pivot, partner) index pairs of the hyperbolic slots, in the order
    # that breaks ties between pivots: lowest block first, and within a
    # block the f coefficient before the e one
    slots = [(i, j) for b in ublocks
             for i, j in ((b.start + 1, b.start), (b.start, b.start + 1))]
    # (a, a) = sum_i a_i^2 G_ii + 2 sum_{i<j} a_i a_j G_ij = sum_i a_i G_ii
    # mod 2, so it is odd iff the a_i with an odd G_ii have an odd sum
    odd = [i for i, row in enumerate(lattice.gram) if row[i] % 2]
    v = tuple(v)
    steps = []
    # Write v = x e + y f + u on a U block (e, f), u off the block.  For a
    # off the block, t(e, a) sends u to u + y a and t(f, a) sends it to
    # u + x a.  So with pivot c = y (resp. x) and a = -q, q = round(u / c),
    # one transvection takes each u_i to u_i - c q_i, at most |c|/2; the
    # pivot keeps c and the partner gains (q, v) - h c.  t(e_j, -q) is an
    # isometry as it stands: e_j is isotropic, (e_j, q) = q_p = 0, and
    # (q, q) is even by the parity test.
    # Each step takes c the smallest nonzero hyperbolic coefficient.  While
    # no U block is free, every other U block has a nonzero coefficient, of
    # size at least |c|, so q != 0 and the step changes v.  After it, each
    # other U block is free or has a nonzero coefficient of size at most
    # |c|/2.  So each pivot is at most half the last, the first is at most
    # max |v_i|, and the walk ends within bitlength(max |v_i|) steps; the
    # loop's one further pass sees the free block.
    for _ in range(max(abs(x) for x in v).bit_length() + 1):
        if _free_u_block(lattice, v) is not None:
            return tuple(steps), v
        pivot, partner = min(((i, j) for i, j in slots if v[i]),
                             key=lambda s: abs(v[s[0]]))
        c = v[pivot]
        q = [-((c - 2 * x) // (2 * c)) for x in v]  # ties rounded down
        q[pivot] = q[partner] = 0
        if sum(q[i] for i in odd) % 2:
            return None
        q = tuple(q)
        h = lattice.square(q) // 2
        image = [x - c * y for x, y in zip(v, q)]
        image[partner] += lattice.pair(q, v) - h * c
        v = tuple(image)
        steps.append((pivot, partner, q, h))


def _walk_back(lattice: Lattice, steps, y):
    """The x with t_k(... t_1(x)) == y for the steps (p, j, q, h) of
    `clearing_isometry`: the inverse t(e_j, q) of each step, last first,
    sends x to x + x_p q - ((q, x) + h x_p) e_j."""
    x = list(y)
    for p, j, q, h in reversed(steps):
        xp = x[p]
        t = lattice.pair(q, x) + h * xp
        x = [z + xp * qi for z, qi in zip(x, q)]
        x[j] -= t
    return tuple(x)


# -- bounded enumeration fallback --------------------------------------------


def _enumerate_witness(lattice: Lattice, lam1, two_a, b, two_d, radius: int):
    """Step 3 of the module docstring: the first candidate that verifies,
    else None (lambda_1's blocks past 6 indices, or none within
    min(radius, 8)).  A fresh block that would take the indices past 6 is
    skipped; a smaller one further on may still fit.  When those indices
    find nothing, the first skipped block fills them up to 6 and the search
    runs again on the filled set."""
    indices = [i for blk in lattice.blocks
               if any(lam1[blk.start:blk.start + blk.size])
               for i in range(blk.start, blk.start + blk.size)]
    skipped = []
    for blk in lattice.blocks:
        fresh = [i for i in range(blk.start, blk.start + blk.size)
                 if i not in indices]
        if len(indices) + len(fresh) <= 6:
            indices.extend(fresh)
        else:
            skipped.extend(fresh)
    if len(indices) > 6:
        return None
    searched = [indices]
    if skipped and len(indices) < 6:
        searched.append(indices + skipped[:6 - len(indices)])
    gl1 = lattice.covector(lam1)
    cand = [0] * lattice.rank
    for chosen in searched:
        coefs = [gl1[i] for i in chosen]
        for bound in range(1, min(radius, 8) + 1):
            for values in product(range(-bound, bound + 1),
                                  repeat=len(chosen)):
                if sum(map(mul, coefs, values)) != b:
                    continue
                for i, x in zip(chosen, values):
                    cand[i] = x
                lam2 = tuple(cand)
                if verify_embedding(lattice, lam1, lam2, two_a, b, two_d):
                    return lam2
    return None


def embed_rank2(lattice: Lattice, lam1, target, radius: int = DEFAULT_RADIUS):
    """lambda_2 with (lam1, lam2) = b, (lam2, lam2) = 2d and span{lam1, lam2}
    primitive; target = (2a, b, 2d) = the Gram entries of the rank-2 form.
    `radius` bounds only the enumeration fallback, which searches entries
    up to min(radius, 8): every radius from 8 up acts alike.  On K3 and
    Mukai the fallback, so the radius, is never reached (module docstring)."""
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
    cleared = clearing_isometry(lattice, lam1) if free is None else ((), lam1)
    if cleared is not None:
        steps, image = cleared
        free = _free_u_block(lattice, image)
        lam2_img = _free_plane_witness(lattice, image, b, d, free)
        if lam2_img is not None:
            lam2 = _walk_back(lattice, steps, lam2_img)
            if verify_embedding(lattice, lam1, lam2, two_a, b, two_d):
                return lam2

    lam2 = _enumerate_witness(lattice, lam1, two_a, b, two_d, radius)
    if lam2 is not None:
        return lam2
    raise WitnessNotFound(radius)
