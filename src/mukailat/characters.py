"""Reflections in +-2 vectors and the determinant / orientation characters.

For (u,u) = +-2 the isometry rho_u(w) = (-2/(u,u)) w + (w,u) u is the
reflection in u when (u,u) = -2, and minus the reflection when (u,u) = +2.
The orientation character records the sign of an isometry's action on the
orientation of a maximal positive definite subspace.  The sign does not
depend on the subspace or its basis, so each lattice fixes one reference:
e + f per hyperbolic block and h0 - h4 per H04 block.  On the Mukai lattice
it is the covariance character, with cov(-id) = 0, cov(D) = 1,
cov(rho_{-2}) = 0, cov(rho_{+2}) = 1.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .lattices import Isometry, Lattice, LatticeError
from .linalg import Vec


class ReflectionError(LatticeError):
    pass


def reflection(lattice: Lattice, u) -> Isometry:
    """rho_u for a +-2 vector u: w -> (-2/(u,u)) w + (w,u) u."""
    u = tuple(u)
    q = lattice.square(u)
    if q not in (2, -2):
        raise ReflectionError(
            f"(u,u) = {q}; rho_u needs a +-2 vector (use general_reflection)"
        )
    gu = lattice.covector(u)
    # (rho x, rho y) = (x, y) + (x,u)(y,u)(q - 4/q), and q - 4/q = 0
    return Isometry._trusted(lattice, outer=(-2 // q, ((u, gu),)))


def general_reflection(lattice: Lattice, u) -> Isometry:
    """The true reflection x -> x - (2(x,u)/(u,u)) u, for any u with (u,u) != 0.

    Raises if 2(x,u)/(u,u) is not integral on some basis vector, e.g. the
    reflection rho_delta(x) = x + [(x,delta)/(n-1)] delta in a (2-2n)-class.
    """
    u = tuple(u)
    q = lattice.square(u)
    if q == 0:
        raise ReflectionError("cannot reflect in an isotropic vector")
    gu = lattice.covector(u)
    for j, x in enumerate(gu):
        if 2 * x % q:
            raise ReflectionError(
                f"reflection in u is not integral: (u,u) = {q} does not divide "
                f"2(b_{j}, u) = {2 * x}"
            )
    coefs = tuple(-2 * x // q for x in gu)
    # it negates u and fixes u-perp, so it preserves the form
    return Isometry._trusted(lattice, outer=(1, ((u, coefs),)))


@lru_cache(maxsize=None)
def _reference(lattice: Lattice) -> tuple[tuple[Vec, ...], tuple]:
    """e + f per hyperbolic block and h0 - h4 = (1, 0, -1) per H04 block,
    checked once to be a basis of a maximal positive definite subspace.
    Returned as the vectors r_i and, per r_i, the (j, (G r_i)_j) with
    (G r_i)_j != 0, the only entries a pairing (r_i, y) reads."""
    vectors = [lattice.plane_vector(block, 1, sign)
               for name, sign in (("U", 1), ("H04", -1))
               for block in lattice.blocks_named(name)]
    gram = linalg.freeze([[lattice.pair(a, b) for b in vectors]
                          for a in vectors])
    if linalg.signature(gram)[0] != len(vectors):
        raise LatticeError("reference vectors must span a positive definite space")
    n_plus = lattice.signature()[0]
    if len(vectors) != n_plus:
        raise LatticeError(
            f"reference must have {n_plus} vectors (the positive index)"
        )
    supports = tuple(
        tuple((j, x) for j, x in enumerate(lattice.covector(v)) if x)
        for v in vectors)
    return tuple(vectors), supports


def orientation_char(g: Isometry) -> int:
    """0 if g preserves the orientation of the positive part, 1 otherwise.

    The matrix of (projection onto span(ref)) o g in the reference basis is
    B^{-1} C with B the reference Gram and C the pairing of references with
    their images; since det B > 0 only the sign of det C matters.  That sign
    is the same for every basis of every maximal positive definite subspace.
    The images g r_k come from `Isometry.apply`, so a g kept in outer form
    never builds its matrix, and C_ik = (r_i, g r_k) reads only the cached
    nonzero entries of G r_i.  The value is kept on g and read from there
    on every later call.
    """
    char = getattr(g, "_orientation_char", None)
    if char is not None:
        return char
    refs, supports = _reference(g.lattice)
    images = [g.apply(v) for v in refs]
    c = linalg.freeze([[sum(x * img[j] for j, x in support)
                        for img in images] for support in supports])
    d = linalg.det_q(c)
    if d == 0:
        raise LatticeError(
            "projected map is singular; input is not an isometry")
    g._orientation_char = char = 0 if d > 0 else 1
    return char


def covariance(g: Isometry) -> int:
    """The covariance character: the Mukai lattice's orientation character."""
    return orientation_char(g)
