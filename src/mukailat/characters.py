"""Reflections in +-2 vectors and the determinant / orientation characters.

For (u,u) = +-2 the isometry rho_u(w) = (-2/(u,u)) w + (w,u) u is the
reflection in u when (u,u) = -2, and minus the reflection when (u,u) = +2.
The orientation character records the sign of an isometry's action on the
orientation of a maximal positive definite subspace; on the Mukai lattice
with the default reference it is the covariance character, with cov(-id) = 0,
cov(D) = 1, cov(rho_{-2}) = 0, cov(rho_{+2}) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .lattices import Isometry, Lattice, LatticeError


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
    return Isometry.from_outer(lattice, -2 // q, ((u, gu),))


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
    return Isometry.from_outer(lattice, 1, ((u, coefs),))


@dataclass(frozen=True)
class ReferenceOrientation:
    """An ordered rational basis of a maximal positive definite subspace."""

    lattice: Lattice
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        def canonical(x):
            f = Fraction(x)
            return int(f) if f.denominator == 1 else f

        vecs = tuple(tuple(canonical(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        gram = self._gram()
        if not linalg.is_positive_definite(gram):
            raise LatticeError("reference vectors must span a positive definite space")
        n_plus = self.lattice.signature()[0]
        if len(vecs) != n_plus:
            raise LatticeError(
                f"reference must have {n_plus} vectors (the positive index)"
            )

    def _gram(self):
        vecs = self.vectors
        return linalg.freeze([[self.lattice.pair(a, b) for b in vecs]
                              for a in vecs])


def default_reference(lattice: Lattice) -> ReferenceOrientation:
    """e_i + f_i over the hyperbolic blocks, plus (1,0,-1) on the Mukai lattice.

    The Mukai vector (1,0,-1) is h0 - h4 in coordinates; the three e + f
    classes are a fixed positive 3-space standing in for {Re(sigma),
    Im(sigma), kappa}.
    """
    return _cached_default_reference(lattice)


def orientation_char(reference: ReferenceOrientation, g: Isometry) -> int:
    """0 if g preserves the orientation of the positive part, 1 otherwise.

    The matrix of (projection onto span(ref)) o g in the reference basis is
    B^{-1} C with B the reference Gram and C the pairing of references with
    their images; since det B > 0 only the sign of det C matters.
    """
    lat = reference.lattice
    if g.lattice.gram != lat.gram:
        raise LatticeError("isometry lives on a different lattice")
    refs = reference.vectors
    images = [g.apply(v) for v in refs]
    c = linalg.freeze([[lat.pair(ref, img) for img in images] for ref in refs])
    d = linalg.det_q(c)
    if d == 0:
        raise LatticeError(
            "projected map is singular; input is not an isometry")
    return 0 if d > 0 else 1


@lru_cache(maxsize=None)
def _cached_default_reference(lattice: Lattice) -> ReferenceOrientation:
    n = lattice.rank
    vectors = []
    for block in lattice.blocks_named("U"):
        v = [0] * n
        v[block.start] = 1
        v[block.start + 1] = 1
        vectors.append(tuple(v))
    for block in lattice.blocks_named("H04"):
        v = [0] * n
        v[block.start] = 1
        v[block.start + 1] = -1
        vectors.append(tuple(v))
    return ReferenceOrientation(lattice, tuple(vectors))


def covariance(g: Isometry) -> int:
    """The covariance character on the Mukai lattice (default reference)."""
    return orientation_char(default_reference(g.lattice), g)
