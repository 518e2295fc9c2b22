"""The elliptic-curve analogue: even cohomology with its antisymmetric form.

Classes of sheaves on an elliptic curve live in the even part (rank, degree)
with the pairing ((r', d'), (r'', d'')) = r'' d' - r' d''.  The symmetry
group splits as SL2 x SL2 over even and odd cohomology; the stabilizer of a
primitive even vector v is infinite cyclic, generated by the transvection
t_v(w) = w + (w, v) v.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from . import linalg
from .lattices import LatticeError


def even_pairing(x, y) -> int:
    """((r', d'), (r'', d'')) = r'' d' - r' d''."""
    return y[0] * x[1] - x[0] * y[1]


def transvection(v) -> linalg.Mat:
    """Matrix of w -> w + (w, v) v for a primitive even vector v."""
    return EvenStabilizer(v).generator


def preserves_even_pairing(mat) -> bool:
    """For 2x2 integer matrices this is exactly det = 1."""
    return linalg.det(mat) == 1


def fixes_vector(mat, v) -> bool:
    return linalg.mat_vec(mat, tuple(v)) == tuple(v)


class EvenStabilizer:
    """The stabilizer of a primitive (r, d) inside SL2(Z): {t_v^k, k in Z}."""

    def __init__(self, v):
        self.v = tuple(v)
        r, d = self.v
        if r == 0 and d == 0:
            raise LatticeError("transvection needs a nonzero vector")
        if gcd(r, d) != 1:
            raise LatticeError("transvection needs a primitive vector")
        self.generator = self.power(1)

    def power(self, k: int) -> linalg.Mat:
        """t_v^k = I + k N: as (w, v) = r w_1 - d w_0, t_v - I is N =
        ((-rd, r^2), (-d^2, rd)), and N^2 = 0."""
        r, d = self.v
        return ((1 - k * r * d, k * r * r), (-k * d * d, 1 + k * r * d))

    def is_power(self, mat) -> int | None:
        """The exponent k with mat = t_v^k, or None.

        mat must fix v.  N = t_v - I is nonzero, so k is the quotient of
        (mat - I) by N at a nonzero entry of N, r^2 or -d^2, and mat is a
        power iff it equals t_v^k.
        """
        mat = linalg.freeze(mat)
        if len(mat) != 2 or any(len(row) != 2 for row in mat):
            raise LatticeError("expected a 2x2 matrix")
        if not fixes_vector(mat, self.v):
            raise LatticeError("matrix does not fix v")
        r, d = self.v
        k = mat[0][1] // (r * r) if r else -mat[1][0] // (d * d)
        return k if mat == self.power(k) else None


def even_stabilizer(v) -> EvenStabilizer:
    return EvenStabilizer(v)


def enumerate_stabilizer(v, bound: int) -> list[linalg.Mat]:
    """All integer matrices with entries up to `bound`, det 1, fixing v."""
    v = tuple(v)
    det_one = (((a, b), (c, d))
               for a, b, c, d in product(range(-bound, bound + 1), repeat=4)
               if a * d - b * c == 1)
    return [mat for mat in det_one if fixes_vector(mat, v)]
