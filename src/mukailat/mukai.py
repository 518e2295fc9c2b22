"""The Mukai lattice as the truncated cohomology ring of a K3 surface.

A Mukai vector (r, c, s) pairs in the Mukai lattice of `lattices`:
<(r',c',s'), (r'',c'',s'')> = c'.c'' - r's'' - r''s' with c in the K3
lattice.  GradedSurfaceClass carries the rational degree-(0,2,4) calculus
(cup product, exp of a line class, the square root (1,0,1) of the Todd
class, exponential Chern character to total Chern class).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .lattices import LatticeError, k3_lattice, mukai_lattice


@dataclass(frozen=True)
class MukaiVector:
    r: int
    c: tuple[int, ...]
    s: int

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))

    @property
    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and linalg.is_zero_vec(self.c)

    def coords(self) -> tuple[int, ...]:
        """Coordinates in the Mukai lattice basis [K3 basis..., (1,0,0), (0,0,1)]."""
        return self.c + (self.r, self.s)

    @classmethod
    def from_coords(cls, coords) -> "MukaiVector":
        coords = tuple(coords)
        return cls(coords[-2], coords[:-2], coords[-1])

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, linalg.vec_add(self.c, other.c),
                           self.s + other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, linalg.vec_neg(self.c), -self.s)


def hilbert_scheme_vector(m: int) -> MukaiVector:
    """v = (1, 0, -m), the Mukai vector of an ideal sheaf of m+1 points."""
    return MukaiVector(1, linalg.zero_vec(k3_lattice().rank), -m)


def mukai_pairing(x: MukaiVector, y: MukaiVector) -> int:
    return mukai_lattice().pair(x.coords(), y.coords())


def dualize(x: MukaiVector) -> MukaiVector:
    """The duality operator D: (r, c, s) -> (r, -c, s); acts by -1 on H^2."""
    return MukaiVector(x.r, linalg.vec_neg(x.c), x.s)


class IntegralityError(LatticeError):
    """A calculus result that must be integral came out fractional."""


def _canonical_number(x):
    """Integers stay ints; fractions reduce to ints when integral."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class GradedSurfaceClass:
    """Rational class in degrees 0, 2, 4 of the cohomology of a surface."""

    deg0: int | Fraction
    deg2: tuple
    deg4: int | Fraction

    def __post_init__(self):
        object.__setattr__(self, "deg0", _canonical_number(self.deg0))
        object.__setattr__(
            self, "deg2", tuple(_canonical_number(x) for x in self.deg2)
        )
        object.__setattr__(self, "deg4", _canonical_number(self.deg4))

    @classmethod
    def from_mukai(cls, x: MukaiVector) -> "GradedSurfaceClass":
        return cls(Fraction(x.r), x.c, Fraction(x.s))


def unit_class() -> GradedSurfaceClass:
    return GradedSurfaceClass(Fraction(1), linalg.zero_vec(k3_lattice().rank),
                              Fraction(0))


def sqrt_todd() -> GradedSurfaceClass:
    """sqrt(td) = (1, 0, 1): the Todd class of a K3 surface is 1 + 2w."""
    return GradedSurfaceClass(Fraction(1), linalg.zero_vec(k3_lattice().rank),
                              Fraction(1))


def cup(x: GradedSurfaceClass, y: GradedSurfaceClass) -> GradedSurfaceClass:
    """(r,c,s).(r',c',s') = (rr', rc' + r'c, rs' + sr' + c.c'), truncated at deg 4."""
    return GradedSurfaceClass(
        x.deg0 * y.deg0,
        linalg.vec_add(linalg.vec_scale(x.deg0, y.deg2),
                       linalg.vec_scale(y.deg0, x.deg2)),
        x.deg0 * y.deg4 + x.deg4 * y.deg0 + k3_lattice().pair(x.deg2, y.deg2),
    )


def exp_class(line: tuple) -> GradedSurfaceClass:
    """exp(l) = (1, l, l^2/2)."""
    line_q = tuple(Fraction(x) for x in line)
    return GradedSurfaceClass(Fraction(1), line_q,
                              Fraction(k3_lattice().square(line_q), 2))


def ch_to_chern(ch: GradedSurfaceClass) -> GradedSurfaceClass:
    """Exponential Chern character to total Chern class, at surface truncation:
    (r, a1, a2) -> (1, a1, a1^2/2 - a2)."""
    if ch.deg0.denominator != 1:
        raise IntegralityError("degree-0 component of ch must be an integer")
    a1 = ch.deg2
    c2 = Fraction(k3_lattice().square(a1), 2) - ch.deg4
    return GradedSurfaceClass(Fraction(1), a1, c2)


def twist_by_line(x: GradedSurfaceClass, line: tuple) -> GradedSurfaceClass:
    """Tensoring by a line bundle with first Chern class `line`: cup with exp(line)."""
    return cup(x, exp_class(line))


class Effectivity(enum.Enum):
    EFFECTIVE = "Effective"
    NOT_EFFECTIVE = "NotEffective"
    INDETERMINATE = "Indeterminate"


def effectivity_numeric(v: MukaiVector) -> Effectivity:
    """Numeric clauses of effectivity; the divisor clause for r = 0, c != 0
    needs ample/Hodge data this package does not carry, hence Indeterminate."""
    if v.is_zero:
        raise LatticeError("effectivity is undefined for the zero vector")
    if mukai_pairing(v, v) < -2 or v.r < 0:
        return Effectivity.NOT_EFFECTIVE
    if v.r > 0:
        return Effectivity.EFFECTIVE
    if not linalg.is_zero_vec(v.c):
        return Effectivity.INDETERMINATE
    # r = 0, c = 0: effective iff chi = r + s = s > 0
    return Effectivity.EFFECTIVE if v.s > 0 else Effectivity.NOT_EFFECTIVE
