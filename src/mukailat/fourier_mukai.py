"""Lattice shadows of derived-category equivalences.

Only the induced isometries of the Mukai lattice are modeled: the shift
(-id), spherical reflections tau_{v0}(x) = x + (v0, x) v0 in -2 classes,
the +2 reflection sigma_{u0}(x) = x - (x, u0) u0, the elliptic-fibration
isometry phi with its printed 4x4 matrix on span{(1,0,0), sigma, f,
(0,0,1)} and -1 on the complement, and the weight-2 monodromy twist
g -> (-1)^cov(g) g restricted to v-perp.  Each is returned as an
`Isometry`, built by the library's trusted path from a known isometry.
"""

from __future__ import annotations

from . import linalg
from .characters import (
    covariance,
    general_reflection,
    orientation_char,
    reflection,
)
from .lattices import (
    Isometry,
    Lattice,
    LatticeError,
    check_isometry,
    mukai_lattice,
)
from .mukai import MukaiVector, dualize, mukai_pairing
from .stabilizer import InvariantError, VPerpModel


def spherical_reflection(v0: MukaiVector) -> Isometry:
    """tau_{v0}: w -> w + (v0, w) v0, the lattice shadow of the reflection
    functor of a spherical object with Mukai vector v0."""
    mukai = mukai_lattice()
    if mukai_pairing(v0, v0) != -2:
        raise LatticeError("a spherical class must have square -2")
    return reflection(mukai, v0.coords())


def shift_isometry() -> Isometry:
    """The shift auto-equivalence corresponds to -id; cov(-id) = 0."""
    return Isometry.identity(mukai_lattice()).negate()


def duality_isometry() -> Isometry:
    """D: (r, c, s) -> (r, -c, s), minus one on the K3 block."""
    mukai = mukai_lattice()
    k = mukai.rank - 2
    rows = tuple(linalg.vec_neg(row) if i < k else row
                 for i, row in enumerate(linalg.identity(mukai.rank)))
    # -1 on K3 and 1 on H04 preserve the orthogonal sum K3 + H04
    return Isometry._trusted(mukai, rows)


def sigma_u0_isometry() -> Isometry:
    """sigma_{u0}(w) = w - (w, u0) u0 for the +2 vector u0 = (1, 0, -1)."""
    mukai = mukai_lattice()
    u0 = MukaiVector(1, linalg.zero_vec(mukai.rank - 2), -1)
    return general_reflection(mukai, u0.coords())


def verify_sigma_tau_duality() -> dict:
    """The +2 and -2 reflections in u0 = (1,0,-1), v0 = (1,0,1) commute and
    -(sigma_{u0} o tau_{v0}) = D as a 24x24 matrix identity."""
    mukai = mukai_lattice()
    k = mukai.rank - 2
    u0 = MukaiVector(1, linalg.zero_vec(k), -1)
    v0 = MukaiVector(1, linalg.zero_vec(k), 1)
    sigma = sigma_u0_isometry()
    tau = spherical_reflection(v0)
    d = duality_isometry()
    checks = {}
    checks["u0_square_plus2"] = mukai_pairing(u0, u0) == 2
    checks["v0_square_minus2"] = mukai_pairing(v0, v0) == -2
    sigma_tau = sigma @ tau
    minus_sigma_tau = sigma_tau.negate()
    checks["commute"] = sigma_tau.matrix == (tau @ sigma).matrix
    checks["minus_sigma_tau_equals_D"] = minus_sigma_tau.matrix == d.matrix
    # spot checks on (1,0,0) and a degree-2 class
    e = MukaiVector(1, linalg.zero_vec(k), 0)
    x = MukaiVector(0, tuple(1 if i < 2 else 0 for i in range(k)), 0)
    for name, y in (("spot_100", e), ("spot_c", x)):
        checks[name] = MukaiVector.from_coords(
            minus_sigma_tau.apply(y.coords())) == dualize(y)
    checks["all"] = all(checks.values())
    return checks


# -- the elliptic-fibration isometry ------------------------------------------

# Columns are images of the basis {(1,0,0), sigma, f, (0,0,1)}.
PHI_LAMBDA_MATRIX = (
    (0, -1, 0, 0),
    (1, 0, 0, 0),
    (1, -1, 0, -1),
    (1, -1, 1, 0),
)


def _section_and_fiber(mukai: Lattice):
    """Designated section/fiber classes: f = e3 (isotropic) and sigma =
    f3 - e3 (square -2, sigma.f = 1) in the third hyperbolic block."""
    b = mukai.blocks_named("U")[2]
    return mukai.plane_vector(b, -1, 1), mukai.plane_vector(b, 1, 0)


def elliptic_phi(n: int) -> tuple[Isometry, dict]:
    """The isometry phi acting by the printed matrix on Lambda =
    span{(1,0,0), sigma, f, (0,0,1)} and by -1 on its complement, plus the
    n-dependent verification identities."""
    if n < 2:
        raise LatticeError("n must be at least 2")
    mukai = mukai_lattice()
    k = mukai.rank - 2
    sigma, f = _section_and_fiber(mukai)
    e1 = MukaiVector(1, linalg.zero_vec(k), 0).coords()
    e2 = MukaiVector(0, linalg.zero_vec(k), 1).coords()
    lam_basis = (e1, sigma, f, e2)

    checks = {}
    checks["sigma_sq"] = mukai.square(sigma) == -2
    checks["f_isotropic"] = mukai.square(f) == 0
    checks["sigma_dot_f"] = mukai.pair(sigma, f) == 1

    gram_lambda = linalg.freeze(
        [[mukai.pair(a, b) for b in lam_basis] for a in lam_basis]
    )
    lattice_lambda = Lattice(gram_lambda, ("h0", "sigma", "f", "h4"))
    phi_l = linalg.freeze(PHI_LAMBDA_MATRIX)
    checks["phi_preserves_gram_lambda"] = \
        check_isometry(lattice_lambda, phi_l).is_isometry

    # phi = -I + B (Phi + I) G_Lambda^{-1} B^T G with B the Lambda basis as
    # columns: B^T G vanishes on Lambda-perp, where phi is -1, and on Lambda
    # phi is Phi.  By the sigma, f checks G_Lambda is unimodular, so
    # Lambda + Lambda-perp is the whole lattice.
    g_inv, _ = lattice_lambda.gram_inverse()
    phi_plus_i = tuple(linalg.vec_add(row, e)
                       for row, e in zip(phi_l, linalg.identity(4)))
    columns = linalg.transpose(linalg.mat_mul(
        linalg.transpose(lam_basis), linalg.mat_mul(phi_plus_i, g_inv)
    ))
    covectors = (mukai.covector(b) for b in lam_basis)
    # Phi on Lambda and -1 on Lambda-perp; verified on the next line
    phi = Isometry._trusted(mukai, outer=(-1, tuple(zip(columns, covectors))))
    if not check_isometry(mukai, phi.matrix).is_isometry:
        raise LatticeError("matrix does not preserve the Gram form")

    # phi(1, 0, 1-n) = (0, sigma + n f, 1)
    src = MukaiVector(1, linalg.zero_vec(k), 1 - n)
    sigma_c = sigma[:k]
    f_c = f[:k]
    target = MukaiVector(
        0, linalg.vec_add(sigma_c, linalg.vec_scale(n, f_c)), 1
    )
    checks["phi_of_ideal_class"] = \
        phi.apply(src.coords()) == target.coords()

    # beta orthogonal to sigma, f with beta^2 = 2n - 4, in another plane
    beta = _beta_class(mukai, n)
    checks["beta_valid"] = (
        mukai.square(beta) == 2 * n - 4
        and mukai.pair(beta, sigma) == 0
        and mukai.pair(beta, f) == 0
    )
    v0 = MukaiVector(1, linalg.vec_sub(beta[:k], f_c), n - 1)
    checks["v0_square"] = mukai_pairing(v0, v0) == -2
    alpha = linalg.vec_sub(
        linalg.vec_add(sigma_c, linalg.vec_scale(2 - n, f_c)), beta[:k]
    )
    alpha_class = MukaiVector(0, alpha, 0)
    checks["phi_of_v0"] = \
        phi.apply(v0.coords()) == alpha_class.coords()
    checks["alpha_square"] = mukai_pairing(alpha_class, alpha_class) == -2

    # conjugation: phi tau_{v0} phi^{-1} = tau_{(0, alpha, 0)}, checked as
    # phi tau_{v0} = tau_{(0, alpha, 0)} phi since phi is invertible
    g = reflection(mukai, v0.coords())
    rho = reflection(mukai, alpha_class.coords())
    checks["conjugation"] = (phi @ g).matrix == (rho @ phi).matrix
    checks["all"] = all(checks.values())
    return phi, checks


def _beta_class(mukai: Lattice, n: int):
    """beta = e2 + (n-2) f2: orthogonal to the designated sigma, f (which
    live in the third hyperbolic block) with beta^2 = 2n - 4."""
    return mukai.plane_vector(mukai.blocks_named("U")[1], 1, n - 2)


def mon_twist(model: VPerpModel, g: Isometry) -> Isometry:
    """The weight-2 shadow of the monodromy representation: restrict g in
    Gamma_v to v-perp and multiply by (-1)^cov(g); lands in the
    orientation-preserving group O_+(v-perp)."""
    restricted = model.restrict(g)  # NotInGammaV unless g fixes v
    out = restricted.negate() if covariance(g) else restricted
    if orientation_char(out) != 0:
        raise InvariantError("twisted restriction must preserve orientation")
    return out
