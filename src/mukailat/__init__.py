"""mukailat: exact-integer computations in the Mukai lattice of a K3 surface.

Pairings, reflections, orientation/covariance characters, the stabilizer of
the Hilbert-scheme Mukai vector (1, 0, -m) with its discriminant form and
generator factorization, lattice shadows of Fourier-Mukai equivalences, and
the elliptic-curve analogue.  All arithmetic is exact (ints and Fractions).
"""

from .lattices import (
    Block,
    DiscGroup,
    Isometry,
    IsometryCheck,
    Lattice,
    LatticeError,
    build_lattice,
    check_isometry,
    discriminant_group,
    e8_minus,
    hyperbolic_plane,
    is_primitive,
    k3_lattice,
    mukai_lattice,
    orthogonal_complement,
)
from .mukai import (
    Effectivity,
    GradedSurfaceClass,
    MukaiVector,
    ch_to_chern,
    cup,
    dualize,
    effectivity_numeric,
    exp_class,
    hilbert_scheme_vector,
    mukai_pairing,
    sqrt_todd,
    twist_by_line,
    unit_class,
)
from .characters import (
    covariance,
    general_reflection,
    orientation_char,
    reflection,
)
from .embeddings import WitnessNotFound, clearing_isometry, embed_rank2
from .stabilizer import (
    ExtensionKind,
    Gamma0Letter,
    GeneratorWord,
    InvariantError,
    Minus2Orbit,
    NotInGammaV,
    TauLetter,
    VPerpModel,
    aplus_witness,
    classify_minus2,
    disc_action,
    disc_group_order,
    factor,
    generator_family,
    in_gamma_v,
    normalize_word,
    pair_witness_peel,
    sym3_triple,
    vperp_model,
    w_membership,
)
from .fourier_mukai import (
    duality_isometry,
    elliptic_phi,
    mon_twist,
    shift_isometry,
    sigma_u0_isometry,
    spherical_reflection,
    verify_sigma_tau_duality,
)
from .elliptic import (
    EvenStabilizer,
    even_pairing,
    even_stabilizer,
    transvection,
)

__version__ = "0.1.0"
