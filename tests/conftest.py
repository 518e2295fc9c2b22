import random
from fractions import Fraction

import pytest
from hypothesis import assume, strategies as st

from mukailat import linalg
from mukailat.lattices import k3_lattice, mukai_lattice, orthogonal_complement


@pytest.fixture(scope="session")
def k3():
    return k3_lattice()


@pytest.fixture(scope="session")
def mukai():
    return mukai_lattice()


@pytest.fixture
def rng():
    return random.Random(20240817)


def fail_enumeration(*args):
    """Stands in for `embeddings._enumerate_witness` where no witness
    search may enumerate."""
    pytest.fail("embed_rank2 reached its enumeration fallback")


def label_vector(lattice, **coeffs):
    """Vector with the given label -> coefficient assignments."""
    v = [0] * lattice.rank
    for label, c in coeffs.items():
        v[lattice.basis_labels.index(label)] = c
    return tuple(v)


def mixed_mukai_reference(mukai):
    """A rational, orientation-preserving base change of the Mukai lattice's
    orientation reference e.i + f.i (i = 1, 2, 3), h0 - h4: the first
    vector gains a third of the second and the third is doubled."""
    e1, e2, e3 = (label_vector(mukai, **{f"e.{i}": 1, f"f.{i}": 1})
                  for i in (1, 2, 3))
    return [
        [a + Fraction(1, 3) * b for a, b in zip(e1, e2)],
        list(e2),
        [2 * x for x in e3],
        list(label_vector(mukai, h0=1, h4=-1)),
    ]


def elementary_divisors(mat):
    """The nonzero diagonal entries of the Smith normal form of mat."""
    d, _ = linalg.smith_normal_form(linalg.freeze(mat))
    n = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(n) if d[i][i] != 0)


def in_span(vec, basis):
    """Is vec an integer combination of the given vectors (independent or
    not)?  Adding vec to them keeps their span, and so their elementary
    divisors, iff it lies in that span."""
    basis = linalg.freeze(basis)
    return elementary_divisors(basis) == \
        elementary_divisors(basis + (tuple(vec),))


def random_vector(lattice, rng, bound=5, density=0.5):
    return tuple(
        rng.randint(-bound, bound) if rng.random() < density else 0
        for _ in range(lattice.rank)
    )


@st.composite
def mukai_complements(draw):
    """(triple, G3, basis, gram) for three random Mukai vectors with
    entries up to 1, 10^3 or 10^12 and a nondegenerate 3x3 Gram G3, with
    the saturated complement of their span and its 21x21 Gram."""
    bound = draw(st.sampled_from((1, 10**3, 10**12)))
    vec = st.lists(st.integers(-bound, bound), min_size=24, max_size=24)
    triple = tuple(tuple(draw(vec)) for _ in range(3))
    mukai = mukai_lattice()
    g3 = linalg.freeze([[mukai.pair(a, b) for b in triple] for a in triple])
    assume(linalg.det(g3) != 0)
    basis, gram = orthogonal_complement(mukai, triple)
    return triple, g3, basis, gram
