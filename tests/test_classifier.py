import itertools
import random
from fractions import Fraction

import pytest

from nullsol.classifier import (
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    LatticeSpec,
    SolutionSpace,
    _lattice_shell,
    classify,
    periodic_test,
)
from nullsol.gaussian import GaussianRational
from nullsol.multipoly import MultiPoly
from nullsol.parser import parse

from helpers import random_multipoly

ALL_NONPERIODIC = [s for s in SolutionSpace if s is not SolutionSpace.PERIODIC]

DIFFUSION = parse("T - (X1^2+X2^2+X3^2)")[0]
KLEIN_GORDON = parse("T^2 - (X1^2+X2^2+X3^2) + 1")[0]
MIXED = parse("X1*X2*T")[0]


def statuses(p):
    return {s: classify(p, s).status for s in ALL_NONPERIODIC}


def test_diffusion_table_row():
    st = statuses(DIFFUSION)
    assert st[SolutionSpace.SMOOTH] == NONTRIVIAL
    assert st[SolutionSpace.DISTRIBUTIONS] == NONTRIVIAL
    for s in (SolutionSpace.TEST_FUNCTIONS, SolutionSpace.COMPACT_DISTRIBUTIONS,
              SolutionSpace.SPATIALLY_TEMPERED, SolutionSpace.BESOV,
              SolutionSpace.SOBOLEV, SolutionSpace.SCHWARTZ_SPATIAL,
              SolutionSpace.COMPACT_SPATIAL):
        assert st[s] == TRIVIAL
    v = classify(DIFFUSION, SolutionSpace.SPATIALLY_TEMPERED)
    assert v.rule == "content-variety-empty"


def test_klein_gordon_trivial_everywhere():
    st = statuses(KLEIN_GORDON)
    assert all(s == TRIVIAL for s in st.values())
    v = classify(KLEIN_GORDON, SolutionSpace.SMOOTH)
    assert v.rule == "degree-preservation"


def test_mixed_symbol_tempered_witness_on_axis():
    v = classify(MIXED, SolutionSpace.SPATIALLY_TEMPERED)
    assert v.status == NONTRIVIAL
    w = v.witness
    assert w is not None
    # witness frequency lies on a coordinate axis
    assert any(f == 0 for f in w.frequency)
    assert all(x.is_zero() for x in w.certificate)


def test_zero_symbol_nontrivial_everywhere():
    z = MultiPoly.zero(3)
    for s in ALL_NONPERIODIC:
        v = classify(z, s)
        assert v.status == NONTRIVIAL
        assert v.rule == "zero-symbol"


def test_compact_and_test_function_rows_agree():
    rng = random.Random(59)
    for _ in range(50):
        p = random_multipoly(rng, 3, max_deg=3)
        a = classify(p, SolutionSpace.TEST_FUNCTIONS).status
        b = classify(p, SolutionSpace.COMPACT_DISTRIBUTIONS).status
        assert a == b


def test_scalar_multiple_invariance():
    rng = random.Random(61)
    spaces = [SolutionSpace.SMOOTH, SolutionSpace.TEST_FUNCTIONS,
              SolutionSpace.SOBOLEV]
    for _ in range(30):
        p = random_multipoly(rng, 3, max_deg=3)
        lam = GaussianRational(rng.randint(1, 4), rng.randint(0, 2))
        q = p.scale(lam)
        for s in spaces:
            assert classify(p, s).status == classify(q, s).status


def test_classify_periodic_requires_lattice():
    with pytest.raises(ValueError):
        classify(DIFFUSION, SolutionSpace.PERIODIC)


# -- lattice handling ------------------------------------------------------

def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec.from_rows([[1, 0]])  # not square
    with pytest.raises(ValueError):
        LatticeSpec.from_rows([[1, 2], [2, 4]])  # singular
    with pytest.raises(ValueError):
        LatticeSpec.from_rows([])


def test_lattice_inverse_and_frequency():
    lat = LatticeSpec.from_rows([[2, 0], [0, 4]])
    inv = lat.inverse()
    assert inv == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 4)))
    assert lat.frequency_vector((1, 2)) == (Fraction(1, 2), Fraction(1, 2))
    assert lat.max_row_abs_sum() == 4


def test_lattice_shell_matches_filtered_cube():
    # reference: the whole cube in descending lexicographic order, kept
    # where the max-norm equals the radius
    for dim in (1, 2, 3):
        for radius in range(5):
            cube = itertools.product(range(radius, -radius - 1, -1), repeat=dim)
            expected = [k for k in cube if max(map(abs, k)) == radius]
            assert list(_lattice_shell(dim, radius)) == expected


# -- periodic test ---------------------------------------------------------

def periodic(text, rows):
    lat = LatticeSpec.from_rows(rows)
    p, _ = parse(text, dim=lat.dimension, allow_pi=True)
    return periodic_test(p, lat)


def test_periodic_resonance_fixture():
    v = periodic("X1^2*T + 4*PI^2*T", [[1]])
    assert v.status == NONTRIVIAL
    assert v.rule == "lattice-resonance"
    assert v.evidence["lattice_point"] == [1]
    assert v.witness is not None and v.witness.pi_factor


def test_periodic_trivial_fixture():
    v = periodic("T - X1^2", [[1]])
    assert v.status == TRIVIAL


def test_periodic_zero_symbol():
    lat = LatticeSpec.from_rows([[1]])
    assert periodic_test(MultiPoly.zero(3), lat).status == NONTRIVIAL


def test_periodic_constant_generator():
    # (X1^2 + 1)*T: the pi^0 grade is the constant 1, so no frequency works
    for text in ("T + 1", "(X1^2 + 1)*T"):
        v = periodic(text, [[1]])
        assert v.status == TRIVIAL
        assert v.rule == "nonvanishing-generator"


def test_periodic_resonance_at_origin():
    v = periodic("X1*X2*T", [[1, 0], [0, 1]])
    assert v.status == NONTRIVIAL
    assert v.evidence["lattice_point"] == [0, 0]


def test_periodic_resonance_prefers_positive_index():
    # generator vanishes at frequencies +-2*pi; k = 1 must win over k = -1
    v = periodic("(X1^2 + 4*PI^2)*T", [[1]])
    assert v.status == NONTRIVIAL
    assert v.evidence["lattice_point"] == [1]


def test_periodic_rescaled_lattice_moves_resonance():
    # period 2 halves the lattice frequencies, so the resonance sits at k = 2
    v = periodic("(X1^2 + 4*PI^2)*T", [[2]])
    assert v.status == NONTRIVIAL
    assert v.evidence["lattice_point"] == [2]


def test_periodic_pi_symbol_without_resonance_is_unknown():
    # the pi^2 grade 4*(v2^2 - v1^2) + 1 vanishes on a hyperbola, which
    # no lattice point meets but which is unbounded, so no completeness
    # bound exists; the truncated search must answer UNKNOWN, never a
    # false TRIVIAL
    v = periodic("(X1^2 - X2^2 + PI^2)*T", [[1, 0], [0, 1]])
    assert v.status == UNKNOWN
    assert v.rule == "lattice-search-exhausted"
    assert v.evidence["reason"] == "lattice-truncated"


def test_periodic_decisive_trivial_with_complete_enumeration():
    # the pi^2 grade 9 - 4*v^2 has bounded zeros v = +-3/2: no integer k
    # reaches them, and the bound makes that a proof
    v = periodic("(X1^2 + 9*PI^2)*T", [[1]])
    assert v.status == TRIVIAL
    assert v.rule == "lattice-resonance-free"
    assert "complete_radius" in v.evidence


def test_periodic_wrong_slot_count_rejected():
    lat = LatticeSpec.from_rows([[1]])
    p, _ = parse("T - X1^2", dim=1)  # no PI slot
    with pytest.raises(ValueError):
        periodic_test(p, lat)
