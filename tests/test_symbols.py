import math
import random
from fractions import Fraction

import pytest

import nullsol.classifier
from nullsol.classifier import NONTRIVIAL, LatticeSpec, periodic_test
from nullsol.multipoly import MultiPoly
from nullsol.parser import parse
from nullsol.symbols import (
    ContentGenerators,
    RealPolySystem,
    at_i_xi,
    degree_test,
    imaginary_slice,
    is_characteristic_normal,
    pi_graded_slice,
    pi_grades,
    principal_part,
    restrict_to_time,
    t_coefficients,
    x_content,
)
from nullsol.variety import decide_emptiness

from helpers import (
    ZERO,
    GaussianRational,
    I,
    evaluate,
    integer_terms,
    pair,
    random_multipoly,
    random_point,
    random_rational,
)

DIFFUSION = parse("T - (X1^2+X2^2+X3^2)")[0]
KLEIN_GORDON = parse("T^2 - (X1^2+X2^2+X3^2) + 1")[0]
MIXED = parse("X1*X2*T")[0]
WAVE = parse("T^2 - X1^2")[0]


def test_restrict_to_time():
    r = restrict_to_time(DIFFUSION)
    assert r == MultiPoly(4, {(0, 0, 0, 1): 1})
    assert restrict_to_time(MIXED).is_zero()


def test_degree_test():
    assert not degree_test(DIFFUSION)   # deg 2 vs 1
    assert degree_test(KLEIN_GORDON)    # deg 2 both
    assert not degree_test(MIXED)       # deg 3 vs -inf
    assert degree_test(WAVE)


def test_principal_part():
    assert principal_part(DIFFUSION) == parse("-(X1^2+X2^2+X3^2)", dim=3)[0]
    assert principal_part(KLEIN_GORDON) == parse("T^2 - (X1^2+X2^2+X3^2)")[0]
    with pytest.raises(ValueError):
        principal_part(MultiPoly.zero(2))


def test_characteristic_normals():
    # time direction characteristic for the diffusion symbol
    assert is_characteristic_normal(DIFFUSION, [0, 0, 0, 1])
    # but not for Klein-Gordon (T^2 survives)
    assert not is_characteristic_normal(KLEIN_GORDON, [0, 0, 0, 1])
    # light-cone direction for the wave symbol
    assert is_characteristic_normal(WAVE, [1, 1])
    assert not is_characteristic_normal(WAVE, [1, 2])
    with pytest.raises(ValueError):
        is_characteristic_normal(WAVE, [0, 0])
    with pytest.raises(ValueError):
        is_characteristic_normal(WAVE, [1])
    with pytest.raises(ValueError, match="zero polynomial has no principal part"):
        is_characteristic_normal(MultiPoly.zero(2), [1, 0])


def test_degree_test_iff_time_normal_not_characteristic():
    rng = random.Random(31)
    for _ in range(100):
        p = random_multipoly(rng, 3, max_deg=3)
        if p.is_zero():
            continue
        n = [Fraction(0)] * 2 + [Fraction(1)]
        assert degree_test(p) == (not is_characteristic_normal(p, n))


def test_x_content():
    c = x_content(DIFFUSION)
    assert c.dimension == 3
    assert c.generators == (MultiPoly(3, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1}),
                            MultiPoly.constant(3, 1))
    # X1*X2*T: the zero a_0 is not built, and its power is kept with a_1
    c2 = x_content(MIXED)
    assert c2.generators == (MultiPoly(2, {(1, 1): 1}),)
    assert t_coefficients(MIXED) == ((1, MultiPoly(2, {(1, 1): 1})),)
    assert x_content(MultiPoly.zero(3)).generators == ()
    assert t_coefficients(MultiPoly.zero(3)) == ()
    # the pairs rebuild p, each a_j nonzero and the powers increasing
    rng = random.Random(7)
    t = MultiPoly.variable(3, 2)
    for _ in range(100):
        p = random_multipoly(rng, 3, max_deg=4)
        pairs = t_coefficients(p)
        assert [j for j, _ in pairs] == sorted({e[-1] for e in p.terms})
        assert all(not a.is_zero() for _, a in pairs)
        assert x_content(p).generators == tuple(a for _, a in pairs)
        lifted = (MultiPoly(3, {e + (0,): c for e, c in a.terms.items()}) * t ** j
                  for j, a in pairs)
        assert MultiPoly.sum_of(3, lifted) == p


def test_imaginary_slice_splits_real_and_imaginary_parts():
    # X1^2 + X2^2 + 1 -> real part 1 - xi1^2 - xi2^2, no imaginary part
    a = MultiPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    assert at_i_xi(a) == MultiPoly(2, {(2, 0): -1, (0, 2): -1, (0, 0): 1})
    assert imaginary_slice(ContentGenerators(2, (a,))).polys == (
        MultiPoly(2, {(2, 0): -1, (0, 2): -1, (0, 0): 1}),)
    # X1 + i -> i*xi1 + i: no real part, imaginary part xi1 + 1
    b = MultiPoly(1, {(1,): 1, (0,): GaussianRational(0, 1)})
    assert at_i_xi(b) == MultiPoly(1, {(1,): (0, 1), (0,): (0, 1)})
    assert imaginary_slice(ContentGenerators(1, (b,))).polys == (MultiPoly(1, {(1,): 1, (0,): 1}),)


def test_real_poly_system_terms_and_non_real_rejection():
    sys = RealPolySystem(1, (MultiPoly(1, {(1,): Fraction(1, 2), (0,): -3}),))
    assert sys.terms == ({(1,): 1, (0,): -6},)
    with pytest.raises(ValueError, match="non-real"):
        RealPolySystem(1, (MultiPoly(1, {(1,): 1, (0,): GaussianRational(0, 1)}),))


def test_real_poly_system_terms_are_one_common_integer_multiple():
    # Every polynomial times the same L, the lcm of all denominators in the
    # system: the ratios between the polynomials are kept.
    sys = RealPolySystem(2, (MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 3)}),
                             MultiPoly(2, {(0, 2): Fraction(1, 5)})))
    assert sys.terms == ({(1, 0): 15, (0, 0): -10}, {(0, 2): 6})
    rng = random.Random(59)
    for _ in range(100):
        d = rng.randint(1, 3)
        polys = tuple(random_multipoly(rng, d, complex_coeffs=False)
                      for _ in range(rng.randint(0, 3)))
        lcm = math.lcm(*(c.denominator for p in polys for c in p.real_terms().values()))
        terms = RealPolySystem(d, polys).terms
        assert terms == tuple(integer_terms(p.real_terms(), lcm) for p in polys)
        assert all(type(c) is int for p in terms for c in p.values())


def test_imaginary_slice_dedup():
    # a0 and a1 equal after substitution, or equal up to a nonzero constant
    # factor of either sign -> one system poly, the first
    for text, first in (("(X1^2+X2^2+1)*(T+1)", 1), ("(X1^2+X2^2+1)*(T+2)", 2),
                        ("(X1^2+X2^2+1)*(T-3/2)", Fraction(-3, 2))):
        sys = imaginary_slice(x_content(parse(text)[0]))
        assert sys.dimension == 2
        assert sys.polys == (MultiPoly(2, {(2, 0): -first, (0, 2): -first, (0, 0): first}),)


def test_pi_graded_slice_merges_proportional_grades(monkeypatch):
    # a0 = 2*a1: the grades of a0 are twice those of a1, so the slice is the
    # one pi^2 grade 100 - 4*|v|^2 and no Groebner test runs; the evidence
    # is that of the two-copy system
    p = parse("(X1^2+X2^2+100*PI^2)*(T+2)", dim=2, allow_pi=True)[0]
    assert pi_graded_slice(x_content(p)).terms == ({(2, 0): -8, (0, 2): -8, (0, 0): 200},)
    calls = []
    monkeypatch.setattr(nullsol.classifier, "unit_ideal_test", lambda *args: calls.append(args))
    for rows, point, radius in (([[1, 0], [0, 1]], [4, 3], 11), ([[2, 1], [1, 1]], [2, -1], 33),
                                ([[Fraction(1, 2), 0], [1, 3]], [2, -5], 44)):
        v = periodic_test(p, LatticeSpec.from_rows(rows))
        assert (v.status, v.evidence) == (
            NONTRIVIAL, {"complete_radius": radius, "lattice_point": point})
    assert calls == []


def test_slice_zero_correspondence_random():
    # xi is a common zero of the slice system iff every generator
    # vanishes at i*xi, by direct Gaussian-rational evaluation
    rng = random.Random(37)
    for _ in range(100):
        p = random_multipoly(rng, 3, max_deg=3)
        content = x_content(p)
        sys = imaginary_slice(content)
        xi = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        point = [GaussianRational(0, x) for x in xi]
        gen_zero = all(evaluate(a, point).is_zero() for a in content.generators)
        sys_zero = all(evaluate(q, [Fraction(x) for x in xi]).is_zero()
                       for q in sys.polys)
        assert gen_zero == sys_zero


def test_pi_grades_sum_to_the_symbol():
    # a(2i*s*v, s) and sum_g s^g * P_g(v) are polynomials in s of degree
    # <= deg a; agreeing at deg a + 1 distinct s proves them equal at v
    rng = random.Random(43)
    for _ in range(100):
        a = random_multipoly(rng, 3, max_deg=4)  # slots X1, X2, PI
        v = [random_rational(rng, 4) for _ in range(2)]
        grades = pi_grades(a)
        deg = max(map(sum, a.terms), default=0)
        for s in range(1, deg + 2):
            point = [GaussianRational(0, 2 * s * x) for x in v] + [GaussianRational(s)]
            graded = sum((s ** g * evaluate(q, v) for g, q in enumerate(grades)), ZERO)
            assert evaluate(a, point) == graded


def test_invariants_under_scalar_multiple():
    rng = random.Random(41)
    for _ in range(50):
        p = random_multipoly(rng, 3, max_deg=3)
        if p.is_zero():
            continue
        lam = GaussianRational(Fraction(rng.randint(1, 5)), Fraction(rng.randint(0, 3)))
        q = p * MultiPoly.constant(3, lam)
        assert degree_test(p) == degree_test(q)
        n = random_point(rng, 3, height=3, complex_coeffs=False)
        vec = [x.re for x in n]
        if all(v == 0 for v in vec):
            continue
        assert is_characteristic_normal(p, vec) == is_characteristic_normal(q, vec)


@pytest.mark.parametrize("text", ["X1^2*T + 1", "T - X1", "(X1^2+X2^2+1)*(T+1)"])
def test_slice_terms_are_exact(text):
    # The solver reads ints only: the system is cleared to them once, and
    # Fraction coefficients give the same ints and the same decision.
    sys = imaginary_slice(x_content(parse(text)[0]))
    assert sys.terms
    assert all(type(c) is int for terms in sys.terms for c in terms.values())
    as_fractions = RealPolySystem(sys.dimension, tuple(
        MultiPoly(sys.dimension, {e: Fraction(c) for e, c in terms.items()})
        for terms in sys.terms))
    assert as_fractions.terms == sys.terms
    assert all(type(c) is int for terms in as_fractions.terms for c in terms.values())
    assert decide_emptiness(as_fractions) == decide_emptiness(sys)


def _reference_at_i_xi(a):
    return MultiPoly(a.nvars, {e: pair(c) * I ** sum(e) for e, c in a.terms.items()})


def _proportional(p, q):
    """True iff the real polynomials p and q are equal up to a nonzero factor."""
    return p.terms.keys() == q.terms.keys() and len(
        {c[0] / q.terms[e][0] for e, c in p.terms.items()}) == 1


def _reference_slice(dimension, polys):
    """Real and imaginary parts of each polynomial, in order, zero parts and
    duplicates up to a nonzero constant factor dropped (the first kept)."""
    kept = []
    for q in polys:
        for k in (0, 1):
            part = MultiPoly(dimension, {e: pair(c)[k] for e, c in q.terms.items()})
            if not part.is_zero() and not any(_proportional(part, r) for r in kept):
                kept.append(part)
    return tuple(kept)


def _reference_pi_grades(a):
    dim = a.nvars - 1
    grades = [{} for _ in range(max(map(sum, a.terms), default=-1) + 1)]
    for exps, c in a.terms.items():
        grades[sum(exps)][exps[:dim]] = pair(c) * GaussianRational(0, 2) ** sum(exps[:dim])
    return [MultiPoly(dim, terms) for terms in grades]


def test_rotation_tables_match_ring_powers():
    # c * i^|e| and c * (2i)^|e| by GaussianRational arithmetic are the reference
    rng = random.Random(47)
    polys = [random_multipoly(rng, 3, max_deg=7, max_terms=8) for _ in range(200)]
    polys += x_content(parse("(3/2 - 5*i)*X1^3*X2^2 + i*X1*PI^2 + 7*X2^4*PI - 2", dim=2,
                             allow_pi=True)[0]).generators
    for a in polys:
        rotated, grades = _reference_at_i_xi(a), _reference_pi_grades(a)
        assert at_i_xi(a) == rotated
        assert pi_grades(a) == grades
        content = ContentGenerators(a.nvars, (a,))
        for result, dim, reference in ((imaginary_slice(content), a.nvars, [rotated]),
                                       (pi_graded_slice(content), a.nvars - 1, grades)):
            assert result.polys == _reference_slice(dim, reference)
            # the slice clears its parts in the same pass; the constructor agrees
            assert result.terms == RealPolySystem(dim, result.polys).terms
