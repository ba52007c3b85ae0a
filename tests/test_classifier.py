import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import nullsol.classifier
import nullsol.variety
from nullsol.classifier import (
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    LatticeSpec,
    SolutionSpace,
    classify,
    periodic_test,
)
from nullsol.config import SolverConfig
from nullsol.multipoly import MultiPoly
from nullsol.parser import MAX_DIM, parse
from nullsol.symbols import pi_graded_slice, x_content
from nullsol.variety import boundedness_radius

from helpers import GaussianRational, lattice_shell, lattice_zeros, random_multipoly

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
    assert all(x == (0, 0) for x in w.certificate)


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
        q = p * MultiPoly.constant(p.nvars, lam)
        for s in spaces:
            assert classify(p, s).status == classify(q, s).status


def test_tempered_unknown_is_undecided():
    # the README example: the presolve leaves a multiple of 5*xi^2 - 4, whose
    # zeros are irrational, and subdivision of the radius-2 cube hits its depth cap
    v = classify(parse("X1^2+X2^2-4*X1-2*X2+1")[0], SolutionSpace.SPATIALLY_TEMPERED)
    assert v.status == UNKNOWN and v.witness is None
    assert v.rule == "content-variety-undecided"
    diagnostics = v.evidence["emptiness"].diagnostics
    assert diagnostics["reason"] == "depth-cap"
    assert diagnostics["radius"] == "2"


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


def test_lattice_dimension_limit_before_the_inverse(monkeypatch):
    def identity(d):
        return [[int(i == j) for j in range(d)] for i in range(d)]

    assert LatticeSpec.from_rows(identity(MAX_DIM)).dimension == MAX_DIM

    def no_inverse(rows):
        raise AssertionError("inverse computed")

    monkeypatch.setattr(nullsol.classifier, "_gauss_jordan_inverse", no_inverse)
    with pytest.raises(ValueError, match="at most 32"):
        LatticeSpec.from_rows(identity(MAX_DIM + 1))


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
            assert list(lattice_shell(dim, radius)) == expected


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


def test_periodic_unit_ideal_in_d2():
    # the grades 2*i*v1 and 1 - 4*v1*v2 share no complex zero: the
    # Groebner basis is {1}, and no search runs
    v = periodic("X1*X2*T + X1*T + PI^2*T", [[1, 0], [0, 1]])
    assert (v.status, v.rule) == (TRIVIAL, "content-variety-empty")
    assert v.evidence == {"groebner_unit": True}


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


def test_periodic_unbounded_search_stops_at_box_budget():
    # the hyperbola's zero set crosses the whole cube, so a huge radius
    # would keep the search splitting; the box budget ends it as UNKNOWN
    p, _ = parse("(X1^2 - X2^2 + PI^2)*T", dim=2, allow_pi=True)
    lat = LatticeSpec.from_rows([[1, 0], [0, 1]])
    v = periodic_test(p, lat, SolverConfig(lattice_radius=100_000))
    assert v.status == UNKNOWN
    assert v.rule == "lattice-search-exhausted"
    assert v.evidence == {"reason": "box-budget"}


def test_periodic_decisive_trivial_with_complete_enumeration():
    # the pi^2 grade 3 - 4*|v|^2 has bounded zeros on the circle |v|^2 = 3/4:
    # no integer k reaches it, and the bound makes that a proof
    v = periodic("(X1^2 + X2^2 + 3*PI^2)*T", [[1, 0], [0, 1]])
    assert v.status == TRIVIAL
    assert v.rule == "lattice-resonance-free"
    assert v.evidence == {"complete_radius": 2, "searched_radius": 2}


def test_periodic_d1_trivial_from_the_rational_roots():
    # in d = 1 the pi^2 grade 9 - 4*v^2 is its own gcd, with the roots
    # v = +-3/2, which no integer k reaches: no search runs
    v = periodic("(X1^2 + 9*PI^2)*T", [[1]])
    assert (v.status, v.rule) == (TRIVIAL, "lattice-resonance-free")
    assert v.evidence == {"gcd": ["4", "0", "-9"], "rational_roots": ["-3/2", "3/2"]}
    v = periodic("(X1^2 + 9*PI^2)*T", [[2]])
    assert (v.status, v.rule) == (NONTRIVIAL, "lattice-resonance")
    assert v.evidence == {"gcd": ["4", "0", "-9"], "rational_roots": ["-3/2", "3/2"],
                          "lattice_point": [3]}


def test_periodic_wrong_slot_count_rejected():
    lat = LatticeSpec.from_rows([[1]])
    p, _ = parse("T - X1^2", dim=1)  # no PI slot
    with pytest.raises(ValueError):
        periodic_test(p, lat)


@pytest.mark.parametrize("text, rows, status, evidence", [
    ("(X1^2+X2^2+30003*PI^2)*T", [[1, 0], [0, 1]], TRIVIAL,
     {"complete_radius": 179, "searched_radius": 179}),
    ("(X1^2+X2^2+X3^2+1203*PI^2)*T", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], TRIVIAL,
     {"complete_radius": 44, "searched_radius": 44}),
    ("(X1^2+X2^2+X3^2+1160*PI^2)*T", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], NONTRIVIAL,
     {"complete_radius": 43, "lattice_point": [12, 11, 5]}),
])
def test_periodic_large_complete_radius(text, rows, status, evidence):
    # complete radii far outside the zero sphere: the search must follow
    # the sphere, not pay for the (2R+1)^d cube
    v = periodic(text, rows)
    assert (v.status, v.evidence) == (status, evidence)


def _record_calls(monkeypatch, name):
    """The argument tuples of every call to ``nullsol.classifier.<name>``."""
    calls, real = [], getattr(nullsol.classifier, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nullsol.classifier, name, recorded)
    return calls


def test_periodic_whole_fibre_resonates():
    # the pi^2 grade 4 - 4*v1^2 vanishes on the whole fibre k1 = 1 of the
    # identity lattice: no gcd solves it, so it is split along k2 down to
    # the first point in shell order; on 2,1;0,1 it is the line
    # k1 - k2 = 2, met by each fibre at one root
    assert periodic("(X1^2+4*PI^2)*T", [[1, 0], [0, 1]]).evidence == {"lattice_point": [1, 1]}
    assert periodic("(X1^2+4*PI^2)*T", [[2, 1], [0, 1]]).evidence == {"lattice_point": [1, -1]}


@pytest.mark.parametrize("text, rows, most", [
    # a resonance at the origin: the fibre k1 = 0 is split off and solved
    # first (the search over both axes took 22 enclosures)
    ("X1*X2*T - X1*X2", [[1, 1], [-1, 1]], 6),
    # every fibre (k1, k2) inside the projected ball is solved once, and
    # k3 is never enclosed bit by bit (the search over all axes took 8,997)
    ("(X1^2+X2^2+X3^2+1203*PI^2)*T", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2_000),
])
def test_periodic_fibres_cut_the_enclosures(monkeypatch, text, rows, most):
    calls = _record_calls(monkeypatch, "enclose")
    periodic(text, rows)
    assert len(calls) <= most


def test_periodic_fibre_past_the_gcd_bound_is_solved_once(monkeypatch):
    # the pi^10 grade is a multiple of c*(4*v2^2 - 1)*(v2^8 + 3), c = 3^600,
    # whose work is past _STURM_LIMIT, and the pi grade 2*(v1 + v2) tells
    # the fibres k1 = -16..16 apart: each gives up once and is split along
    # k2, never solved again
    calls = _record_calls(monkeypatch, "gcd_real_roots")
    v = periodic(f"{3 ** 600}*(X2^10 + X2^8*PI^2 + 768*X2^2*PI^8 + 768*PI^10)*T"
                 " + (X1 + X2)*T^2", [[1, 0], [0, 1]])
    assert (v.status, v.rule) == (UNKNOWN, "lattice-search-exhausted")
    assert v.evidence == {"searched_radius": 16, "reason": "lattice-truncated"}
    fibres = [tuple(tuple(sorted(terms.items())) for terms in args[0]) for args in calls]
    assert len(fibres) == len(set(fibres)) == 33
    assert all(nullsol.variety._univariate_gcd(args[0]) is None for args in calls)


def test_periodic_fibre_queues_only_integer_roots(monkeypatch):
    # v1^2 + 4*v2^2 = 50 meets the fibres k1 = +-1, +-5, +-7 at k2 = +-7/2,
    # +-5/2, +-1/2 and holds no lattice point, so no point is ever checked
    calls = _record_calls(monkeypatch, "enclose")
    v = periodic("(X1^2 + 4*X2^2 + 200*PI^2)*T", [[1, 0], [0, 1]])
    assert (v.status, v.rule) == (TRIVIAL, "lattice-resonance-free")
    assert not [image for _, (_, image) in calls if all(a == b for a, b in image)]


def test_periodic_fibre_roots_stay_inside_the_radius():
    # v1*v2 = 5 is unbounded, and its only lattice points are +-(1, 5) and
    # +-(5, 1): at radius 3 the fibre k1 = 1 is solved, but its root k2 = 5
    # lies outside the searched cube and must not be reported
    p, _ = parse("(X1*X2 + 20*PI^2)*T", dim=2, allow_pi=True)
    lat = LatticeSpec.from_rows([[1, 0], [0, 1]])
    v = periodic_test(p, lat, SolverConfig(lattice_radius=3))
    assert (v.status, v.evidence) == (UNKNOWN, {"searched_radius": 3, "reason": "lattice-truncated"})
    v = periodic_test(p, lat, SolverConfig(lattice_radius=5))
    assert (v.status, v.evidence) == (NONTRIVIAL, {"lattice_point": [5, 1]})


_D1_LATTICES = tuple(map(Fraction, (1, -1, 2, -2, Fraction(3, 2), Fraction(-4, 3))))


def _resonance_test(p: MultiPoly):
    """Whether every T-coefficient of a d = 1 periodic symbol vanishes at
    X1 = 2*pi*i*v, PI = pi, as a function of v: a term c * X1^e * PI^m * T^j
    adds c * (2i)^e * v^e to the sum of its (j, e + m), and each sum must be
    0 in both parts."""
    sums: dict = {}
    for (e, m, j), (re, im) in p.terms.items():
        re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[e % 4]
        sums.setdefault((j, e + m), []).append((e, re * 2 ** e, im * 2 ** e))
    return lambda v: all(not sum(re * v ** e for e, re, _ in terms)
                         and not sum(im * v ** e for e, _, im in terms)
                         for terms in sums.values())


def _random_d1_case(rng: random.Random, a: Fraction) -> tuple[str, set, list]:
    """A d = 1 periodic symbol F*G1*T + F*G2 (or F*G1*T) for the period
    ``a``, the rational roots planted in the common factor F, and the shapes
    drawn.  X1 - 2*i*r*PI vanishes at the frequency 2*pi*r, X1^2 + 4*s*PI^2
    at v^2 = s; G1, G2 are such linear factors with distinct roots, and G2
    may carry a constant, which puts F alone in a second pi-grade."""
    roots, quadratics, shapes = set(), [], []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            roots.add(rng.randint(-4, 4) / a)
            shapes.append("on-lattice")
        else:
            roots.add(Fraction(rng.choice((-9, -8, -6, -4, -3, -1, 1, 2, 3, 4, 6, 8, 9)),
                               rng.choice((5, 7))))
            shapes.append("off-lattice")
    if rng.random() < 0.2:
        roots.add(Fraction(0))
    if rng.random() < 0.2:
        k = rng.randint(1, 3)
        roots |= {k / a, -k / a}
    for _ in range(rng.randint(0, 2)):
        quadratics.append(rng.choice((2, 3, Fraction(5, 4), 6, -1, -3, Fraction(-9, 4))))
        shapes.append("irrational" if quadratics[-1] > 0 else "no-real")
    shapes += ["zero-root"] * (0 in roots) + ["tie"] * any(r and -r in roots for r in roots)

    def linear(r):
        return f"(X1 - 2*i*({r.numerator}/{r.denominator})*PI)"

    common = [linear(r) for r in sorted(roots)]
    common += [f"(X1^2 + 4*({Fraction(q).numerator}/{Fraction(q).denominator})*PI^2)"
               for q in quadratics]
    if rng.random() < 0.1:  # no common factor: the gcd is constant
        roots, common, shapes = set(), [], []
    g1, g2 = (linear(Fraction(n, rng.choice((1, 5, 7))))
              for n in rng.sample(range(-8, 9), 2))
    if common and rng.random() < 0.3:
        g2 = g2[:-1] + f" + {rng.randint(1, 5)})"
    text = "*".join(common + [g1]) + "*T"
    if rng.random() < 0.8:
        text += " + " + "*".join(common + [g2])
    return text, roots, shapes


def test_periodic_d1_exact_path_matches_brute_force_enumeration():
    # every root of a linear factor has |v| <= 8, so |k| = |a*v| <= 16: the
    # enumeration over |k| <= 20 meets every resonance
    rng = random.Random(20261019)
    seen = Counter()
    for a in _D1_LATTICES * 40:
        text, planted, shapes = _random_d1_case(rng, a)
        p, _ = parse(text, dim=1, allow_pi=True)
        v = periodic_test(p, LatticeSpec.from_rows([[a]]))
        resonates = _resonance_test(p)
        hits = [k for k in range(-20, 21) if resonates(k / a)]
        if hits:
            k = min(hits, key=lambda k: (abs(k), -k))
            assert (v.status, v.rule, v.evidence["lattice_point"]) == \
                (NONTRIVIAL, "lattice-resonance", [k]), text
            assert v.witness.frequency == (k / a,)
        else:
            assert v.status == TRIVIAL, text
        if v.rule.startswith("lattice-"):
            assert set(v.evidence) - {"lattice_point"} == {"gcd", "rational_roots"}
            roots = [Fraction(r) for r in v.evidence["rational_roots"]]
            assert roots == sorted(set(roots)) and planted <= set(roots), text
            assert all(map(resonates, roots)), text
        else:
            # a constant gcd: no Groebner basis runs in d = 1
            assert v.rule == "content-variety-empty", text
            assert v.evidence == {"gcd": ["1"], "rational_roots": []}, text
        seen[v.rule] += 1
        seen.update(shapes)
    assert min(seen[key] for key in ("on-lattice", "off-lattice", "irrational", "no-real",
                                     "zero-root", "tie", "content-variety-empty",
                                     "lattice-resonance", "lattice-resonance-free")) >= 20, seen


def test_periodic_d1_past_the_isolation_bound():
    # each gcd is past the isolation bound, so its roots are not isolated;
    # past _STURM_LIMIT (degree None) no gcd is taken at all
    for text, degree, status, evidence in [
            # the pi^2 grade -4*(v^2 - 9^1000), with two real roots +-3^1000:
            # a quadratic gets them exactly from the integer square root of
            # its discriminant
            (f"(X1^2 + 4*({9 ** 1000})*PI^2)*T", 2, NONTRIVIAL,
             {"gcd": ["1", "0", str(-9 ** 1000)],
              "rational_roots": [str(-3 ** 1000), str(3 ** 1000)],
              "lattice_point": [3 ** 1000]}),
            # no real root: a negative discriminant is the proof
            (f"(X1^2 + 4*({-9 ** 1000})*PI^2)*T", 2, TRIVIAL,
             {"gcd": ["1", "0", str(9 ** 1000)], "rational_roots": []}),
            # the pi^3 grade of a cubic has a real root, which is only
            # counted: the search runs as in d >= 2; no radius fits the
            # 2^40 cap, so it stops at --lattice-radius
            (f"(X1^3 + 8*i*({2 * 27 ** 700})*PI^3)*T", 3, UNKNOWN,
             {"reason": "lattice-truncated", "searched_radius": 16}),
            # the pi^4 grade 16*(v^4 + 7^1200): a Sturm count of 0 is the proof
            (f"(X1^4 + 16*({7 ** 1200})*PI^4)*T", 4, TRIVIAL,
             {"gcd": ["1", "0", "0", "0", str(7 ** 1200)], "rational_roots": []}),
            # the pi^9 grade i*(512*v^9 + 3^700) has work 10^2 * (4 + 1,110)
            # = 111,400: the search runs and stops as for the cubic
            (f"(X1^9 + {3 ** 700}*i*PI^9)*T", None, UNKNOWN,
             {"reason": "lattice-truncated", "searched_radius": 16})]:
        p, _ = parse(text, dim=1, allow_pi=True)
        system = pi_graded_slice(x_content(p))
        g = nullsol.variety._univariate_gcd(system.terms)
        if degree is None:
            assert g is None
        else:
            assert nullsol.variety._work(g) > nullsol.variety._RESULTANT_LIMIT
            assert len(g) == degree + 1
        start = time.perf_counter()
        v = periodic_test(p, LatticeSpec.from_rows([[1]]))
        assert time.perf_counter() - start < 1.0
        assert (v.status, v.evidence) == (status, evidence)


def _random_periodic_case(rng: random.Random) -> tuple[str, list]:
    """A pi-quadric through the lattice frequency of some small k0 (or moved
    off it), sometimes with a linear form, on a well-conditioned rational
    lattice with off-diagonal and non-integer entries."""
    d = rng.randint(1, 3)
    while True:
        rows = [[Fraction(rng.choice((0, 0, 0, -2, -1, 1, 2, 3) if i != j
                                     else (-4, -3, -2, 2, 3, 4)), 2) for j in range(d)]
                for i in range(d)]
        try:
            lat = LatticeSpec.from_rows(rows)
        except ValueError:
            continue
        if lat.max_row_abs_sum() * max(sum(map(abs, row)) for row in lat.inverse()) <= 4:
            break
    v0 = lat.frequency_vector(tuple(rng.randint(-1, 1) for _ in range(d)))
    weights = [rng.randint(1, 3) for _ in range(d)]
    if rng.random() < 0.2:
        weights[rng.randrange(d)] *= -1  # indefinite: the zeros may be unbounded
    # X -> 2*pi*i*v: the pi^2 grade is c - 4*sum(w*v^2), zero at v0
    c = 4 * sum(w * x * x for w, x in zip(weights, v0))
    if rng.random() < 0.4:
        c += Fraction(rng.randint(1, 3), rng.randint(1, 4))
    text = ("(" + " + ".join(f"{w}*X{j + 1}^2" for j, w in enumerate(weights))
            + f" + ({c.numerator}/{c.denominator})*PI^2)*T")
    if rng.random() < 0.5:
        # the pi grade of u.X + i*b*PI is i*(2*u.v + b), zero at v0 for this b
        u = [rng.randint(-2, 2) for _ in range(d)]
        b = Fraction(-2 * sum(a * x for a, x in zip(u, v0)))
        if rng.random() < 0.5:
            b += Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        text += (" + (" + " + ".join(f"{a}*X{j + 1}" for j, a in enumerate(u))
                 + f" + i*({b.numerator}/{b.denominator})*PI)*T^2")
    return text, rows


def _first_hit_of_reference_shells(p, lattice, config):
    """Status and evidence of the periodic search: the first lattice zero in
    the reference shell order, found on the nearest shell holding one."""
    system = pi_graded_slice(x_content(p))
    r0 = boundedness_radius(system)
    evidence = {}
    radius = config.lattice_radius
    if r0 is not None:
        radius = int(lattice.max_row_abs_sum() * r0)
        evidence["complete_radius"] = radius
    zeros = lattice_zeros(system, lattice, radius)
    if zeros:
        nearest = min(max(map(abs, k)) for k in zeros)
        hit = next(k for k in lattice_shell(lattice.dimension, nearest) if k in zeros)
        evidence["lattice_point"] = list(hit)
        return NONTRIVIAL, evidence
    evidence["searched_radius"] = radius
    if r0 is None:
        evidence["reason"] = "lattice-truncated"
        return UNKNOWN, evidence
    return TRIVIAL, evidence


def test_periodic_search_matches_first_hit_of_reference_shells():
    rng = random.Random(20261018)
    config = SolverConfig(lattice_radius=3)
    statuses, shapes = Counter(), Counter()
    while sum(statuses.values()) < 200:
        text, rows = _random_periodic_case(rng)
        lat = LatticeSpec.from_rows(rows)
        p, _ = parse(text, dim=lat.dimension, allow_pi=True)
        v = periodic_test(p, lat, config)
        if not v.rule.startswith("lattice-"):
            continue  # decided before the search, e.g. by a unit ideal
        status, evidence = _first_hit_of_reference_shells(p, lat, config)
        if lat.dimension == 1:
            # d = 1 is decided from the roots of the gcd, with its own evidence
            assert (v.status, v.evidence.get("lattice_point")) == \
                (status, evidence.get("lattice_point")), (text, rows)
        else:
            assert (v.status, v.evidence) == (status, evidence), (text, rows)
        if v.status == NONTRIVIAL:
            k = tuple(v.evidence["lattice_point"])
            assert tuple(v.witness.frequency) == lat.frequency_vector(k)
        statuses[v.status] += 1
        shapes[lat.dimension] += 1
        shapes["off-diagonal"] += any(x for i, row in enumerate(rows)
                                      for j, x in enumerate(row) if i != j)
        shapes["non-integer"] += any(x.denominator > 1 for row in rows for x in row)
    assert min(statuses[s] for s in (NONTRIVIAL, TRIVIAL, UNKNOWN)) >= 10, statuses
    assert min(shapes[key] for key in (1, 2, 3, "off-diagonal", "non-integer")) >= 40, shapes
