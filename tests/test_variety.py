import dataclasses
import functools
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from nullsol.config import DEFAULT_CONFIG
from nullsol.groebner import unit_ideal_test
from nullsol.intervals import cube
from nullsol.multipoly import MultiPoly
from nullsol.symbols import RealPolySystem
import nullsol.variety
from nullsol.variety import (
    EMPTY,
    NONEMPTY,
    UNKNOWN,
    _branch_and_bound,
    _simplest_rational,
    add_multiple,
    boundedness_radius,
    decide_emptiness,
    subdivision_search,
)

from helpers import (
    exact_common_zero,
    integer_terms,
    random_multipoly,
    random_rational,
    reference_resultant,
    substitute_value,
)
from test_acceptance import SUITE_CONFIG, generate_suite

CIRCLE = MultiPoly(2, {(2, 0): -1, (0, 2): -1, (0, 0): 1})   # 1 - x^2 - y^2
POSDEF = MultiPoly(1, {(2,): 1, (0,): 1})                    # x^2 + 1
HYPERBOLA_AXES = MultiPoly(2, {(1, 1): 1})                   # x*y


def sys_of(*polys):
    return RealPolySystem(polys[0].nvars, tuple(polys))


def test_boundedness_circle():
    r0 = boundedness_radius(sys_of(CIRCLE))
    assert r0 is not None and r0 >= 1
    # all zeros lie on the unit circle, safely inside the certified cube
    assert r0 >= Fraction(1)


def test_boundedness_unbounded_zero_set():
    assert boundedness_radius(sys_of(HYPERBOLA_AXES)) is None


def test_boundedness_posdef():
    r0 = boundedness_radius(sys_of(POSDEF))
    assert r0 is not None


def test_boundedness_rejects_constant_system():
    with pytest.raises(ValueError):
        boundedness_radius(sys_of(MultiPoly.constant(1, 2)))


X1 = MultiPoly.variable(1, 0)
X2, Y2 = (MultiPoly.variable(2, k) for k in range(2))
X3, Y3, Z3 = (MultiPoly.variable(3, k) for k in range(3))


def const(d, c):
    return MultiPoly.constant(d, c)


@pytest.fixture
def enclose_calls(monkeypatch):
    """The boxes of every ``enclose`` call the solver makes, in order."""
    calls = []
    original = nullsol.variety.enclose

    def counting(terms, box):
        calls.append(box)
        return original(terms, box)

    monkeypatch.setattr(nullsol.variety, "enclose", counting)
    return calls


HYPERBOLOID = X3 * X3 + Y3 * Y3 - const(3, 3) * Z3 * Z3 + const(3, 1)


# The enclose counts pin the wave loop: a new enclosure kernel must give the
# same include/exclude decisions, hence the same number of calls.
@pytest.mark.parametrize("polys, radius, calls", [
    # d = 1: the one face searched, x = 1, is a single point
    ((X1 * X1 + const(1, 1),), 2, 1),
    ((X1 * X1 - const(1, 4),), 4, 1),
    ((X1 ** 3 - X1 + const(1, 5),), 3, 1),
    ((const(1, 2) * X1 ** 4 - const(1, 3) * X1 + const(1, Fraction(1, 2)),), 2, 1),
    # d = 2
    ((X2 * X2 + Y2 * Y2 - const(2, 1),), 3, 2),
    (((X2 - const(2, 2)) ** 2 + (Y2 + const(2, 1)) ** 2 - const(2, 1),), 27, 2),
    ((X2 * Y2 - const(2, 1), X2 * X2 - Y2 * Y2), 6, 14),
    # d = 3
    ((X3 * X3 + Y3 * Y3 + Z3 * Z3 - const(3, 1),), 3, 3),
    ((X3 * X3 + const(3, 2) * Y3 * Y3 + const(3, 3) * Z3 * Z3 - const(3, 6),), 9, 3),
    # the top form (x*y)^2 vanishes on the faces: no radius
    ((X2 * Y2 - const(2, 1),), None, 1),
    # the top form vanishes on irrational face points only: the face search
    # runs to its depth cap
    ((HYPERBOLOID,), None, 3919),
], ids=["x2+1", "x2-4", "x3-x+5", "2x4-3x+1/2", "circle", "shifted-circle",
        "xy-1,x2-y2", "sphere", "ellipsoid", "xy-1", "hyperboloid"])
def test_boundedness_radius_values(enclose_calls, polys, radius, calls):
    r0 = boundedness_radius(sys_of(*polys))
    assert r0 == (None if radius is None else Fraction(radius))
    assert len(enclose_calls) == calls


@pytest.mark.parametrize("k, radius", [(30, 2_592_242_074), (50, None)])
def test_boundedness_radius_cap(k, radius):
    # x^2 - 2^k x: the zero 2^k is bounded, but past the 1 << 40 cap on the
    # radius search no radius is given
    assert boundedness_radius(sys_of(X1 * X1 - const(1, 2 ** k) * X1)) == radius


def test_boundedness_stops_at_exact_face_zero(enclose_calls):
    # (xyz)^2 vanishes at the centre of the face x = 1: the first probe ends it
    assert boundedness_radius(sys_of(X3 * Y3 * Z3 - const(3, 1))) is None
    assert len(enclose_calls) <= 10


def _random_top_form(rng, dim):
    """The top form of a random sum of squares: forms of one degree, squared,
    cleared to integers."""
    deg = rng.randint(1, 2)
    monomials = [e for e in itertools.product(range(deg + 1), repeat=dim)
                 if sum(e) == deg]
    top: dict = {}
    for _ in range(rng.randint(1, 3)):
        form = {e: random_rational(rng, 4) for e in rng.sample(
            monomials, rng.randint(1, len(monomials)))}
        form = {e: c for e, c in form.items() if c}
        for e, c in form.items():
            add_multiple(top, form, e, c)
    return integer_terms({e: c for e, c in top.items() if c})


def test_pinned_face_equals_substituted_face(enclose_calls):
    # A pinned coordinate drops out of the enclosure exactly as substitution
    # drops it from the form, and x_i = -1 mirrors x_i = 1 on an even form.
    rng = random.Random(8)
    checked = 0
    while checked < 200:
        dim = rng.randint(1, 3)
        top = _random_top_form(rng, dim)
        if not top:
            continue
        checked += 1
        axis = rng.randrange(dim)
        results = []
        for box, terms in [
                (cube(dim - 1, 1), integer_terms(substitute_value(top, axis, Fraction(1)))),
                (cube(axis, 1) + ((Fraction(1), Fraction(1)),)
                 + cube(dim - axis - 1, 1), top),
                (cube(axis, 1) + ((Fraction(-1), Fraction(-1)),)
                 + cube(dim - axis - 1, 1), top)]:
            enclose_calls.clear()
            r = _branch_and_bound([terms], box, nullsol.variety._SPHERE_DEPTH)
            results.append((r.kind, r.margin, r.stats, len(enclose_calls)))
        assert results[0] == results[1] == results[2], (top, axis)



def _fraction_radius(sys):
    """The radius with F = sum p^2 built on Fraction term dicts, as before the
    integer form: the reference for :func:`boundedness_radius`."""
    terms: dict = {}
    for p in sys.terms:
        for e, c in p.items():
            add_multiple(terms, p, e, c)
    deg = max(sum(e) for e in terms)
    top = {e: c for e, c in terms.items() if sum(e) == deg}
    lower_weight: dict = {}
    for e, c in terms.items():
        if sum(e) < deg:
            lower_weight[sum(e)] = lower_weight.get(sum(e), Fraction(0)) + abs(c)
    c = nullsol.variety._certify_positive_on_faces(top, sys.dimension)
    if c is None:
        return None
    r = 1
    while c * r ** deg <= sum(w * r ** j for j, w in lower_weight.items()):
        r += 1
        if r > 1 << 40:
            return None
    return Fraction(r)


def _random_bounded_poly(rng, dim):
    """A nonconstant random polynomial, half the time plus a random multiple
    of sum x_i^(2k): mixed degrees, rational coefficients."""
    p = random_multipoly(rng, dim, max_deg=3, max_terms=4, height=9, complex_coeffs=False)
    if rng.random() < 0.5:
        k = rng.randint(1, 2)
        p = p + MultiPoly(dim, {tuple(2 * k * (j == i) for j in range(dim)):
                                Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                for i in range(dim)})
    return _random_bounded_poly(rng, dim) if p.is_constant() else p


def test_integer_sum_of_squares_matches_fraction_reference(enclose_calls):
    # Clearing to one denominator scales c and every C_j by L^2: the same
    # radius (or None) after the same enclosures.
    rng = random.Random(13)
    radii = 0
    for _ in range(120):
        dim = rng.choice((1, 1, 2, 2, 3))
        system = sys_of(*(_random_bounded_poly(rng, dim) for _ in range(rng.randint(1, 3))))
        enclose_calls.clear()
        radius = boundedness_radius(system)
        calls = len(enclose_calls)
        enclose_calls.clear()
        assert radius == _fraction_radius(system), system
        assert calls == len(enclose_calls)
        radii += radius is not None
    assert radii >= 60


def test_subdivision_no_zero():
    box = cube(1, 10)
    res = subdivision_search(sys_of(POSDEF), box)
    assert res.kind == "NoZeroInBox"


def test_subdivision_finds_exact_zero():
    box = cube(2, 2)
    res = subdivision_search(sys_of(CIRCLE), box)
    assert res.kind == "ExactZero"
    assert exact_common_zero(sys_of(CIRCLE), res.zero)


def test_subdivision_candidate_boxes_on_budget():
    cfg = dataclasses.replace(DEFAULT_CONFIG, max_depth=0)
    # x^2 - 2 has no rational zero; depth 0 leaves a candidate box
    p = MultiPoly(1, {(2,): 1, (0,): -2})
    res = subdivision_search(sys_of(p), cube(1, 2), cfg)
    assert res.kind == "CandidateBoxes"
    assert res.stats["unresolved_boxes"] == 1


def test_simplest_rational_has_the_least_denominator():
    rng = random.Random(7)
    for _ in range(2000):
        # negative ends, integer ends (denominator 1) and narrow intervals
        ends = sorted(Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 7, 16, 29]))
                      for _ in range(2))
        if rng.random() < 0.2:
            ends[1] = ends[0] + Fraction(1, rng.randint(50, 500))
        lo, hi = ends
        den = math.lcm(lo.denominator, hi.denominator)
        num, d = _simplest_rational(int(lo * den), int(hi * den), den)
        r = Fraction(num, d)
        assert d == r.denominator
        assert lo <= r <= hi
        least = next((q for q in range(1, 13)
                      if math.floor(hi * q) >= math.ceil(lo * q)), None)
        if least is None:
            assert r.denominator > 12
        else:
            assert r.denominator == least
        if lo <= 0 <= hi:
            assert r == 0


# Boxes over q > 1: the numerators are split over q * 2^k, and a zero is
# reported over its own least denominator.
@pytest.mark.parametrize("system, box, zero, stats, calls", [
    (sys_of(X1 - const(1, Fraction(1, 3))), cube(1, Fraction(2, 3)), (Fraction(1, 3),),
     {"boxes_processed": 3, "boxes_discarded": 1, "depth_reached": 1}, 3),
    (sys_of(CIRCLE), cube(2, Fraction(5, 3)), (Fraction(-1), Fraction(0)),
     {"boxes_processed": 15, "boxes_discarded": 0, "depth_reached": 3}, 15),
], ids=["x-1/3", "circle"])
def test_subdivision_on_non_dyadic_cubes(enclose_calls, system, box, zero, stats, calls):
    res = subdivision_search(system, box)
    assert res.kind == "ExactZero"
    assert res.zero == zero
    assert res.stats == stats
    assert len(enclose_calls) == calls


@pytest.mark.parametrize("system", [
    # zeros that no box midpoint hits: only the simplest rational finds them
    sys_of(MultiPoly(1, {(1,): 1, (0,): Fraction(-3, 1000)})),
    sys_of(MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(0, 1): 1, (0, 0): Fraction(-1, 1024)})),
    # the circle through (1/1024, 3/512): only a box midpoint finds a zero
    sys_of(MultiPoly(2, {(2, 0): 1, (0, 2): 1,
                         (0, 0): -Fraction(1, 1024) ** 2 - Fraction(3, 512) ** 2})),
    sys_of(MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -3})),
], ids=["x=3/1000", "(0,1/1024)", "circle-through-(1/1024,3/512)", "sphere-r2=3"])
def test_decide_finds_exact_zero(system):
    verdict = decide_emptiness(system)
    assert verdict.status == NONEMPTY
    assert exact_common_zero(system, verdict.witness)


def test_decide_empty_unit_generator():
    verdict = decide_emptiness(sys_of(MultiPoly.constant(2, 1)))
    assert verdict.status == EMPTY
    assert verdict.certificate["kind"] == "UnitIdeal"


def test_decide_empty_posdef():
    # (x - 1)^2 + 1: positive, but not sign-definite term by term, so the
    # Sturm count decides it, with no radius and no box
    verdict = decide_emptiness(sys_of(MultiPoly(1, {(2,): 1, (1,): -2, (0,): 2})))
    assert verdict.status == EMPTY
    assert verdict.certificate == {"kind": "Sturm", "gcd": ["1", "-2", "2"]}
    assert verdict.diagnostics["pipeline"] == ["groebner", "sturm"]


def test_decide_nonempty_circle():
    verdict = decide_emptiness(sys_of(CIRCLE))
    assert verdict.status == NONEMPTY
    assert exact_common_zero(sys_of(CIRCLE), verdict.witness)


def test_decide_nonempty_vacuous_system():
    verdict = decide_emptiness(RealPolySystem(2, ()))
    assert verdict.status == NONEMPTY
    assert verdict.witness == (Fraction(0), Fraction(0))


def test_decide_ignores_zero_polys():
    verdict = decide_emptiness(sys_of(MultiPoly.zero(2), CIRCLE))
    assert verdict.status == NONEMPTY


@pytest.mark.parametrize("polys", [
    (MultiPoly.constant(2, 1),),
    (CIRCLE,),
    (HYPERBOLA_AXES, CIRCLE),
    (MultiPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): 1}),),
    (MultiPoly(2, {(2, 0): 1, (0, 0): -2}),),
    (MultiPoly(2, {(1, 0): 1, (0, 1): -1}), MultiPoly(2, {(4, 0): 1, (0, 0): 1})),
    (),
], ids=["unit", "circle", "axes-circle", "posdef", "x2-2", "unbounded", "vacuous"])
def test_zero_polys_change_no_decision(polys):
    # Same status, witness, certificate and diagnostics with zero
    # polynomials in front and at the end as without them; a polynomial
    # index in the certificate or the diagnostics moves by the one zero in
    # front.
    zero = MultiPoly.zero(2)
    expected = decide_emptiness(RealPolySystem(2, polys))
    expected = dataclasses.replace(expected, certificate=_shift_polys(expected.certificate),
                                   diagnostics=_shift_polys(expected.diagnostics))
    assert decide_emptiness(RealPolySystem(2, (zero, *polys, zero))) == expected


def _shift_polys(cert):
    if isinstance(cert, dict):
        return {k: v + 1 if k == "poly" else [i + 1 for i in v] if k == "pair"
                else _shift_polys(v) for k, v in cert.items()}
    if isinstance(cert, list):
        return [_shift_polys(v) for v in cert]
    return cert


def test_decide_unknown_is_honest():
    # sqrt(2) point: no rational zero exists, zero set bounded but the
    # candidate generator can never certify it; verdict must be UNKNOWN
    p = MultiPoly(1, {(2,): 1, (0,): -2})
    verdict = decide_emptiness(sys_of(p))
    assert verdict.status == UNKNOWN
    assert verdict.witness is None


X2_MINUS_2 = MultiPoly(1, {(2,): 1, (0,): -2})
X8 = [MultiPoly.variable(8, k) for k in range(8)]


@pytest.mark.parametrize("system, box_budget, reason, unresolved", [
    (sys_of(X2_MINUS_2), None, "depth-cap", 2),
    (sys_of(X2_MINUS_2), 3, "box-budget", 2),
    # no real zero ((xy)^2 - xy + 1 >= 3/4), but the top form x^4*y^4 of its
    # square vanishes on the faces: no radius, and the cleared fallback box
    # proves nothing
    (sys_of(X2 * X2 * Y2 * Y2 - X2 * Y2 + const(2, 1)), None, "unbounded-no-radius", 0),
], ids=["depth-cap", "box-budget", "unbounded-no-radius"])
def test_unknown_reason(monkeypatch, system, box_budget, reason, unresolved):
    if box_budget is not None:
        monkeypatch.setattr(nullsol.variety, "BOX_BUDGET", box_budget)
    verdict = decide_emptiness(system)
    assert verdict.status == UNKNOWN
    assert verdict.diagnostics["reason"] == reason
    assert verdict.diagnostics["unresolved_boxes"] == unresolved


def test_box_budget_bounds_boxes_processed():
    # {x1 + ... + x8, x1^12 + ... + x8^12 - 1}: not a unit ideal and too
    # large for the presolve (every axis occurs in both polynomials); the
    # search ends at the budget on the total boxes processed, not after many
    # waves under a per-wave bound
    system = sys_of(sum(X8[1:], X8[0]), sum((x ** 12 for x in X8[1:]), X8[0] ** 12) - const(8, 1))
    assert unit_ideal_test(list(system.terms)) is False
    verdict = decide_emptiness(system)
    assert verdict.status == UNKNOWN
    assert verdict.diagnostics["reason"] == "box-budget"
    assert verdict.diagnostics["subdivision"]["boxes_processed"] <= nullsol.variety.BOX_BUDGET


CIRCLE_21 = (X2 - const(2, 2)) ** 2 + (Y2 + const(2, 1)) ** 2 - const(2, 1)
# (x - 1)^2 + (y - 1)^2 + 1 is positive, but not term by term
SHIFTED_POSDEF = (X2 - const(2, 1)) ** 2 + (Y2 - const(2, 1)) ** 2 + const(2, 1)


@pytest.mark.parametrize("system, status, radius, stats, calls", [
    # the circle around (2, -1) misses the unit circle by a gap: their
    # resultant has no real root, which decides it without a radius or a box
    (sys_of(CIRCLE_21, X2 * X2 + Y2 * Y2 - const(2, 1)), EMPTY, None, None, 0),
    # the critical points decide it: only the radius proof encloses (see
    # test_shifted_posdef_box_search_counts for its box search)
    (sys_of(SHIFTED_POSDEF), EMPTY, "18", None, 2),
    (sys_of(X2_MINUS_2), UNKNOWN, "3",
     {"boxes_processed": 95, "boxes_discarded": 46, "depth_reached": 24,
      "unresolved_boxes": 2}, 96),
], ids=["circle-misses-circle", "shifted-posdef", "x2-2"])
def test_decide_wave_loop_counts(enclose_calls, system, status, radius, stats, calls):
    verdict = decide_emptiness(system)
    assert verdict.status == status
    assert verdict.diagnostics.get("radius", None) == radius
    assert verdict.diagnostics.get("subdivision", None) == stats
    assert len(enclose_calls) == calls


def test_shifted_posdef_box_search_counts(enclose_calls):
    # dp/dy = 2(y - 1), and Res_y is 4x^2 - 8x + 8, with no real root: no
    # critical point, and the radius 18 bounds the zeros, so EMPTY with no
    # box search.  The box search of the radius cube still pins the wave
    # loop: 2 radius enclosures, then 199 boxes.
    system = sys_of(SHIFTED_POSDEF)
    verdict = decide_emptiness(system)
    assert verdict.status == EMPTY
    assert verdict.certificate == {"kind": "CriticalPoints", "poly": 0, "radius": "18",
                                   "resultant": ["4", "-8", "8"], "roots": []}
    assert verdict.diagnostics["pipeline"] == ["groebner", "resultant", "boundedness"]
    result = subdivision_search(system, cube(2, Fraction(18)))
    assert result.kind == "NoZeroInBox"
    assert result.stats == {"boxes_processed": 199, "boxes_discarded": 100, "depth_reached": 15}
    assert len(enclose_calls) == 201


def test_witness_is_exact_never_float():
    verdict = decide_emptiness(sys_of(CIRCLE))
    assert all(isinstance(x, Fraction) for x in verdict.witness)


def test_determinism_across_runs():
    results = []
    for _ in range(3):
        v = decide_emptiness(sys_of(CIRCLE))
        results.append((v.status, v.witness))
    assert results[0] == results[1] == results[2]


def test_monotone_in_depth():
    # deeper searches never flip a decisive verdict
    statuses = []
    for depth in (6, 12, 24):
        cfg = dataclasses.replace(DEFAULT_CONFIG, max_depth=depth)
        statuses.append(decide_emptiness(sys_of(CIRCLE), cfg).status)
    decisive = [s for s in statuses if s != UNKNOWN]
    assert len(set(decisive)) <= 1
    assert statuses[-1] == NONEMPTY


# -- presolve ----------------------------------------------------------------


# A pair is presolved before the unit-ideal test, which runs only when the
# exact stages leave it undecided; other systems start with the test.
@pytest.mark.parametrize("system, status, witness, certificate, presolve, pipeline", [
    (sys_of(X3 + Z3 - const(3, 1), const(3, 1) - Y3, -Z3), NONEMPTY, (1, 1, 0),
     {"kind": "ExactPoint"}, {"eliminated": [0, 1, 2], "free": []}, ["groebner", "presolve"]),
    # y occurs in fewer polynomials than x: y = x leaves x^2 + 1
    (sys_of(X2 - Y2, X2 * X2 + const(2, 1)), EMPTY, None,
     {"kind": "Presolve", "eliminated": [{"poly": 0, "axis": 1}], "free": [],
      "reduced": {"kind": "SignDefinite", "poly": 1}}, {"eliminated": [1], "free": []},
     ["presolve"]),
    (sys_of(Y2 ** 4 + X2 * X2 + const(2, 3)), EMPTY, None,
     {"kind": "SignDefinite", "poly": 0}, {"eliminated": [], "free": []},
     ["groebner", "presolve"]),
    # x = 7/2 - y leaves 8y^2 - 4y + 9, which has no real zero
    (sys_of(CIRCLE_21, X2 + Y2 - const(2, Fraction(7, 2))), EMPTY, None,
     {"kind": "Presolve", "eliminated": [{"poly": 1, "axis": 0}], "free": [],
      "reduced": {"kind": "Sturm", "gcd": ["8", "-4", "9"]}},
     {"eliminated": [0], "free": []}, ["presolve", "sturm"]),
    # y and z are free: the zero of 1 - x^2 extends by 0
    (sys_of(const(3, 1) - X3 * X3), NONEMPTY, (-1, 0, 0),
     {"kind": "ExactPoint"}, {"eliminated": [], "free": [1, 2]},
     ["groebner", "presolve", "boundedness", "subdivision"]),
    (sys_of(X3 * X3 + const(3, 1)), EMPTY, None,
     {"kind": "Presolve", "eliminated": [], "free": [1, 2],
      "reduced": {"kind": "SignDefinite", "poly": 0}}, {"eliminated": [], "free": [1, 2]},
     ["groebner", "presolve"]),
    # an irrational zero stays undecided after the elimination
    (sys_of(X2 - Y2, X2 * X2 - const(2, 3)), UNKNOWN, None, None,
     {"eliminated": [1], "free": []}, ["presolve", "groebner", "boundedness", "subdivision"]),
    # x2 occurs in no other polynomial, so it is solved for, not x1: nothing
    # is substituted, and 1 - x1^12 is left in x1 alone
    (sys_of(sum(X8[1:], X8[0]), X8[0] ** 12 - const(8, 1)), NONEMPTY, (-1, 1) + (0,) * 6,
     {"kind": "ExactPoint"}, {"eliminated": [1], "free": [2, 3, 4, 5, 6, 7]},
     ["presolve", "groebner", "boundedness", "subdivision"]),
], ids=["affine-point", "line-misses-x2+1", "sign-definite", "circle-misses-line",
        "free-axes", "free-axes-empty", "irrational", "axis-in-fewest-polys"])
def test_presolve_verdicts(system, status, witness, certificate, presolve, pipeline):
    verdict = decide_emptiness(system)
    assert verdict.status == status
    assert verdict.witness == (None if witness is None else tuple(map(Fraction, witness)))
    assert verdict.certificate == certificate
    assert verdict.diagnostics["presolve"] == presolve
    assert verdict.diagnostics["pipeline"] == pipeline
    assert json.loads(json.dumps(verdict.certificate)) == verdict.certificate


def test_presolve_nonzero_constant_past_the_groebner_cap():
    # With the cap hit, x = 1 - y and y = 1/2 leave x^2 + y - 5 a nonzero
    # constant, which is sign-definite.
    system = sys_of(X2 + Y2 - const(2, 1), X2 - Y2, X2 * X2 + Y2 - const(2, 5))
    verdict = decide_emptiness(system, dataclasses.replace(DEFAULT_CONFIG, groebner_cap=1))
    assert verdict.diagnostics["groebner_unit"] is None
    assert verdict.certificate == {
        "kind": "Presolve", "eliminated": [{"poly": 0, "axis": 0}, {"poly": 1, "axis": 1}],
        "free": [], "reduced": {"kind": "SignDefinite", "poly": 2}}


def test_presolve_leaves_other_systems_alone():
    for system in (sys_of(CIRCLE), sys_of(X2_MINUS_2), sys_of(HYPERBOLA_AXES, CIRCLE)):
        pre = nullsol.variety._presolve(system.terms, system.dimension)
        assert (pre.steps, pre.free, pre.certificate) == ([], [], None)
        assert pre.kept == list(range(system.dimension)) and pre.terms == system.terms
        assert "presolve" not in decide_emptiness(system).diagnostics["pipeline"]


@pytest.mark.parametrize("system, stage, pipeline", [
    (sys_of(HYPERBOLA_AXES, CIRCLE), "_resultant_stage", ["resultant"]),
    # y and z are free: 1 - x^2 reaches subdivision in d = 1
    (sys_of(MultiPoly(3, {(2, 0, 0): -1, (0, 0, 0): 1})), "subdivision_search",
     ["groebner", "presolve", "boundedness", "subdivision"]),
], ids=["resultant", "presolved"])
def test_every_witness_is_checked_against_the_system(monkeypatch, system, stage, pipeline):
    # a stage that reports a point off the zero set: decide_emptiness checks
    # the point against the system it was given (subdivision of that system
    # itself keeps only exact zeros, so its witnesses are not checked twice)
    def wrong(*args):
        if stage == "_resultant_stage":
            return Fraction(3), Fraction(5)
        return nullsol.variety.SubdivisionResult("ExactZero", zero=(Fraction(3),))
    assert decide_emptiness(system).status == NONEMPTY
    monkeypatch.setattr(nullsol.variety, stage, wrong)
    with pytest.raises(ArithmeticError, match="is not a zero of the system"):
        decide_emptiness(system)
    monkeypatch.undo()
    assert decide_emptiness(system).diagnostics["pipeline"] == pipeline


@pytest.mark.parametrize("dim, polys", [
    # x1 = -(x2 + ... + x8) into x1^12 would build C(19, 7) = 50,388 monomials
    (8, lambda x: (sum(x[1:], x[0]),
                   sum((y ** 12 for y in x[1:]), x[0] ** 12) - const(8, 1))),
    # x = 1 into x^20000 would take 20,000 powers of 1
    (1, lambda x: (x[0] - const(1, 1), x[0] ** 20000 - const(1, 1))),
    # x = 3/2 into x^7000 would add about 7000 * log2(3) = 11,095 coefficient bits
    (1, lambda x: (const(1, 2) * x[0] - const(1, 3), x[0] ** 7000 + const(1, 1))),
], ids=["terms", "powers", "bits"])
def test_presolve_stops_at_the_substitution_bound(dim, polys):
    system = RealPolySystem(dim, polys([MultiPoly.variable(dim, k) for k in range(dim)]))
    pre = nullsol.variety._presolve(system.terms, system.dimension)
    assert not pre.steps


def _real_value(p, point):
    return sum(c * math.prod(map(pow, point, e)) for e, c in p.real_terms().items())


def _planted_affine_system(rng):
    """Affine equations in echelon form through a rational point z, plus
    polynomials through z.  With an axis left undetermined, half the time
    1 + x^2 + ... is added, and the system has no real zero; with none, z is
    its only real zero.  Returns (system, z, empty, determined)."""
    dim = rng.randint(1, 4)
    z = [random_rational(rng, 4) for _ in range(dim)]
    x = [MultiPoly.variable(dim, k) for k in range(dim)]
    pivots = rng.sample(range(dim), rng.randint(1, dim))
    polys = []
    for i, pivot in enumerate(pivots):
        form = const(dim, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))) * x[pivot]
        for k in range(dim):
            if k not in pivots[:i + 1] and rng.random() < 0.5:
                form = form + const(dim, random_rational(rng, 4)) * x[k]
        polys.append(form - const(dim, _real_value(form, z)))
    for _ in range(rng.randint(0, 2)):
        q = random_multipoly(rng, dim, max_deg=3, max_terms=3, height=5, complex_coeffs=False)
        polys.append(q - const(dim, _real_value(q, z)))
    empty = len(pivots) < dim and rng.random() < 0.5
    if empty:
        polys.append(sum((const(dim, rng.randint(1, 3)) * xk * xk for xk in x), const(dim, 1)))
    rng.shuffle(polys)
    system = RealPolySystem(dim, tuple(p for p in polys if not p.is_zero()))
    return system, z, empty, len(pivots) == dim


def _members(dim, cert):
    """The certificate's affine ideal members: x_1, ..., x_d coefficients,
    then the constant term."""
    exps = [tuple(int(i == k) for i in range(dim)) for k in range(dim)] + [(0,) * dim]
    return [MultiPoly(dim, {e: Fraction(c) for e, c in zip(exps, m) if c != "0"})
            for m in cert.get("ideal_members", [])]


def _replay(system, steps, members=()):
    """The system and ``members`` after ``steps``, by MultiPoly composition:
    x_k = (a*x_k - p)/a."""
    dim = system.dimension
    polys = [*system.polys, *members]
    for step in steps:
        p, k = polys[step["poly"]], step["axis"]
        unit = tuple(int(i == k) for i in range(dim))
        a = p.real_terms()[unit]
        value = (MultiPoly(dim, {unit: a}) - p) * const(dim, 1 / Fraction(a))
        polys = [sum((MultiPoly(dim, {e[:k] + (0,) + e[k + 1:]: c}) * value ** e[k]
                      for e, c in q.terms.items()), MultiPoly.zero(dim)) for q in polys]
    return polys


def _proportional(p, q):
    if set(p) != set(q):
        return False
    return len({Fraction(p[e]) / Fraction(q[e]) for e in p}) <= 1


# -- Sturm count -------------------------------------------------------------
# The references run over Q with exact division and monic remainders:
# coefficient lists, highest degree first, [] the zero polynomial.


def _q_coeffs(p):
    terms = p.real_terms()
    return [Fraction(terms.get((k,), 0)) for k in range(max(e for e, in terms), -1, -1)]


def _q_rem(a, b):
    a = list(a)
    while a and len(a) >= len(b):
        f = a[0] / b[0]
        a = [x - f * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
        while a and a[0] == 0:
            a.pop(0)
    return a


def _q_gcd(polys):
    g = []
    for p in (_q_coeffs(p) for p in polys if not p.is_zero()):
        while p:
            g, p = p, _q_rem(g, p)
    return [c / g[0] for c in g]


def _q_real_root_count(g):
    g = list(map(Fraction, g))
    seq, nxt = [g], [c * (len(g) - 1 - i) for i, c in enumerate(g[:-1])]
    while nxt:
        seq.append(nxt)
        nxt = [-c for c in _q_rem(seq[-2], seq[-1])]

    def changes(values):
        return sum((a > 0) != (b > 0) for a, b in zip(values, values[1:]))

    return (changes([p[0] * (-1) ** (len(p) - 1) for p in seq])
            - changes([p[0] for p in seq]))


def _scaled(a, b):
    return len(a) == len(b) and all(x * b[0] == y * a[0] for x, y in zip(a, b))


def test_sturm_count_on_planted_roots():
    # Products of rational linear factors (with multiplicity) and x^2 + c
    # (c > 0), times a constant of either sign, with a zero polynomial among
    # them: the count is the number of distinct roots all of them share.
    rng = random.Random(19)
    seen = set()
    for _ in range(300):
        polys, shared = [], None
        for _ in range(rng.randint(1, 3)):
            p, roots = const(1, rng.choice([-3, -2, -1, 1, 2, 5])), set()
            for _ in range(rng.randint(0, 4)):
                root = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                factor = const(1, root.denominator) * X1 - const(1, root.numerator)
                p = p * factor ** rng.randint(1, 3)
                roots.add(root)
            for _ in range(rng.randint(0, 2)):
                p = p * (X1 * X1 + const(1, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
            polys.append(p)
            shared = roots if shared is None else shared & roots
        polys.insert(rng.randint(0, len(polys)), MultiPoly.zero(1))
        system = RealPolySystem(1, tuple(polys))
        g = nullsol.variety._univariate_gcd(system.terms)
        assert g[0] > 0 and math.gcd(*g) == 1
        assert _scaled(g, _q_gcd(polys))
        assert len(nullsol.variety._real_roots(g)) == len(shared) == _q_real_root_count(g)
        seen.add(len(shared))
        verdict = decide_emptiness(system)
        assert (verdict.status == EMPTY) == (not shared)
        if "sturm" in verdict.diagnostics["pipeline"]:
            assert verdict.certificate == {"kind": "Sturm", "gcd": list(map(str, g))}
            seen.add("sturm")
    assert {0, 1, 2, 3, "sturm"} <= seen, seen


def test_pseudo_remainder_and_count_match_the_rational_reference():
    # sparse random polynomials, so remainders drop several degrees and
    # divisors have leading coefficients of both signs
    rng = random.Random(5)
    for _ in range(400):
        a, b = ([rng.choice([-3, -1, 0, 0, 0, 1, 2]) for _ in range(rng.randint(1, 9))]
                for _ in range(2))
        a, b = (p[next((i for i, c in enumerate(p) if c), len(p)):] for p in (a, b))
        if not b:
            continue
        scale = abs(b[0]) ** max(len(a) - len(b) + 1, 0)
        r = nullsol.variety._pseudo_remainder(a, b)
        assert r == [scale * c for c in _q_rem(list(map(Fraction, a)), b)]
        if a:
            assert len(nullsol.variety._real_roots(a)) == _q_real_root_count(a)


def test_sturm_count_stops_at_its_work_bound():
    assert nullsol.variety._univariate_gcd([{}]) is None
    assert nullsol.variety._univariate_gcd([{(300,): 1, (0,): 1}]) is None
    # a*x^2 + x + a with 12,000-bit a: the count runs (9 * (2 + 12,001) is
    # under the bound), and its certificate prints 3,613-digit decimals
    a = 2 ** 12000 + 1
    verdict = decide_emptiness(RealPolySystem(1, (MultiPoly(1, {(2,): a, (1,): 1, (0,): a}),)))
    assert verdict.certificate == {"kind": "Sturm", "gcd": [str(a), "1", str(a)]}
    assert len(json.dumps(verdict.certificate)) > 7000
    # with 2^12300, past the bound, the radius proof and subdivision run
    a = 2 ** 12300 + 1
    system = RealPolySystem(1, (MultiPoly(1, {(2,): a, (1,): 1, (0,): a}),))
    assert nullsol.variety._univariate_gcd(system.terms) is None
    assert "sturm" not in decide_emptiness(system).diagnostics["pipeline"]


def test_two_circles_decide_through_an_ideal_member():
    # The unit circles around (2, -1) and (0, 0) are sqrt(5) - 2 apart: no real
    # zero.  As a pair, their resultant 20x^2 - 40x + 21 has no real root,
    # and the unit-ideal test never runs.
    circles = (CIRCLE_21, X2 * X2 + Y2 * Y2 - const(2, 1))
    verdict = decide_emptiness(sys_of(*circles))
    assert verdict.certificate == {"kind": "Resultant", "pair": [0, 1],
                                   "resultant": ["20", "-40", "21"], "roots": []}
    assert verdict.diagnostics["pipeline"] == ["resultant"]
    # With their sum as a third polynomial, the unit-ideal test runs first.
    # The difference -4x + 2y + 5 is an affine member of the Groebner basis,
    # listed after the three generators, and x = (2y + 5)/4 leaves
    # 20y^2 + 20y + 9, which the Sturm count finds no root of.
    system = sys_of(*circles, circles[0] + circles[1])
    verdict = decide_emptiness(system)
    assert verdict.status == EMPTY and verdict.witness is None
    assert verdict.certificate == {
        "kind": "Presolve", "eliminated": [{"poly": 3, "axis": 0}], "free": [],
        "ideal_members": [["-4", "2", "5"]],
        "reduced": {"kind": "Sturm", "gcd": ["20", "20", "9"]}}
    assert verdict.diagnostics["pipeline"] == ["groebner", "presolve", "sturm"]
    assert verdict.diagnostics["presolve"] == {"eliminated": [0], "free": [], "ideal_members": 1}
    # any two circles with a gap: as a pair, the resultant has no real root;
    # with their sum, the eliminated polynomial is the member, proportional
    # to the difference of the circles
    rng = random.Random(7)
    for _ in range(30):
        a, b = rng.choice([(3, 4), (4, -3), (5, 12), (-8, 15)])
        r1, r2 = rng.sample(range(1, 4), 2)
        k, shift = rng.randint(r1 + r2 + 1, 9), (rng.randint(-2, 2), rng.randint(-2, 2))
        n = math.isqrt(a * a + b * b)
        c1, c2 = shift, (shift[0] + Fraction(k * a, n), shift[1] + Fraction(k * b, n))
        circles = [(X2 - const(2, x)) ** 2 + (Y2 - const(2, y)) ** 2 - const(2, r * r)
                   for (x, y), r in ((c1, r1), (c2, r2))]
        verdict = decide_emptiness(sys_of(*circles))
        assert verdict.status == EMPTY and verdict.certificate["kind"] == "Resultant"
        assert verdict.certificate["roots"] == []
        _check_resultant_certificate(sys_of(*circles), verdict.certificate)
        circles.append(circles[0] + circles[1])
        verdict = decide_emptiness(sys_of(*circles))
        cert = verdict.certificate
        assert verdict.status == EMPTY and cert["kind"] == "Presolve"
        assert cert["eliminated"][0]["poly"] == 3
        (member,) = _members(2, cert)
        assert _proportional((circles[0] - circles[1]).real_terms(), member.real_terms())
        assert cert["reduced"]["kind"] == "Sturm"
        rest = [MultiPoly(1, {e[1:]: c for e, c in q.real_terms().items()})
                for q in _replay(sys_of(*circles), cert["eliminated"], [member])]
        assert _scaled(_q_gcd(rest), list(map(int, cert["reduced"]["gcd"])))
        assert _q_real_root_count(_q_gcd(rest)) == 0


def test_two_spheres_decide_through_an_ideal_member():
    # A pair in d = 3 with nothing to eliminate passes the exact stages
    # undecided.  The unit-ideal test then finds the affine member 2x - 3,
    # the difference of the unit spheres around the origin and (3, 0, 0),
    # and the presolve runs again with it: x = 3/2 leaves y^2 + z^2 + 5/4.
    spheres = (X3 * X3 + Y3 * Y3 + Z3 * Z3 - const(3, 1),
               (X3 - const(3, 3)) ** 2 + Y3 * Y3 + Z3 * Z3 - const(3, 1))
    verdict = decide_emptiness(sys_of(*spheres))
    assert verdict.certificate == {
        "kind": "Presolve", "eliminated": [{"poly": 2, "axis": 0}], "free": [],
        "ideal_members": [["2", "0", "0", "-3"]], "reduced": {"kind": "SignDefinite", "poly": 0}}
    assert verdict.diagnostics["pipeline"] == ["groebner", "presolve"]


def test_presolve_on_planted_affine_systems():
    rng = random.Random(15)
    counts = {"NONEMPTY": 0, "EMPTY": 0, "UNKNOWN": 0, "replayed": 0, "sturm": 0, "members": 0,
              "critical": 0}
    for _ in range(150):
        system, z, empty, determined = _planted_affine_system(rng)
        verdict = decide_emptiness(system)
        counts[verdict.status] += 1
        assert verdict.status != (NONEMPTY if empty else EMPTY), system
        if determined:
            assert verdict.witness == tuple(z)
        if verdict.status == NONEMPTY:
            assert exact_common_zero(system, verdict.witness)
        cert = verdict.certificate
        if verdict.status != EMPTY or cert["kind"] == "UnitIdeal":
            continue
        if cert["kind"] != "Presolve":
            cert = {"eliminated": [], "free": [], "reduced": cert}
        members = _members(system.dimension, cert)
        replayed = _replay(system, cert["eliminated"], members)
        eliminated = {step["axis"] for step in cert["eliminated"]}
        kept = sorted({k for q in replayed for e in q.terms for k in range(len(e)) if e[k]})
        assert [k for k in range(system.dimension)
                if k not in eliminated and k not in kept] == cert["free"]
        projected = RealPolySystem(len(kept), tuple(
            MultiPoly(len(kept), {tuple(e[k] for k in kept): c for e, c in q.terms.items()})
            for q in replayed if not q.is_zero()))
        pre = nullsol.variety._presolve(system.terms, system.dimension,
                                        [integer_terms(m.real_terms()) for m in members])
        assert [{"poly": j, "axis": k} for j, k, _, _ in pre.steps] == cert["eliminated"]
        assert len(pre.terms) == len(projected.terms)
        assert all(map(_proportional, pre.terms, projected.terms))
        reduced = cert["reduced"]
        if reduced["kind"] == "ExhaustiveSubdivision":
            box = cube(len(kept), Fraction(reduced["radius"]))
            assert subdivision_search(projected, box).kind == "NoZeroInBox"
        elif reduced["kind"] == "Sturm":
            counts["sturm"] += 1
            g = _q_gcd(projected.polys)
            assert _scaled(g, list(map(int, reduced["gcd"])))
            assert _q_real_root_count(g) == 0
        elif reduced["kind"] in ("Resultant", "CriticalPoints"):
            counts["critical"] += reduced["kind"] == "CriticalPoints"
            _check_resultant_certificate(_reduced(system, cert), reduced)
        else:
            terms = replayed[reduced["poly"]].real_terms()
            constant = terms.get((0,) * system.dimension, 0)
            assert constant != 0
            assert reduced["kind"] == "SignDefinite"
            assert all(c * constant > 0 for c in terms.values())
            assert all(x % 2 == 0 for e in terms for x in e)
        counts["replayed"] += 1
        counts["members"] += bool(members)
    assert counts["UNKNOWN"] <= 15 and counts["EMPTY"] >= 20 and counts["replayed"] >= 20, counts
    assert counts["sturm"] >= 1 and counts["members"] >= 1 and counts["critical"] >= 1, counts


# -- resultant stage ---------------------------------------------------------


def _random_x2_poly(rng):
    """A random integer term dict in (x1, x2) with a positive x2-degree."""
    while True:
        f = integer_terms(random_multipoly(rng, 2, max_deg=3, max_terms=4, height=5,
                                           complex_coeffs=False).real_terms() or {(0, 0): 1})
        if any(e[1] for e in f):
            return f


def test_resultant_matches_the_cofactor_reference():
    # every third pair has the leading x2-coefficient x1 - t, t in 0..2,
    # which vanishes at an integer x1: there the x2-degree drops
    rng = random.Random(21)
    for i in range(240):
        p, q = _random_x2_poly(rng), _random_x2_poly(rng)
        if i % 3 == 0:
            t = rng.randint(0, 2)
            p = {e: c for e, c in p.items() if e[1] < 2} | {(1, 2): 1} | ({(0, 2): -t} if t else {})
        assert nullsol.variety._resultant(p, q) == list(map(int, reference_resultant(p, q)))


def _random_dense(rng, x2_degree, x1_degree, bits):
    return {(i, j): rng.getrandbits(bits) - (1 << (bits - 1)) or 1
            for i in range(x1_degree + 1) for j in range(x2_degree + 1)}


@pytest.mark.parametrize("case", [
    "m<n-odd", "m<n-even", "m=n", "drop-mid-sequence", "drop-last-step", "zero-remainder",
    "lc-vanishes-at-1", "x1-degree-60", "200-bit"])
def test_resultant_on_each_branch_of_the_subresultant_sequence(case):
    # each pair takes one branch of the subresultant sequence in x2 (m, n
    # the x2-degrees of p, q); Res_x2 is the cofactor reference's
    x, y = X2, Y2
    c = functools.partial(const, 2)
    cubic = (x + c(2)) * y ** 3 + x * y * y - c(3) * y + x
    quadratic = (x + c(2)) * y * y + x * y - c(3)
    pairs = {
        # p and q swap places, with the sign (-1)^(m*n)
        "m<n-odd": ((x + c(2)) * y + x * x - c(1),
                    (c(2) * x - c(1)) * y ** 3 + x * y * y + c(3) * y + x + c(1)),
        "m<n-even": ((x + c(2)) * y + x * x - c(1), (c(3) * x + c(1)) * y * y + x * y - c(2)),
        # a first step that keeps the degree leaves the scale h at 1
        "m=n": ((x + c(2)) * y * y + x * y + c(1), (x - c(3)) * y * y + y + x * x),
        # p mod the cubic has x2-degree 1: the degree drops by 2, and one
        # more step follows
        "drop-mid-sequence": ((y + x) * cubic + (x - c(3)) * y + c(2) * x + c(1), cubic),
        # p mod the quadratic is a constant: the sequence ends on a drop of 2,
        # with the scale h = lc(quadratic) = x1 + 2
        "drop-last-step": ((y + x) * quadratic + c(2) * x + c(1), quadratic),
        # a common factor y + x: the remainder is 0 and so is Res
        "zero-remainder": ((y + x) * (x * y + c(1)), (y + x) * (y - c(2) * x + c(3))),
        "lc-vanishes-at-1": ((x - c(1)) * y * y + y + x, (x + c(1)) * y - c(2)),
    }
    rng = random.Random(25)
    if case in pairs:
        p, q = (integer_terms(f.real_terms()) for f in pairs[case])
    elif case == "x1-degree-60":
        p, q = _random_dense(rng, 2, 60, 200), _random_dense(rng, 1, 60, 200)
    else:
        p, q = _random_dense(rng, 3, 10, 200), _random_dense(rng, 2, 10, 200)
    r = nullsol.variety._resultant(p, q)
    assert r == list(map(int, reference_resultant(p, q)))
    assert (r == []) == (case == "zero-remainder")


def test_exact_quotient_checks_its_remainder():
    assert nullsol.variety._exact_quotient([2, 0, -2], [1, 1]) == [2, -2]
    assert nullsol.variety._exact_quotient([], [3, 1]) == []
    # x^2 + 1 by x + 1, 3x by 2, 1 by x + 1: no integer quotient
    for a, b in (([1, 0, 1], [1, 1]), ([3, 0], [2]), ([1], [1, 1])):
        with pytest.raises(ArithmeticError):
            nullsol.variety._exact_quotient(a, b)


def test_resultant_of_a_long_linear_pair_is_fast():
    # linear in x2, dense of x1-degree 600: within the size bound, and the
    # sequence is one step, Res = a1*b0 - a0*b1 for p = a1*x2 + a0,
    # q = b1*x2 + b0
    rng = random.Random(26)
    p, q = ({(i, j): rng.choice([-2, -1, 1, 2]) for i in range(601) for j in range(2)}
            for _ in range(2))
    start = time.perf_counter()
    r = nullsol.variety._resultant(p, q)
    assert time.perf_counter() - start < 1
    a1, a0, b1, b0 = ([f[(i, j)] for i in range(600, -1, -1)] for f in (p, q) for j in (1, 0))
    expected = [0] * 1201
    for i, u in enumerate(a1):
        for k, v in enumerate(b0):
            expected[i + k] += u * v
        for k, v in enumerate(b1):
            expected[i + k] -= a0[i] * v
    assert r == expected[next(i for i, x in enumerate(expected) if x):]


def test_common_factor_skips_the_stage():
    # Res_x2 of a pair with a common factor of positive x2-degree is 0, and
    # a system of such a pair has no eliminant
    rng = random.Random(22)
    for _ in range(30):
        h, u, v = (random_multipoly(rng, 2, max_deg=1, max_terms=3, height=4,
                                    complex_coeffs=False) for _ in range(3))
        p, q = (integer_terms(((h + Y2 * Y2) * f).real_terms()) for f in (u + X2 * X2, v + Y2 * Y2))
        assert nullsol.variety._resultant(p, q) == [] == reference_resultant(p, q)
        diagnostics = {"pipeline": []}
        assert nullsol.variety._resultant_stage(list(enumerate((p, q))), diagnostics) is None
        assert diagnostics == {"pipeline": []}


@pytest.mark.parametrize("f, roots", [
    ([1, 0, -1, 0], [(-1, 1), (0, 1), (1, 1)]),               # x^3 - x: a root at 0
    ([1, 0, 1, 0], [(0, 1)]),                                 # x(x^2 + 1)
    # (2x - 1)^2 (x + 3)^3: multiple roots
    ([4, 32, 73, 9, -81, 27], [(-3, 1), (1, 2)]),
    ([4, -3, 4, -3], [(3, 4)]),                               # (4x - 3)(x^2 + 1): a midpoint
    ([2 ** 61, -1], [(1, 2 ** 61)]),                          # lc = 2^61
    ([2 ** 61, -3, -2 ** 62, 6], [None, (3, 2 ** 61), None]), # (2^61 x - 3)(x^2 - 2)
    ([1, 0, 1], []),                                          # no real root
    ([6, 17, 7], [(-7, 3), (-1, 2)]),                         # (3x + 7)(2x + 1)
    ([-1, 0, 2], [None, None]),                               # 2 - x^2
    # (x + 1)^2 (x - 1)(x^2 + 1): the squarefree part has its own counts
    ([1, 1, 0, 0, -1, -1], [(-1, 1), (1, 1)]),
], ids=["zero", "zero-alone", "multiple", "midpoint", "lc-2^61", "lc-2^61-irrational",
        "no-root", "negative", "irrational", "multiple-and-simple"])
def test_real_roots_pinned(f, roots):
    assert nullsol.variety._real_roots(f) == roots


def test_real_roots_match_the_planted_roots():
    # products of rational linear factors (with multiplicity), x^2 - c and
    # x^2 + c (c > 0 not a square): the rational roots are the planted
    # ones, and the real count is the rational Sturm reference's
    rng = random.Random(23)
    for _ in range(200):
        p, planted = const(1, rng.choice([-2, -1, 1, 3])), set()
        for _ in range(rng.randint(0, 4)):
            root = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            p = p * (const(1, root.denominator) * X1 - const(1, root.numerator)) ** rng.randint(1, 2)
            planted.add(root)
        for _ in range(rng.randint(0, 2)):
            p = p * (X1 * X1 + const(1, rng.choice([-7, -3, -2, 2, 5])))
        f = [int(c) for c in _q_coeffs(p)]
        found = nullsol.variety._real_roots(f)
        assert len(found) == _q_real_root_count(f)
        assert [Fraction(*x) for x in found if x] == sorted(planted)
        assert all(math.gcd(*x) == 1 and x[1] > 0 for x in found if x)


def _check_resultant_certificate(system, cert):
    """Re-check a Resultant or CriticalPoints certificate of a d = 2 system
    with Fractions only.

    ``r`` is, up to a factor, the polynomial named (free of x2) or the
    resultant of the pair named; it has as many distinct real roots as the
    certificate lists, each listed x1 is one of them, and there the gcd in
    x2 of all the polynomials is the one listed and has no real root.  So
    no real zero is left.  For CriticalPoints the pair is the one nonzero
    polynomial ``p`` and dp/dx2, and :func:`boundedness_radius` (checked
    against its Fraction reference above) gives the radius stated: a
    bounded zero set with no critical point for x1 is empty.
    """
    polys = [p.real_terms() for p in system.polys]
    r = [Fraction(c) for c in cert["resultant"]]
    if cert["kind"] == "CriticalPoints":
        i = cert["poly"]
        assert not any(polys[:i] + polys[i + 1:])
        assert boundedness_radius(system) == Fraction(cert["radius"])
        polys = [polys[i], {(a, b - 1): b * c for (a, b), c in polys[i].items() if b}]
        ref = reference_resultant(*polys)
    elif len(cert["pair"]) == 1:
        (i,) = cert["pair"]
        assert not any(e[1] for e in polys[i])
        ref = [polys[i].get((k, 0), 0) for k in range(max(e[0] for e in polys[i]), -1, -1)]
    else:
        ref = reference_resultant(*(polys[i] for i in cert["pair"]))
    assert r and _scaled(ref, r)
    roots = [Fraction(root["x1"]) for root in cert["roots"]]
    assert len(set(roots)) == len(roots) == _q_real_root_count(r)
    for a, root in zip(roots, cert["roots"]):
        assert sum(c * a ** k for k, c in enumerate(reversed(r))) == 0
        above = []
        for p in polys:
            terms = {}
            for e, c in p.items():
                terms[(e[1],)] = terms.get((e[1],), 0) + c * a ** e[0]
            above.append(MultiPoly(1, terms))
        g = _q_gcd(above)
        assert _scaled(g, [int(c) for c in root["gcd"]])
        assert _q_real_root_count(g) == 0


def _reduced(system, cert):
    """The reduced system a Presolve certificate leads to, by replay: the
    system's polynomials, then the ideal members, each at its polynomial
    index (zero once eliminated), on the axes still in use."""
    replayed = _replay(system, cert["eliminated"], _members(system.dimension, cert))
    kept = sorted({k for q in replayed for e in q.terms for k in range(len(e)) if e[k]})
    return RealPolySystem(len(kept), tuple(
        MultiPoly(len(kept), {tuple(e[k] for k in kept): c for e, c in q.terms.items()})
        for q in replayed))


def _compare_with_the_box_search(monkeypatch, systems, config):
    """Decide each system with the resultant stage and without it: equal
    verdicts wherever both decide, every witness an exact zero, every
    Resultant and CriticalPoints certificate re-checked.  Returns the counts
    of outcomes."""
    new = [decide_emptiness(s, config) for s in systems]
    with monkeypatch.context() as m:
        m.setattr(nullsol.variety, "_resultant_stage", lambda terms, diagnostics: None)
        old = [decide_emptiness(s, config) for s in systems]
    counts = {"new": Counter(v.status for v in new), "old": Counter(v.status for v in old),
              "stage": Counter()}
    for system, a, b in zip(systems, new, old):
        if UNKNOWN not in (a.status, b.status):
            assert a.status == b.status, system
        if a.status == NONEMPTY:
            assert exact_common_zero(system, a.witness)
        cert = a.certificate or {}
        if cert.get("kind") == "Presolve":
            system, cert = _reduced(system, cert), cert["reduced"]
        if cert.get("kind") in ("Resultant", "CriticalPoints"):
            _check_resultant_certificate(system, cert)
        if "resultant" in a.diagnostics["pipeline"]:
            decided = a.diagnostics["pipeline"][-1] != "subdivision"
            counts["stage"][a.status if decided else "fallback"] += 1
    return counts


def _seeded_d2_systems(rng, count):
    """Systems in d = 2, in turn: two or three random polynomials, the same
    shifted to vanish at a planted rational point, and two curves
    x2^2 = f(x1), x2^2 = f(x1) - a*x1^2 - b with a, b > 0, which never meet.
    Every polynomial has degree 2 or more, so most of them stay in d = 2
    after the presolve."""
    systems = []
    for i in range(count):
        if i % 3 == 2:
            f = sum((const(2, random_rational(rng, 4)) * X2 ** k for k in range(3)),
                    const(2, rng.choice([-2, -1, 1, 2])) * X2 ** 3)
            gap = const(2, rng.randint(1, 3)) * X2 * X2 + const(2, Fraction(1, rng.randint(1, 4)))
            systems.append(sys_of(Y2 * Y2 - f, Y2 * Y2 - f + gap))
            continue
        polys = [random_multipoly(rng, 2, max_deg=3, max_terms=3, height=5, complex_coeffs=False)
                 + const(2, rng.choice([-2, -1, 1, 2])) * rng.choice([X2 * X2, X2 * Y2, Y2 * Y2])
                 for _ in range(rng.randint(2, 3))]
        if i % 3:
            z = [random_rational(rng, 3) for _ in range(2)]
            polys = [p - const(2, _real_value(p, z)) for p in polys]
        systems.append(RealPolySystem(2, tuple(polys)))
    return systems


GUARD_CONFIG = dataclasses.replace(DEFAULT_CONFIG, max_depth=14, groebner_cap=2000)


def test_resultant_stage_agrees_with_the_box_search(monkeypatch):
    counts = _compare_with_the_box_search(monkeypatch, _seeded_d2_systems(random.Random(24), 120),
                                          GUARD_CONFIG)
    assert counts["stage"]["NONEMPTY"] >= 20 and counts["stage"]["EMPTY"] >= 20, counts
    assert counts["new"][UNKNOWN] <= counts["old"][UNKNOWN], counts


def test_resultant_stage_on_the_acceptance_suite(monkeypatch):
    counts = _compare_with_the_box_search(monkeypatch, generate_suite(random.Random(2024)),
                                          SUITE_CONFIG)
    assert counts["old"][UNKNOWN] == 3 and counts["new"][UNKNOWN] == 2, counts


def _seeded_curves(rng, count):
    """Single polynomials in d = 2 of degree at most 4, in turn: a random one
    plus a multiple of x2^2, x1*x2, x2^4 or x1^2 + x2^2, the same shifted to
    vanish at a planted rational point, a conic
    ``a(x1 - u)^2 + b(x2 - v)^2 + e(x1 - u)(x2 - v) - c`` with ``4ab > e^2``
    (a circle of rational radius when ``e = 0``, ``a = b`` and ``c`` is a
    square; imaginary for ``c < 0``), and ``x1^4 + x2^4`` plus a random
    cubic, whose zeros are bounded."""
    polys = []
    for i in range(count):
        if i % 4 == 2:
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            e = rng.choice([0, 0, rng.randint(-1, 1) * (a + b - 1)])
            c = Fraction(rng.randint(-4, 9), rng.randint(1, 3))
            if rng.random() < 0.3:
                a = b = 1
                e, c = 0, random_rational(rng, 4) ** 2
            u, v = (random_rational(rng, 3) for _ in range(2))
            x, y = X2 - const(2, u), Y2 - const(2, v)
            polys.append(const(2, a) * x * x + const(2, b) * y * y + const(2, e) * x * y
                         - const(2, c))
        elif i % 4 == 3:
            polys.append(X2 ** 4 + Y2 ** 4 + random_multipoly(
                rng, 2, max_deg=3, max_terms=4, height=5, complex_coeffs=False))
        else:
            p = random_multipoly(rng, 2, max_deg=4, max_terms=4, height=5, complex_coeffs=False)
            p = p + const(2, rng.choice([-2, -1, 1, 2])) * rng.choice(
                [Y2 * Y2, X2 * Y2, Y2 ** 4, X2 * X2 + Y2 * Y2])
            if i % 4:
                z = [random_rational(rng, 3) for _ in range(2)]
                p = p - const(2, _real_value(p, z))
            polys.append(p)
    return [sys_of(p) for p in polys]


def test_critical_points_agree_with_the_box_search(monkeypatch):
    # the stage on (p, dp/dx2) against the radius proof and box search alone
    counts = _compare_with_the_box_search(monkeypatch, _seeded_curves(random.Random(25), 240),
                                          GUARD_CONFIG)
    assert counts["stage"]["NONEMPTY"] >= 40 and counts["stage"]["EMPTY"] >= 10, counts
    assert counts["new"][UNKNOWN] <= counts["old"][UNKNOWN], counts


ELLIPSE_23 = X2 * X2 + const(2, 2) * Y2 * Y2 - const(2, 3)


@pytest.mark.parametrize("poly, status, witness, pipeline, kind", [
    # circles of rational radius r around (a, b): the least critical point
    # is (a - r, b)
    ((X2 - const(2, 2)) ** 2 + (Y2 + const(2, 1)) ** 2 - const(2, 9), NONEMPTY, (-1, -1),
     ["resultant"], "ExactPoint"),
    ((X2 + const(2, Fraction(1, 2))) ** 2 + (Y2 - const(2, 3)) ** 2 - const(2, Fraction(4, 9)),
     NONEMPTY, (Fraction(-7, 6), 3), ["resultant"], "ExactPoint"),
    # x1^2 + 2 x2^2 = 3: its critical points (+-sqrt(3), 0) are irrational,
    # and the box search finds (-1, -1)
    (ELLIPSE_23, NONEMPTY, (-1, -1), ["resultant", "boundedness", "subdivision"], "ExactPoint"),
    # an isolated point is its own critical point
    (X2 * X2 + Y2 * Y2, NONEMPTY, (0, 0), ["resultant"], "ExactPoint"),
    # a repeated factor: Res is 0, the stage says nothing
    ((X2 * X2 + Y2 * Y2 - const(2, 1)) ** 2, NONEMPTY, (-1, 0), ["boundedness", "subdivision"],
     "ExactPoint"),
    # unbounded: a critical point is still a zero ...
    (Y2 * Y2 - X2 ** 3 + X2, NONEMPTY, (-1, 0), ["resultant"], "ExactPoint"),
    # ... but no critical point proves nothing without a radius
    (Y2 ** 3 + Y2 - X2, NONEMPTY, (0, 0), ["resultant", "boundedness", "subdivision"],
     "ExactPoint"),
    # an imaginary ellipse, not sign-definite term by term
    (X2 * X2 + X2 * Y2 + Y2 * Y2 + const(2, 1), EMPTY, None, ["resultant", "boundedness"],
     "CriticalPoints"),
], ids=["circle", "circle-rational-radius", "irrational", "isolated-point", "repeated-factor",
        "unbounded", "unbounded-no-critical-point", "imaginary-ellipse"])
def test_single_curve_pins(poly, status, witness, pipeline, kind):
    system = sys_of(poly)
    verdict = decide_emptiness(system)
    assert verdict.status == status and verdict.certificate["kind"] == kind
    assert verdict.witness == (None if witness is None else tuple(map(Fraction, witness)))
    assert verdict.diagnostics["pipeline"] == ["groebner", *pipeline]
    if "resultant" in pipeline:
        assert verdict.diagnostics["resultant"]["pair"] == [0]
        assert verdict.diagnostics["resultant"]["derivative"] == "x2"
    if status == NONEMPTY:
        assert exact_common_zero(system, verdict.witness)
    else:
        _check_resultant_certificate(system, verdict.certificate)


# A pair reaches the resultant stage before the unit-ideal test, and it
# decides them, so the test never runs; the three polynomials of the last
# case start with the test.
@pytest.mark.parametrize("system, certificate, pipeline", [
    # the zero set of x2 = x1^2 misses x2 = x1^4 + 1: r = x1^4 - x1^2 + 1
    (sys_of(X2 * X2 - Y2, Y2 - X2 ** 4 - const(2, 1)),
     {"kind": "Resultant", "pair": [0, 1], "resultant": ["1", "0", "-1", "0", "1"],
      "roots": []}, ["resultant"]),
    # the acceptance suite's third UNKNOWN: r has the one real root 0, and
    # the first polynomial is 5/3 there
    (sys_of(const(2, Fraction(-2, 7)) * X2 * X2 * Y2 + const(2, Fraction(5, 3)),
            const(2, Fraction(1, 2)) * (X2 ** 3 * Y2 + X2 * Y2 * Y2)
            + const(2, Fraction(5, 4)) * Y2 - const(2, 1)),
     {"kind": "Resultant", "pair": [0, 1],
      "resultant": ["141120", "-48384", "0", "352800", "823200", "0"],
      "roots": [{"x1": "0", "gcd": ["1"]}]}, ["resultant"]),
    # the same in d = 3 after x3 = x1 + x2 is eliminated, behind a zero
    # polynomial: the pair keeps its polynomial indices
    (RealPolySystem(3, (MultiPoly.zero(3), Z3 - X3 - Y3, X3 * X3 - Y3,
                        Y3 - X3 ** 4 - const(3, 1))),
     {"kind": "Presolve", "eliminated": [{"poly": 1, "axis": 2}], "free": [],
      "reduced": {"kind": "Resultant", "pair": [2, 3], "resultant": ["1", "0", "-1", "0", "1"],
                  "roots": []}}, ["groebner", "presolve", "resultant"]),
], ids=["parabola-quartic", "suite-unknown-3", "presolved"])
def test_resultant_decides_empty_systems_without_a_radius(monkeypatch, system, certificate,
                                                          pipeline):
    verdict = decide_emptiness(system)
    assert verdict.status == EMPTY and verdict.certificate == certificate
    assert verdict.diagnostics["pipeline"] == pipeline
    if certificate["kind"] == "Presolve":
        system, certificate = _reduced(system, certificate), certificate["reduced"]
    _check_resultant_certificate(system, certificate)
    monkeypatch.setattr(nullsol.variety, "_resultant_stage", lambda terms, diagnostics: None)
    verdict = decide_emptiness(system)
    assert verdict.status == UNKNOWN
    assert verdict.diagnostics["reason"] == "unbounded-no-radius"


@pytest.mark.parametrize("system, status, witness, resultant, pipeline", [
    # the axes meet the unit circle at four points; (-1, 0) is the least
    (sys_of(HYPERBOLA_AXES, CIRCLE), NONEMPTY, (-1, 0),
     {"pair": [0, 1], "degree": 4, "real_roots": 3, "rational_roots": 3}, []),
    # x1 = x2^2 on the circle of radius sqrt(3): r = (x1^2 + x1 - 3)^2 has
    # only irrational roots; the unit-ideal test, which finds no unit and no
    # affine member, and the box search run
    (sys_of(X2 * X2 + Y2 * Y2 - const(2, 3), X2 - Y2 * Y2), UNKNOWN, None,
     {"pair": [0, 1], "degree": 4, "real_roots": 2, "rational_roots": 0},
     ["groebner", "boundedness", "subdivision"]),
    # a polynomial free of x2 is the eliminant: x1 = 2, then x2^2 = 4 - 3
    (sys_of(X2 * X2 + Y2 * Y2 - const(2, 5), X2 * X2 - const(2, 4)), NONEMPTY, (-2, -1),
     {"pair": [1], "degree": 2, "real_roots": 2, "rational_roots": 2}, []),
    # x1 = 0 and x1 = 1 are rational, but x2^2 = 2 and x2^2 = 3 above them
    # are not: no verdict, although every root of r is rational
    (sys_of(X2 * X2 - X2, Y2 * Y2 - X2 - const(2, 2)), UNKNOWN, None,
     {"pair": [0], "degree": 2, "real_roots": 2, "rational_roots": 2},
     ["groebner", "boundedness", "subdivision"]),
], ids=["axes-circle", "irrational", "member", "irrational-lift"])
def test_resultant_diagnostics(system, status, witness, resultant, pipeline):
    verdict = decide_emptiness(system)
    assert verdict.status == status
    assert verdict.witness == (None if witness is None else tuple(map(Fraction, witness)))
    assert verdict.diagnostics["pipeline"] == ["resultant", *pipeline]
    assert verdict.diagnostics["resultant"] == resultant


def test_resultant_stage_stops_at_its_work_bound(monkeypatch):
    # a dense pair of degree 40: 41 * 42 / 2 terms each, so its size,
    # 1601 * 80^3, is far past the bound; the stage ends before any
    # pseudo-remainder
    rng = random.Random(40)
    p, q = ({(i, j): rng.choice([-2, -1, 1, 2]) for i in range(41) for j in range(41 - i)}
            for _ in range(2))
    diagnostics = {"pipeline": []}
    start = time.perf_counter()
    assert nullsol.variety._resultant(p, q) is None
    assert nullsol.variety._resultant_stage(list(enumerate((p, q))), diagnostics) is None
    assert time.perf_counter() - start < 0.1
    assert diagnostics == {"pipeline": []}
    # an eliminant past the bound: the radius proof and subdivision run
    system = sys_of(X2 * X2 - Y2, Y2 - X2 ** 4 - const(2, 1))
    monkeypatch.setattr(nullsol.variety, "_RESULTANT_LIMIT", nullsol.variety._work([1, 0, -1, 0, 1]) - 1)
    verdict = decide_emptiness(system)
    assert "resultant" not in verdict.diagnostics["pipeline"]
    assert verdict.status == UNKNOWN


@pytest.mark.parametrize("power, status, reason", [
    # x2^40 + x2 + 1 > 0: the lift above x1 = 0 is counted empty
    (40, EMPTY, None),
    # x2^41 + x2 + 1 has a real root, not isolated: the stage gives up
    (41, UNKNOWN, "depth-cap"),
], ids=["x2^40", "x2^41"])
def test_lift_past_the_isolation_bound(power, status, reason):
    # the gcd above the root x1 = 0 of x1^2 is past _RESULTANT_LIMIT, within
    # _STURM_LIMIT
    gcd = [1] + [0] * (power - 2) + [1, 1]
    work = nullsol.variety._work(gcd)
    assert nullsol.variety._RESULTANT_LIMIT < work <= nullsol.variety._STURM_LIMIT
    system = sys_of(X2 * X2, Y2 ** power + X2 * Y2 + Y2 + const(2, 1))
    verdict = decide_emptiness(system)
    assert verdict.status == status
    assert verdict.diagnostics.get("reason") == reason
    if status == EMPTY:
        assert verdict.diagnostics["pipeline"] == ["resultant"]
        assert verdict.certificate == {"kind": "Resultant", "pair": [0], "resultant": ["1", "0", "0"],
                                       "roots": [{"x1": "0", "gcd": list(map(str, gcd))}]}
        _check_resultant_certificate(system, verdict.certificate)
    else:
        assert verdict.diagnostics["pipeline"] == ["resultant", "groebner", "boundedness",
                                                   "subdivision"]


def test_quadratic_lift_past_the_isolation_bound():
    # the gcd x2^2 - 9^1000 above the root x1 = 0 of x1^2 is past
    # _RESULTANT_LIMIT: its roots +-3^1000 come from the integer square root
    # of its discriminant, and the lesser one is the least zero
    system = sys_of(X2 * X2, Y2 * Y2 + X2 * Y2 - const(2, 9 ** 1000))
    gcd = [1, 0, -9 ** 1000]
    assert nullsol.variety._work(gcd) > nullsol.variety._RESULTANT_LIMIT
    verdict = decide_emptiness(system)
    assert verdict.status == NONEMPTY and verdict.witness == (0, -3 ** 1000)
    assert verdict.diagnostics["pipeline"] == ["resultant"]
    assert nullsol.variety.gcd_real_roots([{(2,): 1, (0,): -2 * 9 ** 1000}]) == (
        [1, 0, -2 * 9 ** 1000], [None, None])


def test_critical_points_stop_at_the_work_bound(monkeypatch):
    # a dense single polynomial of degree 40: the pair (p, dp/dx2), of size
    # 1561 * 79^3, is far past the bound, so the stage ends before any
    # pseudo-remainder and the radius proof runs next (here stubbed: on
    # degree 80 it alone takes minutes)
    rng = random.Random(41)
    p = MultiPoly(2, {(i, j): rng.choice([-2, -1, 1, 2]) for i in range(41) for j in range(41 - i)})
    monkeypatch.setattr(nullsol.variety, "boundedness_radius", lambda sys: None)
    monkeypatch.setattr(nullsol.variety, "subdivision_search",
                        lambda sys, box, config: nullsol.variety.SubdivisionResult("NoZeroInBox"))
    start = time.perf_counter()
    verdict = decide_emptiness(sys_of(p))
    assert time.perf_counter() - start < 0.25
    assert verdict.diagnostics["pipeline"] == ["groebner", "boundedness", "subdivision"]
    assert verdict.diagnostics["reason"] == "unbounded-no-radius"


@pytest.mark.parametrize("constant, status, reason", [
    # y = x leaves x^2 + 1, sign-definite: EMPTY with no radius
    (1, EMPTY, None),
    # y = x leaves x^2 - 3, whose zeros are irrational
    (-3, UNKNOWN, "depth-cap"),
], ids=["x2+1", "x2-3"])
def test_line_against_a_parabola_in_x(constant, status, reason):
    verdict = decide_emptiness(sys_of(X2 - Y2, X2 * X2 + const(2, constant)))
    assert verdict.status == status
    assert verdict.diagnostics.get("reason") == reason
    assert verdict.diagnostics["presolve"] == {"eliminated": [1], "free": []}
    if status == EMPTY:
        assert verdict.certificate == {"kind": "Presolve", "eliminated": [{"poly": 0, "axis": 1}],
                                       "free": [], "reduced": {"kind": "SignDefinite", "poly": 1}}


# -- stage order ---------------------------------------------------------------


def _seeded_pairs(rng, count):
    """Pairs of random polynomials in d = 1-3 of degree at most 3, each plus a
    multiple of the square of a variable; every other pair is shifted to
    vanish at a planted rational point."""
    systems = []
    for i in range(count):
        dim = rng.randint(1, 3)
        x = [MultiPoly.variable(dim, k) for k in range(dim)]
        polys = [random_multipoly(rng, dim, max_deg=3, max_terms=3, height=5, complex_coeffs=False)
                 + const(dim, rng.choice([-2, -1, 1, 2])) * rng.choice(x) ** 2
                 for _ in range(2)]
        if i % 2:
            z = [random_rational(rng, 3) for _ in range(dim)]
            polys = [p - const(dim, _real_value(p, z)) for p in polys]
        systems.append(RealPolySystem(dim, tuple(polys)))
    return systems


def test_stage_order_changes_no_status(monkeypatch):
    # The unit-ideal test first for every system, as for all but pairs,
    # against the exact stages first for pairs: the same statuses, and every
    # witness an exact zero.
    pairs = _seeded_pairs(random.Random(28), 150)
    cases = ([(s, SUITE_CONFIG) for s in generate_suite(random.Random(2024))]
             + [(s, GUARD_CONFIG) for s in pairs])
    new = [decide_emptiness(s, config) for s, config in cases]
    with monkeypatch.context() as m:
        m.setattr(nullsol.variety, "_exact_first", lambda terms: False)
        old = [decide_emptiness(s, config) for s, config in cases]
    assert [v.status for v in new] == [v.status for v in old]
    for (system, _), verdict in zip(cases, new):
        if verdict.status == NONEMPTY:
            assert exact_common_zero(system, verdict.witness)
    assert all(v.diagnostics["pipeline"][:1] == ["groebner"] for v in old)
    first = Counter(v.status for v in new if "groebner" not in v.diagnostics["pipeline"])
    assert first[EMPTY] >= 20 and first[NONEMPTY] >= 20, first


def test_stage_order_by_polynomial_count():
    # three polynomials start with the unit-ideal test, even when a pair of
    # them would be decided by the resultant
    system = sys_of(X2 * X2 - Y2, Y2 - X2 ** 4 - const(2, 1), X2 * Y2 - const(2, 1))
    assert decide_emptiness(system).diagnostics["pipeline"][0] == "groebner"
    # a pair in d = 3 without a variable to eliminate passes the exact
    # stages undecided; the unit-ideal test then finds the unit
    system = sys_of(X3 * Y3 * Z3 - const(3, 1), X3 * Y3 * Z3 - const(3, 2))
    assert nullsol.variety._exact_first(system.terms)
    verdict = decide_emptiness(system)
    assert verdict.certificate == {"kind": "UnitIdeal"}
    assert verdict.diagnostics == {"pipeline": ["groebner"], "groebner_unit": True}
