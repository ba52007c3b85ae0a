"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; the generated
emptiness suite is checked against an independent dense-grid oracle.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest

from nullsol.classifier import NONTRIVIAL, TRIVIAL, UNKNOWN, SolutionSpace, classify
from nullsol.cli import EXIT_OK, main as cli_main
from nullsol.config import SolverConfig
from nullsol.multipoly import MultiPoly
from nullsol.parser import parse, print_canonical
from nullsol.symbols import RealPolySystem
from nullsol.variety import EMPTY, NONEMPTY, boundedness_radius, decide_emptiness
from nullsol.witness import theta_derivatives, verify_residual

from helpers import (
    evaluate,
    exact_common_zero,
    grid_min_sum_squares,
    rational_enclose,
    random_multipoly,
    random_point,
)


def report(capsys, number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # leave one visible pass/fail line per criterion even under capture
    with capsys.disabled():
        print(f"criterion {number}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


ALL_NONPERIODIC = [s for s in SolutionSpace if s is not SolutionSpace.PERIODIC]


def test_criterion_1_diffusion_fixture(capsys):
    p, _ = parse("T - (X1^2+X2^2+X3^2)")
    st = {s: classify(p, s) for s in ALL_NONPERIODIC}
    ok = (st[SolutionSpace.SMOOTH].status == NONTRIVIAL
          and st[SolutionSpace.DISTRIBUTIONS].status == NONTRIVIAL
          and all(st[s].status == TRIVIAL for s in ALL_NONPERIODIC
                  if s not in (SolutionSpace.SMOOTH, SolutionSpace.DISTRIBUTIONS)))
    tempered = st[SolutionSpace.SPATIALLY_TEMPERED]
    ok = ok and tempered.rule == "content-variety-empty"
    ok = ok and tempered.evidence["emptiness"].certificate["kind"] == "UnitIdeal"
    report(capsys, 1, ok, "diffusion table row")


def test_criterion_2_klein_gordon_fixture(capsys):
    p, _ = parse("T^2 - (X1^2+X2^2+X3^2) + 1")
    verdicts = {s: classify(p, s) for s in ALL_NONPERIODIC}
    ok = all(v.status == TRIVIAL for v in verdicts.values())
    ok = ok and verdicts[SolutionSpace.SMOOTH].rule == "degree-preservation"
    report(capsys, 2, ok, "trivial in every space")


def test_criterion_3_mixed_derivative_fixture(capsys):
    p, _ = parse("X1*X2*T")
    v = classify(p, SolutionSpace.SPATIALLY_TEMPERED)
    ok = v.status == NONTRIVIAL and v.witness is not None
    w = v.witness
    ok = ok and any(f == 0 for f in w.frequency)
    ok = ok and all(x == (0, 0) for x in w.certificate)
    grid = [((x1, x2), t) for x1 in (-1.0, 0.0, 1.0)
            for x2 in (-1.0, 0.0, 1.0) for t in (0.5, 1.0, 2.0)]
    rep = verify_residual(w, grid)
    ok = ok and rep.exact_certificate_ok and rep.max_numeric_residual < 1e-12
    report(capsys, 3, ok, f"witness frequency {tuple(map(str, w.frequency))}, "
                  f"residual {rep.max_numeric_residual:.2e}")


# -- generated emptiness suite --------------------------------------------

SUITE_CONFIG = SolverConfig(max_depth=14, default_box_halfwidth=Fraction(16),
                            groebner_cap=2000)


def _planted_system(rng):
    """Polys of the form (b*Xk - a) * monomial; common zero at Xk = a/b."""
    d = rng.choice([1, 2])
    polys = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(d)
        a, b = rng.randint(-8, 8), rng.choice([1, 2])
        linear = MultiPoly(d, {tuple(int(j == k) for j in range(d)): b,
                               (0,) * d: -a})
        exps = [0] * d
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(d)] += 1
        mono = MultiPoly(d, {tuple(exps): rng.choice([1, -1])})
        polys.append(linear * mono)
    return RealPolySystem(d, tuple(polys))


def _posdef_system(rng):
    d = rng.choice([1, 2])
    e = rng.choice([1, 2])
    terms = {(0,) * d: rng.randint(1, 8)}
    for k in range(d):
        exps = [0] * d
        exps[k] = 2 * e
        terms[tuple(exps)] = rng.randint(1, 8)
    return RealPolySystem(d, (MultiPoly(d, terms),))


def _inconsistent_system(rng):
    d = rng.choice([1, 2])
    while True:
        q = random_multipoly(rng, d, max_deg=4, max_terms=4, complex_coeffs=False)
        if not q.is_constant():
            break
    c = MultiPoly.constant(d, rng.randint(1, 8))
    return RealPolySystem(d, (q, q + c))


def _sphere_system(rng):
    d = 2
    u, v = rng.randint(0, 2), rng.randint(0, 2)
    w = rng.randint(1, 2)
    x = MultiPoly.variable(2, 0) - MultiPoly.constant(2, u)
    y = MultiPoly.variable(2, 1) - MultiPoly.constant(2, v)
    q = x * x + y * y - MultiPoly.constant(2, w * w)
    return RealPolySystem(d, (q,))


def _random_system(rng):
    d = rng.choice([1, 2])
    polys = tuple(random_multipoly(rng, d, max_deg=4, max_terms=4,
                                   complex_coeffs=False)
                  for _ in range(rng.randint(1, 2)))
    return RealPolySystem(d, polys)


def generate_suite(rng):
    makers = ([_planted_system] * 30 + [_posdef_system] * 25
              + [_inconsistent_system] * 25 + [_sphere_system] * 15
              + [_random_system] * 15)
    suite = [make(rng) for make in makers]
    for sys in suite:
        assert sys.dimension <= 2
        for p in sys.polys:
            assert p.total_degree() <= 4 or p.is_zero()
            for c in p.terms.values():
                assert abs(c[0]) <= 8 and c[1] == 0
    return suite


@pytest.fixture(scope="module")
def suite_verdicts():
    rng = random.Random(2024)
    suite = generate_suite(rng)
    return [(sys, decide_emptiness(sys, SUITE_CONFIG)) for sys in suite]


def test_criterion_4_oracle_equivalence(suite_verdicts, capsys):
    disagreements = 0
    unknown = 0
    for sys, verdict in suite_verdicts:
        if verdict.status == UNKNOWN:
            unknown += 1
            continue
        if verdict.status == NONEMPTY:
            if not exact_common_zero(sys, verdict.witness):
                disagreements += 1
            continue
        # EMPTY: dense grid over the certified box (default box for the
        # unit-ideal shortcut, which rules out all complex zeros)
        cert = verdict.certificate
        if cert["kind"] == "ExhaustiveSubdivision":
            half = float(Fraction(cert["radius"]))
        else:
            half = float(SUITE_CONFIG.default_box_halfwidth)
        m = grid_min_sum_squares(sys, -half, half)
        if m <= 1e-6:
            disagreements += 1
    rate = unknown / len(suite_verdicts)
    ok = disagreements == 0 and rate < 0.05
    report(capsys, 4, ok, f"{len(suite_verdicts)} systems, 0 disagreements required "
                  f"(got {disagreements}), UNKNOWN rate {rate:.1%}")


def test_criterion_5_boundedness_soundness(suite_verdicts, capsys):
    checked = 0
    violations = 0
    for sys, _ in suite_verdicts:
        polys = tuple(p for p in sys.polys if not p.is_zero())
        if not polys or all(p.is_constant() for p in polys):
            continue
        clean = RealPolySystem(sys.dimension, polys)
        r0 = boundedness_radius(clean)
        if r0 is None:
            continue
        checked += 1
        m = grid_min_sum_squares(clean, -2 * float(r0), 2 * float(r0),
                                 exclude_halfwidth=float(r0))
        if m < 1e-6:
            violations += 1
    ok = violations == 0 and checked > 0
    report(capsys, 5, ok, f"{checked} certified radii, {violations} annulus violations")


def test_criterion_6_theta_derivatives(capsys):
    polys = theta_derivatives(4)

    def theta0(t):
        return math.exp(-1.0 / t) if t > 0 else 0.0

    def richardson(f, t, h):
        d1 = (f(t + h) - f(t - h)) / (2 * h)
        d2 = (f(t + h / 2) - f(t - h / 2)) / h
        return (4 * d2 - d1) / 3

    worst = 0.0
    ok = True
    for j in range(1, 5):
        base = theta0 if j == 1 else polys[j - 1].theta_value
        for t in (0.5, 1.0, 2.0):
            fd = richardson(base, t, 1e-3)
            exact = polys[j].theta_value(t)
            # relative error with an absolute floor: theta''(1/2) is exactly 0
            rel = abs(fd - exact) / max(abs(exact), 1.0)
            worst = max(worst, rel)
            ok = ok and rel <= 1e-6
    report(capsys, 6, ok, f"P1..P4 vs central differences, worst rel error {worst:.2e}")


def test_criterion_7_periodic_fixtures(capsys):
    code1 = cli_main(["periodic", "X1^2*T + 4*PI^2*T", "--lattice", "1",
                      "--output", "json", "--no-timing"])
    out1 = capsys.readouterr().out
    rep1 = json.loads(out1)
    [v1] = rep1["verdicts"]
    ok = (code1 == EXIT_OK and v1["status"] == NONTRIVIAL
          and v1["evidence"]["lattice_point"] == [1]
          and v1["witness"]["exact_certificate_ok"] is True)

    code2 = cli_main(["periodic", "T - X1^2", "--lattice", "1",
                      "--output", "json", "--no-timing"])
    out2 = capsys.readouterr().out
    rep2 = json.loads(out2)
    [v2] = rep2["verdicts"]
    ok = ok and code2 == EXIT_OK and v2["status"] == TRIVIAL
    report(capsys, 7, ok, "resonance at k=1; trivial companion")


def test_criterion_8_property_suites(capsys):
    rng = random.Random(99)
    ok = True

    # ring laws + evaluation homomorphism, 1000 random triples
    for _ in range(1000):
        a = random_multipoly(rng, 2, max_deg=3, max_terms=4, height=4)
        b = random_multipoly(rng, 2, max_deg=3, max_terms=4, height=4)
        c = random_multipoly(rng, 2, max_deg=3, max_terms=4, height=4)
        ok = ok and (a + b) + c == a + (b + c) and a + b == b + a
        ok = ok and (a * b) * c == a * (b * c) and a * b == b * a
        ok = ok and a * (b + c) == a * b + a * c
        pt = random_point(rng, 2, height=3)
        ok = ok and evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)
        ok = ok and evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
        if not ok:
            break

    # parser round-trip, 500 random polynomials
    for _ in range(500):
        nvars = rng.randint(1, 3)
        p = random_multipoly(rng, nvars, max_deg=4, max_terms=5)
        q, _ = parse(print_canonical(p), dim=nvars - 1)
        ok = ok and q == p
        if not ok:
            break

    # interval enclosure, 1000 random (poly, box, point) triples
    for _ in range(1000):
        p = random_multipoly(rng, 2, max_deg=4, max_terms=4, complex_coeffs=False)
        lo1, hi1 = sorted(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                          for _ in range(2))
        lo2, hi2 = sorted(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                          for _ in range(2))
        box = ((lo1, hi1), (lo2, hi2))
        pt = (lo1 + (hi1 - lo1) * Fraction(rng.randint(0, 16), 16),
              lo2 + (hi2 - lo2) * Fraction(rng.randint(0, 16), 16))
        val = evaluate(p, [pt[0], pt[1]]).re
        lo, hi = rational_enclose(p.real_terms(), box)
        ok = ok and lo <= val <= hi
        if not ok:
            break

    # subdivision determinism: identical JSON over repeated runs
    outputs = []
    for _ in range(3):
        code = cli_main(["classify", "(X1^2+X2^2+1)*(T+1)", "--space", "tempered",
                         "--output", "json", "--no-timing"])
        outputs.append(capsys.readouterr().out)
        ok = ok and code == EXIT_OK
    ok = ok and len(set(outputs)) == 1

    report(capsys, 8, ok, "ring laws x1000, round-trip x500, enclosure x1000, "
                  "run determinism")
