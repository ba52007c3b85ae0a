import cmath
import dataclasses
import math
from fractions import Fraction

import pytest

from nullsol.parser import parse
from nullsol.symbols import t_coefficients
from nullsol.witness import (
    CertificateFailure,
    Witness,
    build_periodic_witness,
    build_witness,
    theta_derivatives,
    verify_residual,
)

from helpers import GaussianRational, evaluate


def theta(t: float) -> float:
    return math.exp(-1.0 / t) if t > 0 else 0.0


def test_recurrence_first_polys():
    polys = theta_derivatives(3)
    assert polys[0].coeffs == (1,)
    assert polys[1].coeffs == (0, 0, 1)            # s^2
    assert polys[2].coeffs == (0, 0, 0, -2, 1)     # s^4 - 2*s^3
    # P3 = s^6 - 6*s^5 + 6*s^4
    assert polys[3].coeffs == (0, 0, 0, 0, 6, -6, 1)
    # the recurrence keeps the leading coefficient 1, in degree 2j
    for j, p in enumerate(theta_derivatives(12)):
        assert len(p.coeffs) == 2 * j + 1 and p.coeffs[-1] == 1


def test_derivatives_match_finite_differences():
    # j-th derivative at t compared against a central difference of the
    # (j-1)-th, which is itself evaluated through the recurrence
    polys = theta_derivatives(4)
    h = 1e-5
    for j in range(1, 5):
        for t in (0.5, 1.0, 2.0):
            fd = (polys[j - 1].theta_value(t + h)
                  - polys[j - 1].theta_value(t - h)) / (2 * h)
            exact = polys[j].theta_value(t)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_vanishing_past_and_flatness_at_zero():
    polys = theta_derivatives(4)
    for p in polys:
        assert p.theta_value(-1.0) == 0.0
        assert p.theta_value(0.0) == 0.0
    # right-sided flatness: derivatives tend to 0 as t -> 0+
    for k in range(1, 7):
        t = 10.0 ** -k
        assert abs(polys[4].theta_value(t)) < 1e-6 or t > 1e-2
    assert abs(polys[4].theta_value(1e-6)) < 1e-300


def test_theta_derivatives_rejects_negative():
    with pytest.raises(ValueError):
        theta_derivatives(-1)


def test_build_witness_axis_frequency():
    p, _ = parse("(X1^2+X2^2+1)*(T+1)")
    w = build_witness(p, [Fraction(1), Fraction(0)])
    assert w.kind == "ExponentialTensorTheta"
    assert all(v == (0, 0) for v in w.certificate)
    report = verify_residual(w, [((x1, x2), t)
                                 for x1 in (-1.0, 0.0, 1.0)
                                 for x2 in (-1.0, 0.0, 1.0)
                                 for t in (0.5, 1.0, 2.0)])
    assert report.exact_certificate_ok
    assert report.past_ok
    assert report.grid_points == 27
    assert report.max_numeric_residual < 1e-12


def test_build_witness_zero_frequency():
    p, _ = parse("X1*X2*T")
    w = build_witness(p, [Fraction(0), Fraction(0)])
    assert w.kind == "ConstantTensorTheta"
    # only the nonzero a_1 = X1*X2 is kept, with its power
    assert [j for j, _ in w.coefficients] == [1]
    assert (w.certificate, w.theta_max_order) == (((0, 0),), 1)


def test_build_witness_rejects_bad_frequency():
    p, _ = parse("T - X1^2")
    with pytest.raises(CertificateFailure) as e:
        build_witness(p, [Fraction(1)])
    assert e.value.order in (0, 1)
    with pytest.raises(ValueError):
        build_witness(p, [Fraction(1), Fraction(2)])


@pytest.mark.parametrize("text, value", [
    ("T - X1^2", GaussianRational(1)),          # a_0(i) = 1
    ("X1*T - X1", GaussianRational(0, -1)),     # a_0(i) = -i, a purely imaginary value
])
def test_certificate_failure_reports_the_exact_value(text, value):
    # the slice-part check reports a_j(i*xi0), as ring evaluation gives it
    p, _ = parse(text)
    with pytest.raises(CertificateFailure) as e:
        build_witness(p, [Fraction(1)])
    assert e.value.order == 0 and e.value.value == value
    assert value == evaluate(dict(t_coefficients(p))[0], [GaussianRational(0, 1)])


def test_witness_is_checked_when_constructed():
    # no Witness exists unchecked: direct construction and dataclasses.replace
    # run the exact certificate check too
    p, _ = parse("T - X1^2")
    coeffs = t_coefficients(p)
    with pytest.raises(CertificateFailure) as e:
        Witness((Fraction(1),), False, coeffs)
    assert (e.value.order, e.value.value) == (0, GaussianRational(1))
    w = Witness((Fraction(0),), False, coeffs[:1])  # the symbol -X1^2
    assert (w.kind, w.certificate, w.theta_max_order) == ("ConstantTensorTheta", ((0, 0),), 0)
    with pytest.raises(CertificateFailure):
        dataclasses.replace(w, coefficients=coeffs)
    with pytest.raises(ValueError):
        dataclasses.replace(w, certificate=(0,))
    with pytest.raises(ValueError):
        Witness((Fraction(0), Fraction(0)), False, coeffs[:1])
    # the powers must increase from 0 up, and there must be one at least
    for bad in ((), coeffs[::-1], coeffs[:1] * 2, ((-1, coeffs[0][1]),)):
        with pytest.raises(ValueError, match="not increasing"):
            Witness((Fraction(0),), False, bad)


def test_periodic_witness_kind_at_zero_frequency():
    # pi_factor decides the kind, even at v0 = 0
    p, _ = parse("X1*X2*T - X1*X2", dim=2, allow_pi=True)
    w = build_periodic_witness(p, [Fraction(0), Fraction(0)])
    assert w.kind == "PeriodicExponentialTheta"
    assert w == Witness((0, 0), True, t_coefficients(p))


def test_verify_residual_rejects_t_zero():
    p, _ = parse("X1*X2*T")
    w = build_witness(p, [Fraction(0), Fraction(0)])
    with pytest.raises(ValueError):
        verify_residual(w, [((0.0, 0.0), 0.0)])


def test_periodic_witness():
    p, _ = parse("X1^2*T + 4*PI^2*T", dim=1, allow_pi=True)
    w = build_periodic_witness(p, [Fraction(1)])
    assert w.kind == "PeriodicExponentialTheta"
    assert w.pi_factor
    assert len(w.certificate) == 1  # one entry per nonzero T-coefficient: a_1 only
    assert all(v == (0, 0) for v in w.certificate)
    report = verify_residual(w, [((x,), t) for x in (-1.0, 0.0, 1.0)
                                 for t in (0.5, 1.0, 2.0)])
    assert report.exact_certificate_ok
    assert report.max_numeric_residual < 1e-9


def test_periodic_witness_rejects_non_resonant():
    p, _ = parse("T - X1^2", dim=1, allow_pi=True)
    with pytest.raises(CertificateFailure):
        build_periodic_witness(p, [Fraction(1)])


def _reference_residual(w, grid):
    """max_numeric_residual by the dense sum over every power 0..n with
    theta_derivatives(n), a zero a_j included as 0; None where it overflows."""
    coeffs = dict(w.coefficients)
    freq = [(2 * math.pi if w.pi_factor else 1.0) * float(v) for v in w.frequency]
    point = [1j * f for f in freq] + [complex(math.pi)] * w.pi_factor
    thetas = theta_derivatives(w.theta_max_order)
    values = [coeffs[j].evaluate_complex(point) if j in coeffs else 0j for j in range(len(thetas))]
    try:
        res = [abs(sum(c * th.theta_value(t) for c, th in zip(values, thetas))
                   * cmath.exp(1j * sum(xi * fi for xi, fi in zip(x, freq)))) for x, t in grid]
    except OverflowError:
        return None
    return max(res) if all(map(math.isfinite, res)) else None


@pytest.mark.parametrize("text, freq, periodic", [
    *((f"X1*T^{n}", 0, False) for n in (0, 1, 150, 151, 167, 168, 169)),
    # a(i/10) is float noise, not 0, so the sums are nonzero below the limit
    *((f"(X1^2+1/100)*T^{n}", Fraction(1, 10), False) for n in (1, 150, 151, 168)),
    # zero interior coefficients, on both sides of the limit
    ("(X1^2+1/100)*(T^150 + T^3)", Fraction(1, 10), False),
    ("(X1^2+1/100)*(T^160 + T^3)", Fraction(1, 10), False),
    ("X1*(T^200 + 1)", 0, False),
    ("(X1^2+4*PI^2)*(T^150 + T)", 1, True),
])
def test_residual_at_the_float_range_boundary(text, freq, periodic):
    # P_j leaves float range at j = 168, and Theta^(j)(1/2) from j = 151
    p, _ = parse(text, dim=1, allow_pi=periodic)
    w = (build_periodic_witness if periodic else build_witness)(p, [freq])
    grid = [((x,), t) for x in (0.0, 1.0, -1.0) for t in (0.5, 1.0, 2.0)]
    expected = _reference_residual(w, grid)
    assert verify_residual(w, grid).max_numeric_residual == expected
    assert (expected is None) == (w.theta_max_order > 150)
