"""Explicit nonzero zero-past solutions with exact residual certificates.

A witness is the symbolic solution  exp(i<x, xi0>) (x) Theta(t), where
Theta vanishes for t <= 0 and equals exp(-1/t) for t > 0.  It solves the
PDE exactly because every T-coefficient of the symbol vanishes at i*xi0;
the certificate stores those exact zero values, checked on the real and
imaginary parts of the imaginary-axis slice (or of the pi-grades).  Numeric
evaluation is a sanity layer only, never part of the guarantee.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gaussian import ZERO, pair
from .multipoly import MultiPoly
from .symbols import pi_grades, substitute_i_xi


class CertificateFailure(Exception):
    """A supposed frequency does not annihilate every T-coefficient."""

    def __init__(self, order: int, value):
        super().__init__(f"coefficient a_{order} does not vanish at the frequency "
                         f"({value} != 0)")
        self.order = order
        self.value = value


@dataclass(frozen=True)
class ThetaDerivPoly:
    """P_j with Theta^(j)(t) = P_j(1/t) * exp(-1/t) for t > 0.

    Recurrence: P_0 = 1 and P_{j+1}(s) = s^2 * (P_j(s) - P_j'(s)).
    Coefficient k is the integer coefficient of s^k.
    """

    order: int
    coeffs: tuple[int, ...]

    def eval_at(self, s: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def theta_value(self, t: float) -> float:
        """Theta^(order)(t); identically 0 for t <= 0."""
        if t <= 0:
            return 0.0
        return self.eval_at(1.0 / t) * math.exp(-1.0 / t)


def theta_derivatives(n: int) -> list[ThetaDerivPoly]:
    """P_0 .. P_n by the recurrence."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    polys = [ThetaDerivPoly(0, (1,))]
    coeffs = [1]
    for j in range(n):
        deriv = [k * coeffs[k] for k in range(1, len(coeffs))]
        diff = [c - (deriv[k] if k < len(deriv) else 0) for k, c in enumerate(coeffs)]
        coeffs = [0, 0] + diff
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        polys.append(ThetaDerivPoly(j + 1, tuple(coeffs)))
    return polys


@dataclass(frozen=True)
class Witness:
    """Symbolic nonzero zero-past solution plus its exact certificate.

    For the periodic kind the stored frequency is the rational vector v0
    with actual frequency 2*pi*v0 (pi_factor True), the coefficient
    polynomials carry a trailing PI slot, and the certificate checks every
    pi-grade of every coefficient at v0; otherwise the frequency is the
    exact rational xi0 itself.  Certificate entries are exact Q(i) zeros.
    """

    kind: str  # ExponentialTensorTheta | ConstantTensorTheta | PeriodicExponentialTheta
    frequency: tuple[Fraction, ...]
    pi_factor: bool
    theta: tuple[ThetaDerivPoly, ...]
    certificate: tuple
    coeff_polys: tuple[MultiPoly, ...]

    def complex_point(self) -> list[complex]:
        if self.pi_factor:
            pt = [2j * math.pi * float(v) for v in self.frequency]
            pt.append(complex(math.pi))
            return pt
        return [1j * float(f) for f in self.frequency]

    def frequency_floats(self) -> list[float]:
        scale = 2 * math.pi if self.pi_factor else 1.0
        return [scale * float(v) for v in self.frequency]


def _check_certificate(coeff_polys: Sequence[MultiPoly], frequency: Sequence[Fraction],
                       pi_graded: bool = False) -> tuple:
    """Exact zero value of each coefficient at the frequency, or CertificateFailure.

    a_j(i*xi0) = 0 exactly when both parts of ``substitute_i_xi(a_j)`` vanish
    at xi0.  With ``pi_graded`` the coefficients carry a PI slot and the
    frequency is v0: a_j vanishes at 2*pi*i*v0 iff both parts of each of its
    pi-grades vanish at v0.
    """
    for j, a in enumerate(coeff_polys):
        values = ([q.evaluate_real(frequency) for q in pi_grades(a)] if pi_graded else
                  [tuple(part.evaluate_real(frequency)[0] for part in substitute_i_xi(a))])
        for re, im in values:
            if re or im:
                raise CertificateFailure(j, pair((re, im)))
    return (ZERO,) * len(coeff_polys)


def _witness(p: MultiPoly, kind: str, frequency: tuple[Fraction, ...],
             pi_factor: bool) -> Witness:
    coeff_polys = tuple(p.coefficients_in_T()) or (MultiPoly.zero(p.nvars - 1),)
    return Witness(kind=kind, frequency=frequency, pi_factor=pi_factor,
                   theta=tuple(theta_derivatives(len(coeff_polys) - 1)),
                   certificate=_check_certificate(coeff_polys, frequency, pi_factor),
                   coeff_polys=coeff_polys)


def build_witness(p: MultiPoly, frequency: Sequence[Fraction]) -> Witness:
    """Witness exp(i<x, xi0>) (x) Theta for a symbol whose T-coefficients
    all vanish at i*xi0; raises CertificateFailure otherwise."""
    freq = tuple(Fraction(f) for f in frequency)
    if len(freq) != p.nvars - 1:
        raise ValueError(f"frequency has length {len(freq)}, expected {p.nvars - 1}")
    kind = "ConstantTensorTheta" if all(f == 0 for f in freq) else "ExponentialTensorTheta"
    return _witness(p, kind, freq, False)


def build_periodic_witness(p: MultiPoly, v0: Sequence[Fraction]) -> Witness:
    """Periodic witness at lattice frequency 2*pi*v0.

    ``p`` must carry the PI slot just before T (lattice-periodic parse
    mode); the certificate is exact because pi is transcendental, see
    :func:`nullsol.symbols.pi_grades`.
    """
    v = tuple(Fraction(x) for x in v0)
    if len(v) != p.nvars - 2:
        raise ValueError(f"frequency has length {len(v)}, expected {p.nvars - 2}")
    return _witness(p, "PeriodicExponentialTheta", v, True)


@dataclass(frozen=True)
class ResidualReport:
    exact_certificate_ok: bool
    max_numeric_residual: float
    past_ok: bool
    grid_points: int


def verify_residual(w: Witness,
                    sample_grid: Sequence[tuple[Sequence[float], float]]) -> ResidualReport:
    """Exact re-check of the certificate plus a floating-point sweep.

    Each grid entry is (x, t) with t != 0.  The numeric layer evaluates
    |sum_j a_j(i*xi0) * Theta^(j)(t) * exp(i<x, xi0>)| with the a_j values
    recomputed in floating point, so only rounding noise remains.
    """
    _check_certificate(w.coeff_polys, w.frequency, w.pi_factor)
    cpoint = w.complex_point()
    coeff_vals = [a.evaluate_complex(cpoint) for a in w.coeff_polys]
    freq = w.frequency_floats()
    max_res = 0.0
    for x, t in sample_grid:
        if t == 0:
            raise ValueError("grid points must have t != 0")
        phase = cmath.exp(1j * sum(xi * fi for xi, fi in zip(x, freq)))
        val = sum(c * th.theta_value(t) for c, th in zip(coeff_vals, w.theta))
        max_res = max(max_res, abs(val * phase))
    # Theta and all derivatives vanish identically for t < 0 by construction.
    past_ok = all(th.theta_value(-1.0) == 0.0 for th in w.theta)
    return ResidualReport(exact_certificate_ok=True, max_numeric_residual=max_res,
                          past_ok=past_ok, grid_points=len(sample_grid))
