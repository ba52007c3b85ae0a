"""Explicit nonzero zero-past solutions with exact residual certificates.

A witness is the symbolic solution  exp(i<x, xi0>) (x) Theta(t), where
Theta vanishes for t <= 0 and equals exp(-1/t) for t > 0.  It solves the
PDE exactly because every T-coefficient of the symbol vanishes at i*xi0.
A :class:`Witness` checks that fact exactly when it is constructed, on
a(i*xi) (or on the pi-grades of a periodic symbol) as Q(i) polynomials, and
raises :class:`CertificateFailure` otherwise, so every Witness that exists
is certified.  Numeric evaluation is a sanity layer only, never part of the
guarantee.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .multipoly import MultiPoly, format_coeff
from .symbols import at_i_xi, pi_grades, t_coefficients


def _value_text(value: tuple) -> str:
    """format_coeff(value), or its size where str() refuses that many digits."""
    try:
        return format_coeff(value)
    except ValueError:
        bits = max(max(abs(x.numerator), x.denominator).bit_length() for x in value)
        return f"a {bits}-bit value"


class CertificateFailure(Exception):
    """A supposed frequency does not annihilate every T-coefficient."""

    def __init__(self, order: int, value: tuple):
        super().__init__(f"coefficient a_{order} does not vanish at the frequency "
                         f"({_value_text(value)} != 0)")
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

    def theta_value(self, t: float) -> float:
        """Theta^(order)(t); identically 0 for t <= 0."""
        if t <= 0:
            return 0.0
        s, acc = 1.0 / t, 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc * math.exp(-s)


def _theta_polys():
    """P_0, P_1, ... by the recurrence, without end."""
    coeffs = (1,)
    for j in itertools.count():
        yield ThetaDerivPoly(j, coeffs)
        # P_j - P_j': coefficient k is c_k - (k + 1) * c_{k+1}
        coeffs = (0, 0) + tuple(c - k * d for k, (c, d) in
                                enumerate(zip(coeffs, coeffs[1:] + (0,)), 1))


def theta_derivatives(n: int) -> list[ThetaDerivPoly]:
    """P_0 .. P_n by the recurrence."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    return list(itertools.islice(_theta_polys(), n + 1))


@dataclass(frozen=True)
class Witness:
    """Symbolic nonzero zero-past solution, certified when it is built.

    The constructor takes the frequency, ``pi_factor`` and the nonzero
    T-coefficients as ``(j, a_j)`` pairs in increasing power j (the zero
    symbol as ``(0, 0)``), checks exactly that every a_j vanishes at the
    frequency (:class:`CertificateFailure` if not) and fills in the other
    fields; the certificate is one exact Q(i) zero per pair.  With
    ``pi_factor`` the frequency is the rational vector v0 of the actual
    frequency 2*pi*v0, the coefficients carry a trailing PI slot and every
    pi-grade is checked at v0; otherwise the frequency is the exact
    rational xi0 itself.
    """

    frequency: tuple[Fraction, ...]
    pi_factor: bool
    coefficients: tuple[tuple[int, MultiPoly], ...]
    certificate: tuple = field(init=False)
    theta_max_order: int = field(init=False)  # the top power of T
    # ExponentialTensorTheta | ConstantTensorTheta | PeriodicExponentialTheta
    kind: str = field(init=False)

    def __post_init__(self):
        freq = tuple(Fraction(f) for f in self.frequency)
        coeffs = tuple(self.coefficients)
        powers = [j for j, _ in coeffs]
        if not powers or powers != sorted(set(powers)) or powers[0] < 0:
            raise ValueError(f"T-coefficient powers {powers} are not increasing from 0 up")
        expected = coeffs[0][1].nvars - self.pi_factor
        if len(freq) != expected:
            raise ValueError(f"frequency has length {len(freq)}, expected {expected}")
        for j, a in coeffs:
            for q in pi_grades(a) if self.pi_factor else (at_i_xi(a),):
                re, im = q.evaluate_real(freq)
                if re or im:
                    raise CertificateFailure(j, (re, im))
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "certificate", ((0, 0),) * len(coeffs))
        object.__setattr__(self, "theta_max_order", powers[-1])
        object.__setattr__(self, "kind", "PeriodicExponentialTheta" if self.pi_factor else
                           "ConstantTensorTheta" if not any(freq) else "ExponentialTensorTheta")


def _coefficients(p: MultiPoly) -> tuple[tuple[int, MultiPoly], ...]:
    return t_coefficients(p) or ((0, MultiPoly.zero(p.nvars - 1)),)


def build_witness(p: MultiPoly, frequency: Sequence[Fraction]) -> Witness:
    """Witness exp(i<x, xi0>) (x) Theta for a symbol whose T-coefficients
    all vanish at i*xi0; raises CertificateFailure otherwise."""
    return Witness(frequency, False, _coefficients(p))


def build_periodic_witness(p: MultiPoly, v0: Sequence[Fraction]) -> Witness:
    """Periodic witness at lattice frequency 2*pi*v0.

    ``p`` must carry the PI slot just before T (lattice-periodic parse
    mode); the certificate is exact because pi is transcendental, see
    :func:`nullsol.symbols.pi_grades`.
    """
    return Witness(v0, True, _coefficients(p))


@dataclass(frozen=True)
class ResidualReport:
    exact_certificate_ok: bool
    max_numeric_residual: float | None
    past_ok: bool
    grid_points: int


def verify_residual(w: Witness,
                    sample_grid: Sequence[tuple[Sequence[float], float]]) -> ResidualReport:
    """Floating-point sweep of the residual of a (certified) witness.

    Each grid entry is (x, t) with t != 0.  It evaluates
    |sum_j a_j(i*xi0) * Theta^(j)(t) * exp(i<x, xi0>)| with the a_j values
    recomputed in floating point, so only rounding noise remains.  P_j is
    built up to the top power of T.  Where a P_j, a coefficient, a frequency
    or a value Theta^(j)(t), even at a zero a_j, is beyond float range,
    ``max_numeric_residual`` is None.  The exact check was done when ``w``
    was constructed; ``exact_certificate_ok`` reports it.
    """
    if any(t == 0 for _, t in sample_grid):
        raise ValueError("grid points must have t != 0")
    thetas = []
    try:
        for th in itertools.islice(_theta_polys(), w.theta_max_order + 1):
            float(max(th.coeffs, key=abs))  # OverflowError once P_j leaves float range
            thetas.append(th)
        freq = [(2 * math.pi if w.pi_factor else 1.0) * float(v) for v in w.frequency]
        cpoint = [1j * f for f in freq] + [complex(math.pi)] * w.pi_factor
        coeff_vals = {j: a.evaluate_complex(cpoint) for j, a in w.coefficients}
        residuals = [0.0]
        for x, t in sample_grid:
            phase = cmath.exp(1j * sum(xi * fi for xi, fi in zip(x, freq)))
            val = sum(coeff_vals.get(th.order, 0j) * th.theta_value(t) for th in thetas)
            residuals.append(abs(val * phase))
    except (OverflowError, ValueError):  # ValueError: cmath.exp of an infinite argument
        residuals = [math.nan]
    max_res = max(residuals) if all(map(math.isfinite, residuals)) else None
    # Theta and all derivatives vanish identically for t < 0 by construction.
    past_ok = all(th.theta_value(-1.0) == 0.0 for th in thetas)
    return ResidualReport(exact_certificate_ok=True, max_numeric_residual=max_res,
                          past_ok=past_ok, grid_points=len(sample_grid))
