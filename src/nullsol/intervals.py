"""Interval enclosures with exact rational endpoints.

A box is a tuple of ``(lo, hi)`` Fraction pairs, one per coordinate, and an
enclosure is one such pair.  No directed rounding is needed: endpoints are
Fractions, so every interval operation is exact and the fundamental
enclosure property (the interval evaluation of a polynomial over a box
contains every value the polynomial takes inside the box) holds without any
floating-point caveats.
"""

from __future__ import annotations

from fractions import Fraction

Box = tuple[tuple[Fraction, Fraction], ...]


def cube(dim: int, halfwidth) -> Box:
    h = Fraction(halfwidth)
    return ((-h, h),) * dim


def midpoint(box: Box) -> tuple[Fraction, ...]:
    return tuple((lo + hi) / 2 for lo, hi in box)


def split(box: Box) -> tuple[Box, Box]:
    """Halve the widest coordinate; ties go to the lowest index."""
    widths = [hi - lo for lo, hi in box]
    k = widths.index(max(widths))
    lo, hi = box[k]
    m = (lo + hi) / 2
    return box[:k] + ((lo, m),) + box[k + 1:], box[:k] + ((m, hi),) + box[k + 1:]


def _power(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, Fraction]:
    if n % 2 == 1 or lo >= 0:
        return lo ** n, hi ** n
    if hi <= 0:
        return hi ** n, lo ** n
    # Even power of an interval straddling zero.
    return Fraction(0), max(lo ** n, hi ** n)


def enclose(terms: dict[tuple[int, ...], Fraction], box: Box) -> tuple[Fraction, Fraction]:
    """Interval enclosure ``(lo, hi)`` of a real polynomial (term dict) over a box."""
    acc_lo = acc_hi = Fraction(0)
    for exps, coeff in terms.items():
        lo = hi = coeff
        for (blo, bhi), e in zip(box, exps):
            if e:
                plo, phi = _power(blo, bhi, e)
                products = (lo * plo, lo * phi, hi * plo, hi * phi)
                lo, hi = min(products), max(products)
        acc_lo += lo
        acc_hi += hi
    return acc_lo, acc_hi
