"""Exact interval enclosures on Python integers over a dyadic denominator.

The solver's boxes are dyadic subdivisions of one rational box.  With ``q``
the lcm of that box's endpoint denominators, a box is ``(k, ((a, b), ...))``
with integer numerators: coordinate i ranges over ``[a/(q*2^k), b/(q*2^k)]``.
An integer polynomial (``RealPolySystem.terms``, cleared of denominators
once) is put over ``q`` once per box tree (:func:`clear`), and
:func:`enclose` returns integers ``(lo, hi)`` that bound it on a box up to
the positive factor ``1/scale(poly, q, k)``.

No directed rounding is needed and nothing is approximated: the integer
enclosure is exactly the rational interval enclosure times that factor, so
its sign, and every decision taken on it, is exact.  The fundamental
enclosure property (the interval evaluation of a polynomial over a box
contains every value the polynomial takes inside the box) holds without any
floating-point caveats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

Box = tuple[tuple[Fraction, Fraction], ...]
DyadicBox = tuple[int, tuple[tuple[int, int], ...]]


class IntPoly(NamedTuple):
    """An integer polynomial cleared for boxes over ``q``: one term
    ``(c * q^(D-|e|), D-|e|, ((axis, e), ...))`` per monomial ``c * x^e``."""

    terms: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    degree: int   # D, the total degree


def cube(dim: int, halfwidth) -> Box:
    h = Fraction(halfwidth)
    return ((-h, h),) * dim


def dyadic(box: Box) -> tuple[int, DyadicBox]:
    """``(q, (0, numerators))``: a rational box over its least common denominator."""
    q = math.lcm(*(x.denominator for pair in box for x in pair))
    return q, (0, tuple((int(lo * q), int(hi * q)) for lo, hi in box))


def clear(terms: dict[tuple[int, ...], int], q: int) -> IntPoly:
    """An integer term dict cleared for boxes and points over ``q``."""
    degree = max((sum(e) for e in terms), default=0)
    return IntPoly(tuple((c * q ** (degree - sum(e)), degree - sum(e),
                          tuple((i, n) for i, n in enumerate(e) if n))
                         for e, c in terms.items()), degree)


def scale(poly: IntPoly, q: int, k: int) -> int:
    """``(q*2^k)^D``: an enclosure on a level-k box, divided by this, bounds p."""
    return (q << k) ** poly.degree


def midpoint(box: DyadicBox) -> tuple[tuple[int, ...], int]:
    """The centre as numerators over ``q * 2^(k+1)``, given as ``(numerators, 2^(k+1))``."""
    k, coords = box
    return tuple(a + b for a, b in coords), 2 << k


def split(box: DyadicBox) -> tuple[DyadicBox, DyadicBox]:
    """Halve the widest coordinate; ties go to the lowest index."""
    k, coords = box
    widths = [b - a for a, b in coords]
    i = widths.index(max(widths))
    a, b = coords[i]
    if (a + b) % 2:
        k += 1
        coords = tuple((2 * lo, 2 * hi) for lo, hi in coords)
        a, b = coords[i]
    m = (a + b) // 2
    return ((k, coords[:i] + ((a, m),) + coords[i + 1:]),
            (k, coords[:i] + ((m, b),) + coords[i + 1:]))


def enclose(poly: IntPoly, box: DyadicBox) -> tuple[int, int]:
    """Integer enclosure ``(lo, hi)`` of a cleared polynomial over a box.

    Each term's monomial range is exact (a product of independent power
    ranges), and its coefficient carries the ``2^(k*(D-|e|))`` that puts it
    over the common denominator ``(q*2^k)^D``.
    """
    k, coords = box
    acc_lo = acc_hi = 0
    for c, codeg, factors in poly.terms:
        lo = hi = 1
        for axis, n in factors:
            a, b = coords[axis]
            if n % 2 == 1 or a >= 0:
                plo, phi = a ** n, b ** n
            elif b <= 0:
                plo, phi = b ** n, a ** n
            else:
                # Even power of an interval straddling zero.
                plo, phi = 0, max(a ** n, b ** n)
            if lo >= 0 and plo >= 0:
                lo, hi = lo * plo, hi * phi
            else:
                products = (lo * plo, lo * phi, hi * plo, hi * phi)
                lo, hi = min(products), max(products)
        c <<= k * codeg
        if c > 0:
            acc_lo += c * lo
            acc_hi += c * hi
        else:
            acc_lo += c * hi
            acc_hi += c * lo
    return acc_lo, acc_hi
