"""Exact complex rationals a + b*i: the package's one Q(i) coefficient type.

A value is an immutable ``(re, im)`` tuple of ints or Fractions, so the pair
a polynomial stores is the public value itself.  Polynomial arithmetic
(``multipoly``) unpacks the pairs and builds results with :data:`pair`; the
ring methods here are the reference it is tested against.  No floating
point is involved anywhere on a symbolic path: equality with zero is a
logical claim, not a tolerance check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

_COERCIBLE = (int, Fraction)


def _coerce(other):
    if isinstance(other, GaussianRational):
        return other
    return GaussianRational(other) if isinstance(other, _COERCIBLE) else None


class GaussianRational(namedtuple("_Pair", "re im")):
    """An element of Q(i) as the pair (re, im) of ints or Fractions."""

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        return tuple.__new__(cls, (Fraction(re), Fraction(im)))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self[0] or self[1])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Gaussian rational")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return tuple.__eq__(self, other)
        if isinstance(other, _COERCIBLE):
            return self[0] == other and not self[1]
        return NotImplemented

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


# The trusted constructor: wraps an (re, im) pair of ints/Fractions as is.
pair = partial(tuple.__new__, GaussianRational)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
