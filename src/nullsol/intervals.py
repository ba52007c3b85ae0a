"""Interval arithmetic with exact rational endpoints.

No directed rounding is needed: endpoints are Fractions, so every interval
operation is exact and the fundamental enclosure property (the interval
evaluation of a polynomial over a box contains every value the polynomial
takes inside the box) holds without any floating-point caveats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @classmethod
    def of(cls, lo, hi) -> "Interval":
        return cls(Fraction(lo), Fraction(hi))

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    def scale(self, c: Fraction) -> "Interval":
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def power(self, n: int) -> "Interval":
        if n == 0:
            return Interval.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return Interval(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return Interval(self.hi ** n, self.lo ** n)
        # Even power of an interval straddling zero.
        return Interval(Fraction(0), max(self.lo ** n, self.hi ** n))


@dataclass(frozen=True)
class IntervalBox:
    """Axis-aligned box with exact rational corners."""

    intervals: tuple[Interval, ...]

    @classmethod
    def cube(cls, dim: int, halfwidth) -> "IntervalBox":
        h = Fraction(halfwidth)
        return cls(tuple(Interval(-h, h) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def midpoint(self) -> tuple[Fraction, ...]:
        return tuple(iv.midpoint() for iv in self.intervals)

    def widest_axis(self) -> int:
        """Index of the widest coordinate; ties broken by lowest index."""
        best, best_w = 0, self.intervals[0].width()
        for k, iv in enumerate(self.intervals[1:], start=1):
            w = iv.width()
            if w > best_w:
                best, best_w = k, w
        return best

    def split(self) -> tuple["IntervalBox", "IntervalBox"]:
        k = self.widest_axis()
        iv = self.intervals[k]
        m = iv.midpoint()
        left = list(self.intervals)
        right = list(self.intervals)
        left[k] = Interval(iv.lo, m)
        right[k] = Interval(m, iv.hi)
        return IntervalBox(tuple(left)), IntervalBox(tuple(right))


def enclose(terms: dict[tuple[int, ...], Fraction], box: IntervalBox) -> Interval:
    """Interval enclosure of a real polynomial (term dict) over a box."""
    acc = Interval.point(0)
    for exps, coeff in terms.items():
        term = Interval.point(1)
        for iv, e in zip(box.intervals, exps):
            if e:
                term = term * iv.power(e)
        acc = acc + term.scale(coeff)
    return acc
