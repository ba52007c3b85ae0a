"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a map from exponent tuples to nonzero coefficients in
Q(i), each a plain ``(re, im)`` tuple of ints or Fractions.  All polynomial
arithmetic lives here and works on those parts; results are built by the
trusted :meth:`MultiPoly.from_clean`, and :func:`format_coeff` prints a
coefficient.  The tuple length is ``nvars``; for a PDE symbol in d spatial
variables the convention throughout the package is

    slots 0 .. d-1   ->  X1 .. Xd   (spatial)
    slot  nvars - 1  ->  T          (time, always last)

The T-coefficients of a symbol (:func:`nullsol.symbols.t_coefficients`)
live in one variable fewer (the spatial slots only).  Representation is
canonical: no zero coefficients are stored, so structural equality is
semantic equality.  No floating point is involved anywhere on a symbolic
path: equality with zero is a logical claim, not a tolerance check.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add
from typing import Mapping, Sequence

# Degree of the zero polynomial.  Compares below every integer.
NEG_INF = float("-inf")


def grlex_key(exps: tuple[int, ...]):
    """Graded-lexicographic sort key (total degree first, then lex)."""
    return (sum(exps), exps)


def format_coeff(c: tuple) -> str:
    """Text of the coefficient ``(re, im)``: ``re``, ``im*i`` or ``re+im*i``.
    The sign of ``im`` is read from its text, not by comparing numbers."""
    re, im = c
    if not im:
        return str(re)
    im = str(im)
    if not re:
        return f"{im}*i"
    return f"{re}{im}*i" if im[0] == "-" else f"{re}+{im}*i"


def _coeff(c) -> tuple:
    """An ``(re, im)`` pair with its parts as given; a number as Fractions."""
    if isinstance(c, tuple):
        if len(c) != 2:
            raise ValueError(f"coefficient {c!r} is not an (re, im) pair")
        return c[0], c[1]
    return Fraction(c), Fraction(0)


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over Q(i)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], tuple] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length != {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _coeff(coeff)
            if c[0] or c[1]:
                clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_clean(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Trusted constructor: ``terms`` is already canonical and is not copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        c = _coeff(value)
        return cls.from_clean(nvars, {(0,) * nvars: c} if c[0] or c[1] else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls.from_clean(nvars, {tuple(exps): (1, 0)})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self):
        """Max exponent sum over terms; NEG_INF for the zero polynomial."""
        return max(map(sum, self.terms), default=NEG_INF)

    def sorted_terms(self, reverse: bool = True):
        """Terms in graded-lex order (descending by default)."""
        for exps in sorted(self.terms, key=grlex_key, reverse=reverse):
            yield exps, self.terms[exps]

    def real_terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """Real parts as ints or Fractions; raises if any coefficient is non-real."""
        bad = next((c for c in self.terms.values() if c[1]), None)
        if bad is not None:
            raise ValueError(f"non-real coefficient {format_coeff(bad)} in real_terms()")
        return {exps: re for exps, (re, _) in self.terms.items()}

    # -- ring operations -------------------------------------------------

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "MultiPoly":
        """The sum of the ``(exps, coeff)`` terms, each coefficient nonzero,
        collected in one dict in order: a monomial whose sum cancels is
        deleted, and goes to the end if it comes back."""
        out: dict[tuple[int, ...], tuple] = {}
        for e, c in terms:
            prev = out.get(e)
            if prev is not None:
                c = (prev[0] + c[0], prev[1] + c[1])
                if not (c[0] or c[1]):
                    del out[e]
                    continue
            out[e] = c
        return cls.from_clean(nvars, out)

    @classmethod
    def sum_of(cls, nvars: int, polys) -> "MultiPoly":
        """The sum of ``polys``, collected in one dict."""
        def terms():
            for p in polys:
                if p.nvars != nvars:
                    raise ValueError(f"variable-count mismatch: {nvars} != {p.nvars}")
                yield from p.terms.items()
        return cls.from_terms(nvars, terms())

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return MultiPoly.sum_of(self.nvars, (self, other))

    def __sub__(self, other):
        return self + -other if isinstance(other, MultiPoly) else NotImplemented

    def __neg__(self):
        return MultiPoly.from_clean(self.nvars, {e: (-c[0], -c[1]) for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} != {other.nvars}")
        for mono, poly in ((other.terms, self.terms), (self.terms, other.terms)):
            if len(mono) == 1:
                (shift, c), = mono.items()
                if c[1] == 0 and c[0] == 1:
                    return MultiPoly.from_clean(self.nvars, {tuple(map(add, e, shift)): v
                                                             for e, v in poly.items()})
        out: dict[tuple[int, ...], tuple] = {}
        for e1, (ar, ai) in self.terms.items():
            for e2, (br, bi) in other.terms.items():
                e = tuple(map(add, e1, e2))
                if ai or bi:
                    re, im = ar * br - ai * bi, ar * bi + ai * br
                else:
                    re, im = ar * br, 0
                prev = out.get(e)
                out[e] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return MultiPoly.from_clean(self.nvars, {e: c for e, c in out.items() if c[0] or c[1]})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1 and not next(iter(self.terms.values()))[1]:
            (e, (re, _)), = self.terms.items()
            return MultiPoly.from_clean(self.nvars, {tuple(x * n for x in e): (re ** n, 0)})
        # Left-to-right binary powering never forms a power above n.
        result = MultiPoly.from_clean(self.nvars, {(0,) * self.nvars: (1, 0)})
        for bit in f"{n:b}":
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- evaluation -----------------------------------------------------

    def evaluate_real(self, point: Sequence) -> tuple:
        """Exact value at a point of ints/Fractions, as its ``(re, im)`` parts."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        re = im = 0
        for exps, (cr, ci) in self.terms.items():
            m = prod(v ** e for v, e in zip(point, exps) if e)
            re, im = re + cr * m, im + ci * m
        return re, im

    def evaluate_complex(self, point: Sequence[complex]) -> complex:
        """Floating-point evaluation; sanity layer only, never a certificate."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        acc = 0j
        for exps, c in self.terms.items():
            term = complex(*c)
            for v, e in zip(point, exps):
                if e:
                    term *= complex(v) ** e
            acc += term
        return acc

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        items = ", ".join(f"{e}: {format_coeff(c)}" for e, c in self.sorted_terms())
        return f"MultiPoly({self.nvars}, {{{items}}})"

