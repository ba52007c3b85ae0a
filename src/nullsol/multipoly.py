"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a map from exponent tuples to nonzero GaussianRational
coefficients.  The tuple length is ``nvars``; for a PDE symbol in d spatial
variables the convention throughout the package is

    slots 0 .. d-1   ->  X1 .. Xd   (spatial)
    slot  nvars - 1  ->  T          (time, always last)

Polynomials produced by :func:`MultiPoly.coefficients_in_T` live in one
variable fewer (the spatial slots only).  Representation is canonical: no
zero coefficients are stored, so structural equality is semantic equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .gaussian import GaussianRational, ONE, ZERO

# Degree of the zero polynomial.  Compares below every integer.
NEG_INF = float("-inf")


def grlex_key(exps: tuple[int, ...]):
    """Graded-lexicographic sort key (total degree first, then lex)."""
    return (sum(exps), exps)


def _coerce_coeff(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over Q(i)."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], GaussianRational] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has length != {nvars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = _coerce_coeff(coeff)
                if not c.is_zero():
                    prev = clean.get(exps)
                    if prev is not None:
                        c = prev + c
                        if c.is_zero():
                            del clean[exps]
                            continue
                    clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: _coerce_coeff(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): ONE})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self):
        """Max exponent sum over terms; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def sorted_terms(self, reverse: bool = True):
        """Terms in graded-lex order (descending by default)."""
        for exps in sorted(self.terms, key=grlex_key, reverse=reverse):
            yield exps, self.terms[exps]

    def real_terms(self) -> dict[tuple[int, ...], Fraction]:
        """Terms as Fractions; raises if any coefficient is non-real."""
        out = {}
        for exps, c in self.terms.items():
            if not c.is_real():
                raise ValueError(f"non-real coefficient {c} in real_terms()")
            out[exps] = c.re
        return out

    # -- ring operations -------------------------------------------------

    def _check_same(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} != {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, ZERO) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        out: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = out.get(e)
                out[e] = c if prev is None else prev + c
        return MultiPoly(self.nvars, out)

    def scale(self, scalar) -> "MultiPoly":
        s = _coerce_coeff(scalar)
        if s.is_zero():
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point: Sequence):
        """Exact evaluation at a point of ring elements.

        Point entries may be GaussianRational, int or Fraction.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        pt = [GaussianRational(v) if isinstance(v, (int, Fraction)) else v for v in point]
        acc = None
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(pt, exps):
                if e:
                    term = term * v ** e
            acc = term if acc is None else acc + term
        if acc is None:
            return ZERO
        return acc

    def evaluate_complex(self, point: Sequence[complex]) -> complex:
        """Floating-point evaluation; sanity layer only, never a certificate."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        acc = 0j
        for exps, c in self.terms.items():
            term = complex(c)
            for v, e in zip(point, exps):
                if e:
                    term *= complex(v) ** e
            acc += term
        return acc

    # -- time-coefficient split ------------------------------------------

    def coefficients_in_T(self) -> list["MultiPoly"]:
        """Coefficients [a0, a1, ..., an] of powers of the last variable.

        Each a_j is a polynomial in the remaining nvars-1 variables.  The
        list is empty for the zero polynomial; otherwise the last entry is
        nonzero.  Interior zero coefficients are retained.
        """
        if not self.terms:
            return []
        if self.nvars == 0:
            return [self]
        n = max(e[-1] for e in self.terms)
        coeffs: list[dict[tuple[int, ...], GaussianRational]] = [{} for _ in range(n + 1)]
        for exps, c in self.terms.items():
            coeffs[exps[-1]][exps[:-1]] = c
        return [MultiPoly(self.nvars - 1, d) for d in coeffs]

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        items = ", ".join(f"{e}: {c}" for e, c in self.sorted_terms())
        return f"MultiPoly({self.nvars}, {{{items}}})"

