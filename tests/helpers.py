"""Shared test utilities: random inputs and independent numeric oracles."""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import partial

import numpy as np

from nullsol.classifier import LatticeSpec
from nullsol.intervals import clear, dyadic, enclose, scale
from nullsol.multipoly import MultiPoly
from nullsol.parser import ParseError, ParseErrorKind
from nullsol.symbols import RealPolySystem


# -- Q(i) reference ----------------------------------------------------------
# Ring arithmetic on Gaussian rationals, independent of the polynomial code:
# ``MultiPoly`` stores coefficients as plain (re, im) tuples and multiplies
# them inline, and these methods are what that arithmetic is tested against.

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

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"


# The trusted constructor: wraps an (re, im) pair of ints/Fractions as is.
pair = partial(tuple.__new__, GaussianRational)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def evaluate(p: MultiPoly, point) -> GaussianRational:
    """Exact value of ``p`` by GaussianRational arithmetic alone.

    Point entries may be GaussianRational, int or Fraction.
    """
    if len(point) != p.nvars:
        raise ValueError(f"point has length {len(point)}, expected {p.nvars}")
    pt = [GaussianRational(v) if isinstance(v, (int, Fraction)) else v for v in point]
    acc = ZERO
    for exps, c in p.terms.items():
        c = pair(c)
        for v, e in zip(pt, exps):
            if e:
                c = c * v ** e
        acc = acc + c
    return acc


def random_rational(rng: random.Random, height: int = 8) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_gaussian(rng: random.Random, height: int = 8,
                    complex_coeffs: bool = True) -> GaussianRational:
    re = random_rational(rng, height)
    im = random_rational(rng, height) if complex_coeffs else 0
    return GaussianRational(re, im)


def random_multipoly(rng: random.Random, nvars: int, max_deg: int = 3,
                     max_terms: int = 5, height: int = 8,
                     complex_coeffs: bool = True) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            if nvars:
                exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = random_gaussian(rng, height, complex_coeffs)
    return MultiPoly(nvars, terms)


def random_point(rng: random.Random, nvars: int, height: int = 8,
                 complex_coeffs: bool = True) -> list[GaussianRational]:
    return [random_gaussian(rng, height, complex_coeffs) for _ in range(nvars)]


# -- rational interval reference ------------------------------------------

def _power(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, Fraction]:
    if n % 2 == 1 or lo >= 0:
        return lo ** n, hi ** n
    if hi <= 0:
        return hi ** n, lo ** n
    # Even power of an interval straddling zero.
    return Fraction(0), max(lo ** n, hi ** n)


def fraction_enclose(terms: dict[tuple[int, ...], Fraction],
                     box) -> tuple[Fraction, Fraction]:
    """Interval enclosure of a term dict over a box of Fraction pairs.

    The plain rational kernel, kept as the reference for the integer one.
    """
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


def integer_terms(terms: dict[tuple[int, ...], Fraction],
                  lcm: int | None = None) -> dict[tuple[int, ...], int]:
    """``lcm`` times a term dict, as ints: the form the solver reads.

    ``lcm`` defaults to the lcm of the dict's own coefficient denominators,
    which is what ``RealPolySystem.terms`` holds for a one-polynomial system.
    """
    if lcm is None:
        lcm = math.lcm(*(c.denominator for c in terms.values()))
    return {e: int(c * lcm) for e, c in terms.items()}


def rational_enclose(terms: dict[tuple[int, ...], Fraction],
                     box) -> tuple[Fraction, Fraction]:
    """The integer enclosure of a rational term dict over a Fraction-pair
    box, as rationals."""
    q, start = dyadic(box)
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    poly = clear(integer_terms(terms, lcm), q)
    lo, hi = enclose(poly, start)
    s = lcm * scale(poly, q, 0)
    return Fraction(lo, s), Fraction(hi, s)


def substitute_value(terms: dict[tuple[int, ...], Fraction], index: int,
                     value: Fraction) -> dict[tuple[int, ...], Fraction]:
    """Set one variable to an exact value, dropping its slot.

    The face polynomial the radius proof once searched, kept as the reference
    for its pinned-box search.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in terms.items():
        cc = c * value ** exps[index]
        if cc == 0:
            continue
        e = exps[:index] + exps[index + 1:]
        out[e] = out.get(e, Fraction(0)) + cc
    return {e: c for e, c in out.items() if c != 0}


# -- resultant reference ---------------------------------------------------

def _q_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_resultant(p: dict, q: dict) -> list[Fraction]:
    """``Res_x2(p, q)`` of two term dicts in (x1, x2), as Fractions in x1,
    highest degree first ([] when it is 0).

    The Sylvester matrix over Q[x1], with the formal x2-degrees of ``p`` and
    ``q``, expanded by cofactors column by column: no division and no
    remainder, so it is independent of the solver's subresultant
    pseudo-remainder sequence.
    """
    m, n = max(e[1] for e in p), max(e[1] for e in q)

    def coeffs(f, deg):   # x2^deg, ..., x2^0, each in x1, lowest degree first
        top = max(e[0] for e in f)
        return [[Fraction(f.get((i, deg - k), 0)) for i in range(top + 1)]
                for k in range(deg + 1)]

    zero = [Fraction(0)]
    rows = ([[zero] * k + coeffs(p, m) + [zero] * (n - 1 - k) for k in range(n)]
            + [[zero] * k + coeffs(q, n) + [zero] * (m - 1 - k) for k in range(m)])
    memo: dict = {}

    def det(col: int, left: tuple) -> list[Fraction]:
        if col == m + n:
            return [Fraction(1)]
        if (col, left) not in memo:
            total = [Fraction(0)]
            for pos, i in enumerate(left):
                if any(rows[i][col]):
                    term = _q_poly_mul(rows[i][col], det(col + 1, left[:pos] + left[pos + 1:]))
                    total += [Fraction(0)] * (len(term) - len(total))
                    for k, c in enumerate(term):
                        total[k] += -c if pos % 2 else c
            memo[col, left] = total
        return memo[col, left]

    r = det(0, tuple(range(m + n)))[::-1]
    return r[next((i for i, c in enumerate(r) if c), len(r)):]


def reference_restrict(p: dict, base, step, den: int) -> dict:
    """``den^D * p((base + t*step)/den)`` for a term dict ``p`` of total degree
    D, as a univariate term dict in t with integer coefficients.

    Each coordinate is the Fraction line ``(base_i + t*step_i)/den``,
    multiplied in one linear factor at a time, so it is independent of the
    solver's binomial rows and its integer scaling; ``den^D`` clears every
    denominator at the end.
    """
    degree = max(map(sum, p))
    out = [Fraction(0)] * (degree + 1)   # t^0, t^1, ...
    for exps, c in p.items():
        f = [Fraction(c * den ** degree)]
        for x, s, e in zip(base, step, exps):
            for _ in range(e):
                f = _q_poly_mul(f, [Fraction(x, den), Fraction(s, den)])
        for j, u in enumerate(f):
            out[j] += u
    assert all(u.denominator == 1 for u in out)
    return {(j,): int(u) for j, u in enumerate(out) if u}


# -- dense-grid oracle -----------------------------------------------------

def _poly_on_grid(poly: MultiPoly, grids: list[np.ndarray]) -> np.ndarray:
    acc = np.zeros_like(grids[0]) if grids else np.zeros(())
    for exps, coeff in poly.terms.items():
        term = float(coeff[0]) * np.ones_like(acc)
        for g, e in zip(grids, exps):
            if e:
                term = term * g ** e
        acc = acc + term
    return acc


def grid_min_sum_squares(system: RealPolySystem, lo: float, hi: float,
                         step: float = 1 / 64,
                         exclude_halfwidth: float | None = None) -> float:
    """Minimum of sum(q^2) over a regular grid, chunked along the 1st axis.

    With ``exclude_halfwidth`` the closed inner cube [-h, h]^d is masked
    out (used for annulus checks outside a certified radius).
    """
    axis = np.arange(lo, hi + step / 2, step)
    d = system.dimension
    if d == 0:
        return sum(float(c[0]) ** 2 for p in system.polys for c in p.terms.values())
    best = np.inf
    chunk = max(1, int(4e6 // max(1, len(axis) ** (d - 1))))
    for start in range(0, len(axis), chunk):
        first = axis[start:start + chunk]
        grids = np.meshgrid(first, *([axis] * (d - 1)), indexing="ij")
        total = np.zeros_like(grids[0])
        for p in system.polys:
            total += _poly_on_grid(p, grids) ** 2
        if exclude_halfwidth is not None:
            inner = np.ones_like(total, dtype=bool)
            for g in grids:
                inner &= np.abs(g) <= exclude_halfwidth
            total = np.where(inner, np.inf, total)
        m = float(total.min()) if total.size else np.inf
        best = min(best, m)
    return best


def exact_common_zero(system: RealPolySystem, point) -> bool:
    pt = [Fraction(x) for x in point]
    return all(evaluate(p, pt).is_zero() for p in system.polys)


# -- lattice references ----------------------------------------------------

def lattice_shell(dim: int, radius: int):
    """Integer vectors with max-norm exactly ``radius``, streamed.

    The enumeration the periodic test once walked, kept as the reference for
    its search order: positive entries before negative ones (descending
    lexicographic order within a shell).  A leading entry of size ``radius``
    frees the tail to the whole cube; any other leading entry leaves the
    tail on the shell.
    """
    if dim == 0:
        if radius == 0:
            yield ()
        return
    values = range(radius, -radius - 1, -1)
    for x in values:
        tails = (itertools.product(values, repeat=dim - 1) if abs(x) == radius
                 else lattice_shell(dim - 1, radius))
        for tail in tails:
            yield (x,) + tail


def reference_inverse(rows) -> tuple[tuple[tuple[Fraction, ...], ...] | None, Fraction]:
    """``(A^-1, det A)`` by Gauss-Jordan elimination over Fractions, with
    ``None`` for the inverse of a singular A."""
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            return None, Fraction(0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        pv = aug[col][col]
        det *= pv
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug), det


def lattice_zeros(system: RealPolySystem, lattice: LatticeSpec,
                  radius: int) -> set[tuple[int, ...]]:
    """Every k in [-radius, radius]^d with A^-1 k a common zero of ``system``.

    Dense exact evaluation on the whole cube: with A^-1 = inv/den, each
    integer polynomial of ``system.terms`` times ``den^D`` is an integer sum
    at ``inv @ k``, computed on numpy object arrays of Python ints.
    """
    den = math.lcm(*(x.denominator for row in lattice.inverse() for x in row))
    inv = np.array([[int(x * den) for x in row] for row in lattice.inverse()], dtype=object)
    ks = np.array(list(itertools.product(range(-radius, radius + 1),
                                         repeat=lattice.dimension)), dtype=object)
    nums = ks @ inv.T
    zero = np.ones(len(ks), dtype=bool)
    for terms in system.terms:
        degree = max(sum(e) for e in terms)
        acc = 0
        for exps, c in terms.items():
            value = c * den ** (degree - sum(exps))
            for axis, n in enumerate(exps):
                if n:
                    value = value * nums[:, axis] ** n
            acc = acc + value
        zero &= np.asarray(acc == 0, dtype=bool)
    return {tuple(int(x) for x in k) for k in ks[zero]}


# -- tokenizer reference ---------------------------------------------------

def reference_tokenize(text: str, allow_pi: bool) -> list[tuple]:
    """``(kind, value, pos)`` tokens of ``text``, read character by character.

    The hand-written loop the parser once used, kept as the reference for
    its single-pattern tokenizer.  A digit is an ASCII ``0``-``9``; any
    other numeral (``²``, ``٣``) is an unexpected character.
    """
    def isdigit(ch: str) -> bool:
        return "0" <= ch <= "9"

    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(("op", ch, i))
            i += 1
            continue
        if isdigit(ch):
            j = i
            while j < n and isdigit(text[j]):
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "T":
                toks.append(("T", None, i))
            elif word == "i":
                toks.append(("i", None, i))
            elif word == "PI":
                if not allow_pi:
                    raise ParseError(i, ParseErrorKind.UNKNOWN_SYMBOL,
                                     "PI is only admitted in lattice-periodic mode")
                toks.append(("PI", None, i))
            elif word == "X":
                k = j
                while k < n and isdigit(text[k]):
                    k += 1
                if k == j:
                    raise ParseError(i, ParseErrorKind.UNKNOWN_SYMBOL,
                                     "X must be followed by a 1-based index")
                idx = int(text[j:k])
                if idx < 1:
                    raise ParseError(i, ParseErrorKind.UNKNOWN_SYMBOL,
                                     "X indices are 1-based")
                toks.append(("X", idx, i))
                i = k
                continue
            else:
                raise ParseError(i, ParseErrorKind.UNKNOWN_SYMBOL,
                                 f"unknown symbol {word!r}")
            i = j
            continue
        raise ParseError(i, ParseErrorKind.UNKNOWN_SYMBOL,
                         f"unexpected character {ch!r}")
    toks.append(("end", None, n))
    return toks
