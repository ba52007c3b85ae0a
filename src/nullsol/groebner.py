"""The weak-Nullstellensatz unit-ideal test, by Buchberger's algorithm over Z.

The input is integer term dicts ``{exponent tuple: nonzero int}``, the
form ``RealPolySystem.terms`` holds: the system is cleared of denominators
there, once.  Each one is divided by its content to a primitive polynomial
(integer coefficients with gcd 1) whose monomials are packed into ints
(Monagan & Pearce, CASC 2007): ``E(e) = deg(e)*B^n - sum e_i*B^(i-1)``,
``B = 2^w``.  While degrees stay below ``B/2``, no field spills into the
next and the top (guard) bit of each stays clear.  So int order is the
grevlex order of ``(deg, -e_n, ..., -e_1)``: the degree dominates, then the
smaller ``e_n``, and so on down.  ``E`` is linear, so products are sums.
``g`` divides ``m`` exactly when ``E(g) - E(m)`` has no guard bit set, as
the lowest field with ``m_i < g_i`` wraps below zero into its guard bit.  A
basis element past the degree the fields allow ends the run as the cap does.
S-polynomials and reduction steps use integer cofactors instead of
dividing by leading coefficients (the fraction-free form of Buchberger's
algorithm; Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
ch. 2), so each polynomial is a nonzero integer multiple of the one the
algorithm over Q forms, with the same monomials, the same reduction steps
and the same basis up to scaling.  No Fraction arithmetic runs inside.

Each S-polynomial is top-reduced: reduction stops once its leading term
is irreducible, and its lower terms are left as they are (Becker &
Weispfenning, *Groebner Bases*, 1993).  A Groebner basis needs no
reduction of lower terms, and whether it contains a unit does not depend
on one.

Used only as a sound shortcut: if the ideal generated by a real system
contains a nonzero constant, the system has no common complex zero, hence
no common real zero.  The cap counts reduction steps, each of which
cancels one leading term, so it bounds every pass of the reduction loop;
hitting the cap is reported as inconclusive, never as a verdict.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import lshift
from typing import Iterator

from .config import DEFAULT_CONFIG

_HEADROOM = 4  # spare bits per field: basis degrees may reach 2^4 times the input's

Terms = dict[tuple[int, ...], int]
# An integer polynomial keyed by packed monomials.
_Poly = dict[int, int]
# A basis element: packed leading monomial, leading coefficient, polynomial.
_Entry = tuple[int, int, _Poly]


class GroebnerCapExceeded(Exception):
    """Reduction budget or field width exhausted before the basis stabilized."""


class _Packing:
    """Monomials in ``n`` variables, packed for basis leads up to ``max_lead``."""

    def __init__(self, n: int, top: int):
        self.w = w = (2 * top).bit_length() + _HEADROOM + 1
        self.shift, self.fields = n * w, range(0, n * w, w)
        self.mask, self.guard = (1 << n * w) - 1, sum(1 << s + w - 1 for s in self.fields)
        self.max_lead = ((1 << w - 2) - 1) << n * w   # E <= D*B^n iff deg <= D

    def encode(self, e: tuple[int, ...]) -> int:
        return (sum(e) << self.shift) - sum(map(lshift, e, self.fields))

    def decode(self, m: int) -> tuple[int, ...]:
        return tuple(-m >> s & (1 << self.w) - 1 for s in self.fields)

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise max of the exponents ``-E mod B^n``, by the guard bits of
        ``(a | guard) - b``; the degree is their sum, the value mod ``B - 1``."""
        a, b, w = -a & self.mask, -b & self.mask, self.w
        ge = ((a | self.guard) - b & self.guard) >> w - 1
        low = b ^ (a ^ b) & (ge << w) - ge
        return (low % ((1 << w) - 1) << self.shift) - low


def _add_multiple(acc: _Poly, p: _Poly, delta: int, coeff: int) -> None:
    """acc += coeff * X^delta * p, in place, dropping cancelled terms."""
    for e, c in p.items():
        m = e + delta
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            del acc[m]


def _entry(p: _Poly) -> _Entry:
    """The basis element of the primitive part of a nonzero polynomial."""
    g = math.gcd(*p.values())
    p = p if g == 1 else {m: c // g for m, c in p.items()}
    lead = max(p)
    return lead, p[lead], p


def _normal_form(f: _Poly, basis: list[_Entry], guard: int, steps: Iterator, cap: int) -> _Poly:
    """Top-reduced form, up to a nonzero integer factor: while the leading
    term is divisible by the leading monomial of a basis element, the first
    such element (by the packing's ``guard`` bits) cancels it; lower terms
    are left as they are.  Each step takes the next number from ``steps``
    and raises GroebnerCapExceeded once that passes ``cap``.  A step scales
    the polynomial by ``g_c/gcd`` and subtracts ``(lt_c/gcd) * X^delta * g``."""
    work = dict(f)
    while work:
        lead = max(work)
        lt_c = work[lead]
        for g_lead, g_c, g in basis:
            if not g_lead - lead & guard:
                break
        else:
            return work
        if next(steps) > cap:
            raise GroebnerCapExceeded()
        d = math.gcd(lt_c, g_c)
        scale = g_c // d
        if scale != 1:
            for m in work:
                work[m] *= scale
        _add_multiple(work, g, lead - g_lead, -(lt_c // d))
    return work


def _s_poly(f: _Entry, g: _Entry, lcm: int) -> _Poly:
    (f_lead, f_c, f_p), (g_lead, g_c, g_p) = f, g
    d = math.gcd(f_c, g_c)
    s: _Poly = {}
    _add_multiple(s, f_p, lcm - f_lead, g_c // d)
    _add_multiple(s, g_p, lcm - g_lead, -(f_c // d))
    return s


def _basis(polys: list[_Poly], pk: _Packing, cap: int) -> list[_Entry]:
    """Groebner basis entries of nonzero packed generators, made primitive;
    the unit alone once a nonzero constant turns up.

    Pairs are taken by least grevlex lcm, ties in the order they were
    formed.  Raises GroebnerCapExceeded on reduction step ``cap + 1``, or
    on a new element whose lead passes ``pk.max_lead``."""
    basis = [_entry(p) for p in polys]
    steps = itertools.count(1)
    pairs: list = []
    formed = itertools.count()

    def push(i: int, j: int) -> None:
        lcm = pk.lcm(basis[i][0], basis[j][0])
        # Buchberger's first criterion: coprime leading monomials.
        if lcm != basis[i][0] + basis[j][0]:
            heapq.heappush(pairs, (lcm, next(formed), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)
    while pairs:
        lcm, _, i, j = heapq.heappop(pairs)
        r = _normal_form(_s_poly(basis[i], basis[j], lcm), basis, pk.guard, steps, cap)
        if r:
            entry = _entry(r)
            if not entry[0]:
                # Unit in the ideal; basis is the whole ring.
                return [(0, 1, {0: 1})]
            if entry[0] > pk.max_lead:
                raise GroebnerCapExceeded()
            basis.append(entry)
            for m in range(len(basis) - 1):
                push(m, len(basis) - 1)
    return basis


def unit_ideal_test(polys: list[Terms], cap: int = DEFAULT_CONFIG.groebner_cap,
                    members: list[Terms] | None = None) -> bool | None:
    """True/False for a decided unit-ideal question; None past the cap or field width.

    With a list for ``members``, a decided False also appends to it, as
    primitive integer term dicts, the basis elements beyond the generators
    whose leading monomial has degree 1: affine polynomials of the ideal,
    as grevlex orders by degree first.  It appends none when every
    generator is affine, as each such member is then a combination of them.
    """
    nonzero = [p for p in polys if p]
    degrees = [max(map(sum, p)) for p in nonzero]
    if not all(degrees):
        return True
    if len(nonzero) < 2:
        # no pair to reduce: a nonconstant generator is its own basis
        return False
    pk = _Packing(len(next(iter(nonzero[0]))), max(degrees))
    try:
        basis = _basis([{pk.encode(e): c for e, c in p.items()} for p in nonzero], pk, cap)
    except GroebnerCapExceeded:
        return None
    if not basis[0][0]:
        return True
    if members is not None and max(degrees) > 1:
        members.extend({pk.decode(m): c for m, c in p.items()}
                       for lead, _, p in basis[len(nonzero):] if lead <= 1 << pk.shift)
    return False
