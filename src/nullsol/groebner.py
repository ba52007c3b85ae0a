"""The weak-Nullstellensatz unit-ideal test, by Buchberger's algorithm over Z.

The input is integer term dicts ``{exponent tuple: nonzero int}``, the
form ``RealPolySystem.terms`` holds: the system is cleared of denominators
there, once.  Each one is divided by its content to a primitive polynomial
(integer coefficients with gcd 1) whose monomials are keyed by the grevlex
encoding ``(deg, -e_n, ..., -e_1)``: a plain ``max`` is the leading
monomial, the encoding of a product of monomials is the sum of their
encodings, and the lcm of two monomials is its own pair-heap key.
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
from operator import add, ge, sub
from typing import Iterator

from .config import DEFAULT_CONFIG

Terms = dict[tuple[int, ...], int]
# An integer polynomial keyed by encoded monomials.
_Poly = dict[tuple[int, ...], int]
# A basis element: encoded leading monomial, its negated exponents
# (the encoding without the degree), leading coefficient, polynomial.
_Entry = tuple[tuple[int, ...], tuple[int, ...], int, _Poly]


class GroebnerCapExceeded(Exception):
    """Reduction budget exhausted before the basis stabilized."""


def add_multiple(acc: dict, p: dict, exps: tuple[int, ...], coeff) -> None:
    """acc += coeff * X^exps * p, in place, dropping cancelled terms.

    Works on exponent tuples and on grevlex encodings alike, since both
    add under multiplication of monomials.
    """
    for e, c in p.items():
        m = tuple(map(add, e, exps))
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            del acc[m]


def _primitive(p: _Poly) -> _Poly:
    g = math.gcd(*p.values())
    return p if g == 1 else {m: c // g for m, c in p.items()}


def _cleared(p: Terms) -> _Poly:
    """The primitive part of an integer term dict, on encoded monomials."""
    return _primitive({(sum(e), *(-x for x in reversed(e))): c for e, c in p.items()})


def _entry(p: _Poly) -> _Entry:
    lead = max(p)
    return lead, lead[1:], p[lead], p


def _normal_form(f: _Poly, basis: list[_Entry], steps: Iterator[int], cap: int) -> _Poly:
    """Top-reduced form, up to a nonzero integer factor: while the leading
    term is divisible by the leading monomial of a basis element, the first
    such element cancels it; lower terms are left as they are.  Each step
    takes the next number from ``steps`` and raises GroebnerCapExceeded once
    that passes ``cap``.  A step scales the polynomial by ``g_c/gcd`` and
    subtracts ``(lt_c/gcd) * X^delta * g``."""
    work = dict(f)
    while work:
        lead = max(work)
        lt_c = work[lead]
        tail = lead[1:]
        for g_lead, g_tail, g_c, g in basis:
            if all(map(ge, g_tail, tail)):
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
        add_multiple(work, g, tuple(map(sub, lead, g_lead)), -(lt_c // d))
    return work


def _s_poly(f: _Entry, g: _Entry) -> _Poly:
    (f_lead, f_tail, f_c, f_p), (g_lead, g_tail, g_c, g_p) = f, g
    lcm_tail = tuple(map(min, f_tail, g_tail))
    lcm = (-sum(lcm_tail), *lcm_tail)
    d = math.gcd(f_c, g_c)
    s: _Poly = {}
    add_multiple(s, f_p, tuple(map(sub, lcm, f_lead)), g_c // d)
    add_multiple(s, g_p, tuple(map(sub, lcm, g_lead)), -(f_c // d))
    return s


def _basis(polys: list[Terms], cap: int) -> list[_Entry]:
    """Groebner basis entries of nonzero generators; the unit alone once a
    nonzero constant turns up.

    Pairs are taken by least grevlex lcm, ties in the order they were
    formed.  Raises GroebnerCapExceeded on reduction step ``cap + 1``.
    """
    basis = [_entry(_cleared(p)) for p in polys]
    steps = itertools.count(1)
    pairs: list = []
    formed = itertools.count()

    def push(i: int, j: int) -> None:
        lcm_tail = tuple(map(min, basis[i][1], basis[j][1]))
        heapq.heappush(pairs, ((-sum(lcm_tail), *lcm_tail), next(formed), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        # Buchberger's first criterion: coprime leading monomials.
        if not any(map(max, basis[i][1], basis[j][1])):
            continue
        r = _normal_form(_s_poly(basis[i], basis[j]), basis, steps, cap)
        if r:
            entry = _entry(_primitive(r))
            if not entry[0][0]:
                # Unit in the ideal; basis is the whole ring.
                return [_entry({entry[0]: 1})]
            basis.append(entry)
            for m in range(len(basis) - 1):
                push(m, len(basis) - 1)
    return basis


def unit_ideal_test(polys: list[Terms], cap: int = DEFAULT_CONFIG.groebner_cap,
                    members: list[Terms] | None = None) -> bool | None:
    """True/False for a decided unit-ideal question; None if cap exceeded.

    With a list for ``members``, a decided False also appends to it, as
    primitive integer term dicts, the basis elements beyond the generators
    whose leading monomial has degree 1: affine polynomials of the ideal,
    as grevlex orders by degree first.  It appends none when every
    generator is affine, as each such member is then a combination of them.
    """
    nonzero = [p for p in polys if p]
    if any(all(sum(e) == 0 for e in p) for p in nonzero):
        return True
    if len(nonzero) < 2:
        # no pair to reduce: a nonconstant generator is its own basis
        return False
    try:
        basis = _basis(nonzero, cap)
    except GroebnerCapExceeded:
        return None
    if any(not lead[0] for lead, _, _, _ in basis):
        return True
    if members is not None and any(lead[0] > 1 for lead, _, _, _ in basis[:len(nonzero)]):
        members.extend({tuple(-x for x in reversed(m[1:])): c for m, c in p.items()}
                       for lead, _, _, p in basis[len(nonzero):] if lead[0] == 1)
    return False
