"""Buchberger's algorithm over Q, graded-reverse-lexicographic order.

Polynomials are term dicts ``{exponent tuple: nonzero Fraction}``, the form
``RealPolySystem.terms`` holds.  Used only as a sound shortcut: if the ideal
generated by a real system contains a nonzero constant, the system has no
common complex zero, hence no common real zero.  A reduction-step cap keeps
runtime bounded; hitting the cap is reported as inconclusive, never as a
verdict.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

Terms = dict[tuple[int, ...], Fraction]
# A basis element with its cached leading monomial and coefficient.
_Entry = tuple[tuple[int, ...], Fraction, Terms]


class GroebnerCapExceeded(Exception):
    """Reduction budget exhausted before the basis stabilized."""


def grevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_term(p: Terms) -> tuple[tuple[int, ...], Fraction]:
    exps = max(p, key=grevlex_key)
    return exps, p[exps]


def _entry(p: Terms) -> _Entry:
    return (*leading_term(p), p)


def _is_constant(p: Terms) -> bool:
    return all(sum(e) == 0 for e in p)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def add_multiple(acc: Terms, p: Terms, exps: tuple[int, ...], coeff: Fraction) -> None:
    """acc += coeff * X^exps * p, in place, dropping cancelled terms."""
    for e, c in p.items():
        m = tuple(a + b for a, b in zip(e, exps))
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            del acc[m]


class _Budget:
    __slots__ = ("left",)

    def __init__(self, cap: int):
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise GroebnerCapExceeded()


def _normal_form(f: Terms, basis: list[_Entry], budget: _Budget | None) -> Terms:
    """Full normal form: each leading term is reduced by the first basis
    element whose leading monomial divides it, one budget step each."""
    remainder: Terms = {}
    work = dict(f)
    while work:
        lt_e, lt_c = leading_term(work)
        for g_e, g_c, g in basis:
            if _divides(g_e, lt_e):
                if budget is not None:
                    budget.spend()
                add_multiple(work, g, tuple(a - b for a, b in zip(lt_e, g_e)), -lt_c / g_c)
                break
        else:
            remainder[lt_e] = lt_c
            del work[lt_e]
    return remainder


def reduce_poly(f: Terms, basis: list[Terms], budget: _Budget | None = None) -> Terms:
    """Full normal form of f modulo basis (leading-term reduction)."""
    return _normal_form(f, [_entry(g) for g in basis], budget)


def _s_poly(f: _Entry, g: _Entry) -> Terms:
    (f_e, f_c, f_terms), (g_e, g_c, g_terms) = f, g
    lcm = tuple(map(max, f_e, g_e))
    s: Terms = {}
    add_multiple(s, f_terms, tuple(a - b for a, b in zip(lcm, f_e)), 1 / f_c)
    add_multiple(s, g_terms, tuple(a - b for a, b in zip(lcm, g_e)), -1 / g_c)
    return s


def s_polynomial(f: Terms, g: Terms) -> Terms:
    return _s_poly(_entry(f), _entry(g))


def buchberger(polys: list[Terms], cap: int = 50000) -> list[Terms]:
    """Groebner basis (grevlex) of the given generators.

    Pairs are taken by least grevlex lcm, ties in the order they were
    formed.  Raises GroebnerCapExceeded when the reduction budget runs out.
    """
    basis = [_entry(p) for p in polys if p]
    if not basis:
        return []
    budget = _Budget(cap)
    pairs: list = []
    formed = itertools.count()

    def add_pair(i: int, j: int) -> None:
        lcm = tuple(map(max, basis[i][0], basis[j][0]))
        heapq.heappush(pairs, (grevlex_key(lcm), next(formed), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            add_pair(i, j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        # Buchberger's first criterion: coprime leading monomials.
        if all(min(a, b) == 0 for a, b in zip(basis[i][0], basis[j][0])):
            continue
        r = _normal_form(_s_poly(basis[i], basis[j]), basis, budget)
        if r:
            entry = _entry(r)
            if not any(entry[0]):
                # Unit in the ideal; basis is the whole ring.
                return [{entry[0]: Fraction(1)}]
            basis.append(entry)
            for m in range(len(basis) - 1):
                add_pair(m, len(basis) - 1)
    return [g for _, _, g in basis]


def unit_ideal_test(polys: list[Terms], cap: int = 50000) -> bool | None:
    """True/False for a decided unit-ideal question; None if cap exceeded."""
    nonzero = [p for p in polys if p]
    if not nonzero:
        return False
    if any(map(_is_constant, nonzero)):
        return True
    try:
        basis = buchberger(nonzero, cap)
    except GroebnerCapExceeded:
        return None
    return any(map(_is_constant, basis))
