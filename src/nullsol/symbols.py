"""Symbolic invariants of a PDE symbol p(X1..Xd, T).

Degree test, principal part, characteristic normals, the one split of p
into its nonzero T-coefficients with their powers (the content ideal, the
witness and the CLI read it), and the substitution X -> i*xi that turns the
imaginary-axis slice of its zero set into a real polynomial system.  For
lattice-periodic symbols (a PI slot before T) the pi-grading does the same
for the frequencies 2*pi*v.  Both take ``i^k`` as a rotation of the
coefficients' ``(re, im)`` pairs from a 4-entry table, and both slices split
the rotated term dicts into their real and imaginary parts, clear them to
integers in one pass and drop duplicates up to a nonzero constant factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .multipoly import NEG_INF, MultiPoly

# (re, im) * i^k, indexed by k mod 4.
_I_POWER = (lambda re, im: (re, im), lambda re, im: (-im, re),
            lambda re, im: (-re, -im), lambda re, im: (im, -re))


@dataclass(frozen=True)
class ContentGenerators:
    """Nonzero T-coefficients of p, as polynomials in X1..Xd."""

    dimension: int
    generators: tuple[MultiPoly, ...]


@dataclass(frozen=True)
class RealPolySystem:
    """Real-coefficient polynomials in xi1..xid.

    Common real zeros correspond exactly to the points i*xi at which every
    content generator vanishes.  ``terms`` is the form the solver works on,
    the system cleared to integers once: every polynomial times L, the lcm
    of all coefficient denominators, as a term dict of ints.  One common
    factor changes no zero set and no ratio between the polynomials, so no
    later stage reads a denominator.  A non-real coefficient raises
    ValueError here.
    """

    dimension: int
    polys: tuple[MultiPoly, ...]
    terms: tuple[dict[tuple[int, ...], int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", _cleared([p.real_terms() for p in self.polys]))


def _cleared(parts: list[dict]) -> tuple[dict[tuple[int, ...], int], ...]:
    """Real term dicts times the lcm of all their denominators, as ints."""
    lcm = math.lcm(*(c.denominator for p in parts for c in p.values()))
    return tuple({e: c.numerator * (lcm // c.denominator) for e, c in p.items()} for p in parts)


def restrict_to_time(p: MultiPoly) -> MultiPoly:
    """p with every spatial variable set to 0 (a polynomial in T alone)."""
    return MultiPoly.from_clean(p.nvars, {e: c for e, c in p.terms.items()
                                          if not any(e[:-1])})


def degree_test(p: MultiPoly) -> bool:
    """True iff total degree is unchanged by setting all Xk to 0."""
    return p.total_degree() == restrict_to_time(p).total_degree()


def principal_part(p: MultiPoly) -> MultiPoly:
    """Top-total-degree homogeneous component of a nonzero polynomial."""
    if p.is_zero():
        raise ValueError("principal part of the zero polynomial is undefined")
    m = p.total_degree()
    return MultiPoly.from_clean(p.nvars, {e: c for e, c in p.terms.items() if sum(e) == m})


def is_characteristic_normal(p: MultiPoly, n: Sequence[Fraction]) -> bool:
    """True iff the hyperplane with normal n is characteristic for p."""
    if p.is_zero():
        raise ValueError("zero polynomial has no principal part")
    vec = [Fraction(x) for x in n]
    if len(vec) != p.nvars:
        raise ValueError(f"normal has length {len(vec)}, expected {p.nvars}")
    if all(x == 0 for x in vec):
        raise ValueError("normal vector must be nonzero")
    return principal_part(p).evaluate_real(vec) == (0, 0)


def t_coefficients(p: MultiPoly) -> tuple[tuple[int, MultiPoly], ...]:
    """The nonzero T-coefficients of p as ``(j, a_j)`` pairs, in increasing
    power j, each a_j a polynomial in X1..Xd.  They are grouped from the
    terms, so a high power of T costs no more than its terms (zero
    coefficients are never built); the zero polynomial has none."""
    groups: dict[int, dict] = {}
    for e, c in p.terms.items():
        groups.setdefault(e[-1], {})[e[:-1]] = c
    return tuple((j, MultiPoly.from_clean(p.nvars - 1, groups[j])) for j in sorted(groups))


def x_content(p: MultiPoly) -> ContentGenerators:
    """Generators of the ideal of T-coefficients: the nonzero ones, in
    increasing power of T."""
    return ContentGenerators(p.nvars - 1, tuple(a for _, a in t_coefficients(p)))


def at_i_xi(a: MultiPoly) -> MultiPoly:
    """a(i*xi) as a Q(i) polynomial in xi: each term c * X^e picks up i^|e|."""
    return MultiPoly.from_clean(a.nvars, {e: _I_POWER[sum(e) & 3](*c)
                                          for e, c in a.terms.items()})


def _real_system(dimension: int, rotated) -> RealPolySystem:
    """System of the real and imaginary parts of Q(i) term dicts, in order, less zero parts and
    duplicates up to a nonzero constant factor (the first kept; keyed on the primitive integer
    dict, its greatest exponent's coefficient positive); one factor clears the kept parts."""
    parts = [part for terms in rotated for k in (0, 1)
             if (part := {e: c[k] for e, c in terms.items() if c[k]})]
    kept: dict[frozenset, dict] = {}
    for part, ints in zip(parts, cleared := _cleared(parts)):
        g = math.gcd(*ints.values()) * (1 if ints[max(ints)] > 0 else -1)
        kept.setdefault(frozenset((e, c // g) for e, c in ints.items()), part)
    system = object.__new__(RealPolySystem)  # terms given, so no __post_init__
    object.__setattr__(system, "dimension", dimension)
    object.__setattr__(system, "polys", tuple(MultiPoly.from_clean(
        dimension, {e: (c, 0) for e, c in p.items()}) for p in kept.values()))
    # a dropped part may hold denominators that the kept ones lack
    object.__setattr__(system, "terms", cleared if len(kept) == len(parts)
                       else _cleared(list(kept.values())))
    return system


def imaginary_slice(content: ContentGenerators) -> RealPolySystem:
    """Real system whose zeros are the points xi with i*xi in the variety: the
    real and imaginary parts of every generator under X -> i*xi, less zero
    parts and duplicates up to a nonzero constant factor."""
    return _real_system(content.dimension, (at_i_xi(a).terms for a in content.generators))


def pi_grades(a: MultiPoly) -> list[MultiPoly]:
    """Grades P_0..P_n of a(X1..Xd, PI) at X = 2*pi*i*v, PI = pi.

    a(2*pi*i*v, pi) = sum_g pi^g * P_g(v), where P_g collects the terms
    c * X^e * PI^m with |e| + m = g as c * (2i)^|e| * v^e.  Because pi is
    transcendental, a vanishes at that frequency iff every P_g(v) = 0.
    """
    dim = a.nvars - 1
    grades: list[dict[tuple[int, ...], tuple]] = [
        {} for _ in range(max(map(sum, a.terms), default=-1) + 1)]
    for exps, c in a.terms.items():
        k = sum(exps[:dim])
        re, im = _I_POWER[k & 3](*c)
        grades[sum(exps)][exps[:dim]] = (re * 2 ** k, im * 2 ** k)
    return [MultiPoly.from_clean(dim, terms) for terms in grades]


def pi_graded_slice(content: ContentGenerators) -> RealPolySystem:
    """Real system in v whose zeros are the v with every generator zero at
    the frequency 2*pi*v.

    ``content`` comes from a lattice-periodic symbol, so its last slot is
    PI.  The real and imaginary parts of every pi-grade of every generator
    form the system, less zero parts and duplicates up to a nonzero constant factor.
    """
    return _real_system(content.dimension - 1,
                        (q.terms for a in content.generators for q in pi_grades(a)))
