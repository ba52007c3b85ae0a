"""Certified three-valued emptiness decision for real polynomial systems.

Stages: the unit-ideal test (no common complex zero implies no common real
zero); an exact presolve (affine elimination, with the affine members of
the Groebner basis after the generators, free variables, sign-definite
generators; see :func:`_presolve`); then in one variable a Sturm count of
the distinct real zeros, which decides EMPTY when it is 0, and in two
variables an eliminant ``r(x1)`` of the ideal (a polynomial free of x2, or
``Res_x2`` of a pair) whose real roots are isolated and lifted exactly
(see :func:`_resultant_stage`); a single curve ``p`` goes there as the pair
``(p, dp/dx2)``: a nonempty compact zero set has a point where x1 is
largest, and by the implicit function theorem ``dp/dx2`` vanishes there,
so no such critical point decides EMPTY once the radius bounds the zeros
(see :func:`_search`).  Then a boundedness reduction that confines all
real zeros of the (reduced) system to an exact cube, then certified
branch-and-bound subdivision with exact interval arithmetic on integers.

Two orders (see :func:`_exact_first`).  A pair of nonconstant polynomials
runs the presolve, the Sturm count and the resultant stage on its own
polynomials first, and the unit-ideal test only when they leave it
undecided; affine ideal members the test then finds go through the
presolve and those stages once more.  Every other system starts with the
unit-ideal test and runs the exact stages once, with the members.  The
stages return facts, and :func:`decide_emptiness` builds the one verdict:
NONEMPTY carries an exact rational common zero, checked once against the
system as given; EMPTY a machine-checkable certificate; UNKNOWN is honest,
never silently coerced.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, ne, not_
from typing import NamedTuple

from .config import DEFAULT_CONFIG, SolverConfig
from .groebner import unit_ideal_test
from .intervals import (
    Box,
    DyadicBox,
    IntPoly,
    clear,
    cube,
    dyadic,
    enclose,
    midpoint,
    scale,
    split,
)
from .symbols import RealPolySystem

EMPTY = "EMPTY"
NONEMPTY = "NONEMPTY"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class EmptinessVerdict:
    status: str
    witness: tuple[Fraction, ...] | None = None
    certificate: dict | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubdivisionResult:
    # kind: "NoZeroInBox" | "ExactZero" | "CandidateBoxes"
    kind: str
    zero: tuple[Fraction, ...] | None = None
    stats: dict = field(default_factory=dict)
    # least distance from 0 of a discarding enclosure; not in the JSON stats
    margin: Fraction | None = None


# Depth cap of each face search: at most 2^13 - 1 boxes, inside BOX_BUDGET.
_SPHERE_DEPTH = 12
# The most boxes one branch-and-bound may process, here and in the lattice
# search of the periodic test; past it the search gives up (box-budget).
BOX_BUDGET = 100_000
# Most term products, and most coefficient bits added, that one affine
# substitution of the presolve may cost; past either it stops eliminating.
_SUBSTITUTION_LIMIT = 10_000
# Most work, n^2 * (b + log2 n) for a univariate polynomial with n
# coefficients of up to b bits, that the gcd of univariate polynomials
# (see _univariate_gcd) takes on, in the d = 1 Sturm stage and the d = 1
# periodic test; past it the radius proof and subdivision, or the lattice
# search, run instead.  The count takes under 0.1 s at the limit (dense,
# CPython 3.11, one core of a 2-CPU VM).  A gcd that a certificate or the
# periodic evidence prints is constant, or linear with its root found
# within _RESULTANT_LIMIT (see _real_roots), or of degree 2 or more, so
# each polynomial it divides has n >= 3 and b < 12,220; its coefficients
# have at most b + n + 1 bits (Mignotte's bound on a factor), well under
# the 4,300 digits Python prints of an int.
_STURM_LIMIT = 110_000
# Most size of a pair, (D + 1) * (m + n)^3 for x2-degrees m, n and D as in
# _resultant, that the resultant stage in d = 2 takes on, kept from the
# sampled Sylvester determinants so that the same pairs skip it: at the
# bound the subresultant sequence takes 0.1 s on a dense pair linear in x2
# (x1-degree 625, 2-bit coefficients), 20 ms at x2-degree 2 or more.  Also
# most work, n^2 * (b + log2 n) as above, of a polynomial whose roots
# _real_roots isolates, or that a Resultant certificate prints with its
# content: under 0.05 s at the limit (all roots irrational), as bisection to
# a width of 1/lc^2 costs about n^2 * b^3.  Past either the radius proof and
# subdivision run instead (CPython 3.11, one core of a 2-CPU VM).
_RESULTANT_LIMIT = 10_000


def _certify_positive_on_faces(top_terms: dict[tuple[int, ...], int],
                               dim: int) -> Fraction | None:
    """Certified positive lower bound of a form on the max-norm unit sphere.

    The sphere is the union of the 2*dim faces of the cube [-1,1]^dim.  The
    form is homogeneous of even degree, so F(-x) = F(x) and each face
    x_i = -1 is the mirror image of x_i = 1: only the dim faces x_i = 1 are
    searched, each as the unit cube with coordinate i pinned to [1, 1]
    (width 0, so never split) and cleared by the subdivision loop.  The form
    is a sum of squares, so every discarding enclosure lies above 0.
    Returns None if a face is not cleared (an exact zero on a face ends its
    search at once).
    """
    margins = []
    for axis in range(dim):
        face = cube(axis, 1) + ((Fraction(1), Fraction(1)),) + cube(dim - axis - 1, 1)
        result = _branch_and_bound([top_terms], face, _SPHERE_DEPTH)
        if result.kind != "NoZeroInBox":
            return None
        margins.append(result.margin)
    return min(margins)


def boundedness_radius(sys: RealPolySystem) -> Fraction | None:
    """Exact radius R0 with every common real zero in [-R0, R0]^d, or None.

    Works on F, the sum of squares of the integer system polynomials, so no
    Fraction arithmetic runs.  If the top homogeneous part of F is certified
    >= c > 0 on the max-norm unit sphere (searched on its d faces x_k = 1,
    the others being their mirror images), then
    F(xi) >= c*r^(2D) - sum_j C_j*r^j for ||xi||_max = r >= 1, where C_j
    sums |coefficients| of the degree-j part of F; the smallest integer r
    making that positive bounds all real zeros.  The search for r compares
    integers: c is cleared to its denominator first.
    """
    if all(sum(e) == 0 for p in sys.terms for e in p):
        raise ValueError("system must contain a nonconstant polynomial")
    terms: dict[tuple[int, ...], int] = {}
    for p in sys.terms:
        items = list(p.items())
        # (sum c*x^e)^2, each unordered pair of terms once
        for k, (e1, c1) in enumerate(items):
            for e2, c2 in items[k:]:
                m = tuple(map(add, e1, e2))
                terms[m] = terms.get(m, 0) + (c1 * c2 if e1 is e2 else 2 * c1 * c2)
    deg = max(map(sum, terms))
    top = {e: c for e, c in terms.items() if c and sum(e) == deg}
    lower_weight: dict[int, int] = {}
    for e, c in terms.items():
        j = sum(e)
        if j < deg:
            lower_weight[j] = lower_weight.get(j, 0) + abs(c)

    c = _certify_positive_on_faces(top, sys.dimension)
    if c is None:
        return None
    lead = c.numerator
    weights = [(w * c.denominator, j) for j, w in lower_weight.items()]

    def dominates(r: int) -> bool:
        return lead * r ** deg > sum(w * r ** j for w, j in weights)

    hi = 1
    while not dominates(hi):
        hi *= 2
        if hi > 1 << 40:
            return None
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if dominates(mid):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(hi)


def _simplest_rational(a: int, b: int, den: int) -> tuple[int, int]:
    """The smallest-denominator rational in [a/den, b/den], as (num, den).

    Stern-Brocot descent by continued fractions on integer pairs.  Among
    integers the one nearest 0 wins, so it is 0 whenever a <= 0 <= b.
    """
    if a <= 0 <= b:
        return 0, 1
    if b < 0:
        num, d = _simplest_rational(-b, -a, den)
        return -num, d
    # [lo_n/lo_d, hi_n/hi_d] with 0 < lo; (p1/q1, p0/q0) the last two convergents
    lo_n, lo_d, hi_n, hi_d = a, den, b, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        n = -(-lo_n // lo_d)
        if n * hi_d <= hi_n:
            return n * p1 + p0, n * q1 + q0
        # n - 1 < lo <= hi < n: continue on the reciprocals of the fractional parts.
        n -= 1
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        lo_n, lo_d, hi_n, hi_d = hi_d, hi_n - n * hi_d, lo_d, lo_n - n * lo_d


def _candidate_points(box: DyadicBox, q: int) -> list[tuple[tuple[int, ...], int]]:
    """The box midpoint and its per-coordinate simplest rational point.

    Each point is ``(numerators, m)`` over the denominator ``q*m``.
    """
    mid, m = midpoint(box)
    k, coords = box
    simplest = [_simplest_rational(a, b, q << k) for a, b in coords]
    den = math.lcm(*(d for _, d in simplest))
    return [(mid, m), (tuple(q * num * (den // d) for num, d in simplest), den)]


def _is_exact_common_zero(polys: list[IntPoly], numerators: tuple[int, ...],
                          m: int) -> bool:
    """Whether every cleared polynomial vanishes at the point ``numerators/(q*m)``.

    ``q`` is the one the polynomials were cleared with (:func:`clear`); the
    test is exact, as ``L*(q*m)^D * p`` at the point is an integer sum.
    """
    for poly in polys:
        acc = 0
        for c, codeg, factors in poly.terms:
            v = c * m ** codeg
            for axis, n in factors:
                v *= numerators[axis] ** n
            acc += v
        if acc != 0:
            return False
    return True


def _branch_and_bound(terms_list, box: Box, max_depth: int) -> SubdivisionResult:
    """Branch-and-bound over a box with exact interval arithmetic.

    The box and the polynomials go over to integers once (see
    :mod:`nullsol.intervals`).  A box is discarded when some polynomial's
    enclosure excludes 0; discarding every box proves there is no zero in
    the original box.  Each surviving box is probed at its midpoint and at
    its simplest rational point (the smallest-denominator rational in every
    coordinate interval); an exact common zero among them yields ExactZero
    (the lexicographically smallest zero found in that wave, so the result
    is independent of processing order).  CandidateBoxes when the depth cap
    is hit, or when the next wave would take the boxes processed past
    ``BOX_BUDGET``.
    """
    q, start = dyadic(box)
    polys = [clear(terms, q) for terms in terms_list]
    wave = [start]
    processed = discarded = 0
    depth = 0
    # least gap / scale of a discarding enclosure, kept as an integer pair
    gap_min, scale_min = None, 1
    while True:
        processed += len(wave)
        zeros_found: list[tuple[Fraction, ...]] = []
        survivors: list[DyadicBox] = []
        for b in wave:
            for poly in polys:
                lo, hi = enclose(poly, b)
                if lo > 0 or hi < 0:
                    gap, s = max(lo, -hi), scale(poly, q, b[0])
                    if gap_min is None or gap * scale_min < gap_min * s:
                        gap_min, scale_min = gap, s
                    discarded += 1
                    break
            else:
                zeros_found.extend(tuple(Fraction(x, q * m) for x in pt)
                                   for pt, m in _candidate_points(b, q)
                                   if _is_exact_common_zero(polys, pt, m))
                survivors.append(b)
        stats = {"boxes_processed": processed, "boxes_discarded": discarded,
                 "depth_reached": depth}
        margin = None if gap_min is None else Fraction(gap_min, scale_min)
        if zeros_found:
            return SubdivisionResult("ExactZero", zero=min(zeros_found),
                                     stats=stats, margin=margin)
        if not survivors:
            return SubdivisionResult("NoZeroInBox", stats=stats, margin=margin)
        if depth >= max_depth or processed + 2 * len(survivors) > BOX_BUDGET:
            stats["unresolved_boxes"] = len(survivors)
            return SubdivisionResult("CandidateBoxes", stats=stats, margin=margin)
        wave = [half for b in survivors for half in split(b)]
        depth += 1


def subdivision_search(sys: RealPolySystem, box: Box,
                       config: SolverConfig = DEFAULT_CONFIG) -> SubdivisionResult:
    """Subdivision search for a common zero of ``sys`` in ``box``."""
    return _branch_and_bound(sys.terms, box, config.max_depth)


def add_multiple(acc: dict, p: dict, exps: tuple[int, ...], coeff) -> None:
    """acc += coeff * X^exps * p on exponent tuples, in place; drops zeros."""
    for e, c in p.items():
        m = tuple(map(add, e, exps))
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            del acc[m]


class _Presolved(NamedTuple):
    """A system ready for the search, as the presolve leaves it."""

    dimension: int
    terms: tuple[dict[tuple[int, ...], int], ...]  # on the kept axes, all nonzero
    index: list[int]                               # the polynomial index of each of terms
    kept: list[int]
    free: list[int]
    steps: list[tuple[int, int, int, dict]]  # (poly, axis, a, s): x_axis = s(x) / a
    certificate: dict | None                 # EMPTY without a search
    applied: bool                            # False: terms are the input's, on all axes


def _sign_definite(p: dict) -> bool:
    """Even exponents, coefficients of one sign and a nonzero constant term."""
    c0 = p.get((0,) * len(next(iter(p))))
    return (bool(c0) and all((c > 0) == (c0 > 0) for c in p.values())
            and not any(x & 1 for e in p for x in e))


def _eliminate(polys: list[dict], j: int, steps: list) -> bool:
    """Solve the degree-1 ``polys[j]`` for its variable x_k that occurs in
    the fewest other polynomials (lowest index on ties) and substitute into
    each other ``q``, times ``a^D`` (``a`` the x_k coefficient, ``D`` the
    degree of ``q`` in x_k), so it stays an integer polynomial.  False,
    changing nothing, past _SUBSTITUTION_LIMIT."""
    p = polys[j]
    k = min((e.index(1) for e in p if any(e)),
            key=lambda k: (sum(any(e[k] for e in q) for q in polys), k))
    unit = next(e for e in p if any(e) and e[k])
    s = {e: -c for e, c in p.items()}
    a = -s.pop(unit)
    targets = [i for i, q in enumerate(polys) if i != j and any(e[k] for e in q)]
    # s^n has at most C(n + m - 1, n) terms, with coefficients at most (m * max|c|)^n
    m = max(len(s), 1)
    top = max((e[k] for i in targets for e in polys[i]), default=0)
    work = top + sum(math.comb(e[k] + m - 1, e[k]) for i in targets for e in polys[i])
    if max(work, top * math.log2(m * max(map(abs, (a, *s.values()))))) > _SUBSTITUTION_LIMIT:
        return False
    powers = [{(0,) * len(unit): 1}]
    for _ in range(top):
        powers.append({})
        for e, c in s.items():
            add_multiple(powers[-1], powers[-2], e, c)
    for i in targets:
        deg = max(e[k] for e in polys[i])
        out: dict = {}
        for e, c in polys[i].items():
            add_multiple(out, powers[e[k]], e[:k] + (0,) + e[k + 1:], c * a ** (deg - e[k]))
        polys[i] = out
    polys[j] = {}
    steps.append((j, k, a, s))
    return True


def _presolve(terms, dim: int, members=()) -> _Presolved:
    """Exact reductions before the radius proof.

    While some polynomial has degree 1, it is solved for its variable that
    occurs in the fewest other polynomials (lowest index on ties), which is
    substituted into the others and dropped.  Every variable that occurs in
    no polynomial is projected out (a zero of the rest extends by 0), and a
    sign-definite polynomial, a nonzero constant among them, decides EMPTY.
    ``members`` are further polynomials of the ideal, placed after
    ``terms``: they change no zero, and a polynomial index is a position in
    ``terms`` followed by ``members``.  If nothing applies, the nonzero
    polynomials of ``terms`` alone come back unchanged, on all axes.
    """
    polys, steps = [*terms, *members], []
    while (j := next((j for j, p in enumerate(polys) if p and max(map(sum, p)) == 1),
                     None)) is not None and _eliminate(polys, j, steps):
        pass
    occurs = list(map(any, zip(*(e for p in polys for e in p)))) or [False] * dim
    eliminated = {k for _, k, _, _ in steps}
    free = [k for k in range(dim) if not occurs[k] and k not in eliminated]
    signed = next((j for j, p in enumerate(polys) if p and _sign_definite(p)), None)
    if any(polys) and not steps and not free and signed is None:
        return _Presolved(dim, tuple(p for p in terms if p), [j for j, p in enumerate(terms) if p],
                          list(range(dim)), [], [], None, False)
    kept = [k for k in range(dim) if occurs[k]]
    return _Presolved(len(kept), tuple({tuple(e[k] for k in kept): c for e, c in p.items()}
                                       for p in polys if p),
                      [j for j, p in enumerate(polys) if p], kept, free, steps,
                      None if signed is None else {"kind": "SignDefinite", "poly": signed}, True)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """``|lc(b)|^(deg a - deg b + 1) * a`` modulo ``b``, for a nonzero ``b``.

    A univariate polynomial is its list of integer coefficients, highest
    degree first, with no leading zero; [] is the zero polynomial.  The
    multiplier is positive, so the remainder has the sign of the true one.
    """
    r = list(a)
    n = len(b)
    scale, sign = abs(b[0]), 1 if b[0] > 0 else -1
    for i in range(len(r) - n + 1):
        c = sign * r[i]
        if scale != 1:
            r[i + 1:] = [scale * x for x in r[i + 1:]]
        if c:
            for j in range(1, n):
                r[i + j] -= c * b[j]
    r = r[max(len(r) - n + 1, 0):]
    while r and not r[0]:
        del r[0]
    return r


def _primitive(p: list[int]) -> list[int]:
    """``p`` divided by the gcd of its coefficients (a positive number)."""
    g = math.gcd(*p)
    return p if g == 1 else [c // g for c in p]


def _work(p: list[int]) -> int:
    """n^2 * (b + log2 n) for a nonzero polynomial with n coefficients of up
    to b bits: what _STURM_LIMIT and _RESULTANT_LIMIT bound."""
    return len(p) ** 2 * (len(p).bit_length() + max(map(abs, p)).bit_length())


def _univariate_gcd(terms) -> list[int] | None:
    """The primitive gcd over Z of univariate term dicts (zero ones
    skipped), with a positive leading coefficient, by primitive
    pseudo-remainder sequences; None with no nonzero one or past
    _STURM_LIMIT."""
    polys = [[p.get((k,), 0) for k in range(max(e for e, in p), -1, -1)] for p in terms if p]
    if max(map(_work, polys), default=_STURM_LIMIT + 1) > _STURM_LIMIT:
        return None
    g: list[int] = []
    for p in polys:
        while p:
            g, p = p, _pseudo_remainder(g, p)
            p = p and _primitive(p)
        g = _primitive(g)
    return g if g[0] > 0 else [-c for c in g]


def _value(p: list[int], num: int, den: int) -> int:
    """``den^deg(p) * p(num/den)``, whose sign is that of ``p`` at ``num/den``
    for ``den > 0``; ``(num, den) = (+-1, 0)`` is the point at +-oo."""
    acc, power = p[0], 1
    for c in p[1:]:
        power *= den
        acc = acc * num + c * power
    return acc


def _sturm_sequence(g: list[int]) -> list[list[int]]:
    """``g, g', -rem(g, g'), ...`` for a nonzero integer polynomial, each
    remainder a positive multiple of the true one, made primitive.  It ends
    in a multiple of gcd(g, g')."""
    seq = [g]
    nxt = [c * (len(g) - 1 - i) for i, c in enumerate(g[:-1])]
    while nxt:
        seq.append(_primitive(nxt))
        nxt = [-c for c in _pseudo_remainder(seq[-2], seq[-1])]
    return seq


def _sign_changes(seq: list[list[int]], num: int, den: int) -> int:
    """Sign changes of a Sturm sequence at ``num/den`` (zeros dropped).

    Sturm's theorem: for a squarefree ``g`` and a < b, the count at a minus
    the count at b is the number of distinct real roots in (a, b].
    """
    signs = [v > 0 for p in seq if (v := _value(p, num, den))]
    return sum(map(ne, signs, signs[1:]))


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """``a / b`` for an integer ``b`` that divides ``a`` with an integer
    quotient (a primitive ``b`` that divides ``a`` over Q, by Gauss);
    ArithmeticError if it does not."""
    r, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        c = r[i] // b[0]
        q.append(c)
        for j in range(len(b)):
            r[i + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _narrow(s: list[int], k: int, lo: int, hi: int) -> tuple[int, int] | None:
    """The one root of a squarefree primitive ``s`` in ``(lo/2^k, hi/2^k]``,
    as a reduced ``(num, den)``, or None if it is irrational.

    Sign bisection, against the sign at the right end, down to a width below
    ``1/lc(s)^2``.  A rational root ``p/q`` of ``s`` has ``q | lc(s)``, and two
    such rationals lie at least ``1/lc(s)^2`` apart, so the interval's simplest
    rational is then the root if the root is rational.  That rational is also
    probed after 0, 1, 2, 4, 8, ... steps, so a simple root turns up early;
    its cost grows with the step count, so the probes together cost about
    as much as two at the final width.
    """
    sep, step = s[0] ** 2, 0
    right = _value(s, hi, 1 << k)
    while right:
        den = 1 << k
        last = (hi - lo) * sep < den
        if last or not step & (step - 1):
            num, q = _simplest_rational(lo, hi, den)
            # the left end may be a root of the interval to the left
            if lo * q < num * den and not _value(s, num, q):
                return num, q
            if last:
                return None
        lo, hi, k, step = 2 * lo, 2 * hi, k + 1, step + 1
        mid = (lo + hi) // 2
        v = _value(s, mid, 1 << k)
        if not v or (v > 0) == (right > 0):
            hi, right = mid, v
        else:
            lo = mid
    g = math.gcd(hi, 1 << k)
    return hi // g, (1 << k) // g


def _real_roots(f: list[int]) -> list[tuple[int, int] | None] | None:
    """The distinct real roots of a nonzero integer polynomial, in increasing
    order: a reduced ``(num, den)`` for a rational one, None for another.
    None instead of the list if it has a real root and is past
    _RESULTANT_LIMIT.

    The one routine for real roots.  A quadratic is solved by the integer
    square root of its discriminant, at any size.  Any other is counted by
    Sturm at +-B, for Cauchy's bound ``B`` (a multiple root changes no
    count); with a real root and within the limit, Sturm counts at dyadic
    points split ``(-B, B]`` until each part holds one root of the
    squarefree part, which :func:`_narrow` then pins down.
    """
    if len(f) == 3:
        a, b, c = f if f[0] > 0 else [-x for x in f]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = math.isqrt(disc)
        if s * s != disc:
            return [None, None]
        # (-b -+ s) / 2a, in increasing order as a > 0; one root when s = 0
        return [Fraction(t - b, 2 * a).as_integer_ratio() for t in sorted({-s, s})]
    f = _primitive(f)
    seq = _sturm_sequence(f)
    bound = 2 + max(map(abs, f[1:]), default=0) // abs(f[0])
    at_lo, at_hi = _sign_changes(seq, -bound, 1), _sign_changes(seq, bound, 1)
    if at_lo == at_hi:
        return []
    if _work(f) > _RESULTANT_LIMIT:
        return None
    if len(seq[-1]) > 1:
        # the squarefree part has a sequence of its own, with other counts
        f = _exact_quotient(f, seq[-1])
        seq = _sturm_sequence(f)
        at_lo, at_hi = _sign_changes(seq, -bound, 1), _sign_changes(seq, bound, 1)
    roots: list[tuple[int, int] | None] = []
    # (k, lo, hi, changes at lo/2^k, changes at hi/2^k), the leftmost on top
    stack = [(0, -bound, bound, at_lo, at_hi)]
    while stack:
        k, lo, hi, at_lo, at_hi = stack.pop()
        if at_lo - at_hi == 1:
            roots.append(_narrow(f, k, lo, hi))
        elif at_lo > at_hi:
            at_mid = _sign_changes(seq, lo + hi, 2 << k)
            stack += [(k + 1, lo + hi, 2 * hi, at_mid, at_hi), (k + 1, 2 * lo, lo + hi, at_lo, at_mid)]
    return roots


def gcd_real_roots(terms) -> tuple[list[int], list[tuple[int, int] | None]] | None:
    """The gcd ``g`` of univariate term dicts (see :func:`_univariate_gcd`)
    and its distinct real roots (see :func:`_real_roots`); None when either
    gives up on its work bound."""
    if (g := _univariate_gcd(terms)) is None or (roots := _real_roots(g)) is None:
        return None
    return g, roots


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials in x1, lists as in _pseudo_remainder."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    """``a - b`` for two polynomials in x1, with no leading zero."""
    d = [x - y for x, y in itertools.zip_longest(a[::-1], b[::-1], fillvalue=0)]
    return list(itertools.dropwhile(not_, d[::-1]))


def _resultant(p: dict, q: dict) -> list[int] | None:
    """``Res_x2(p, q)`` as x1-coefficients, highest degree first ([] when it is
    0), or None past _RESULTANT_LIMIT.

    The subresultant pseudo-remainder sequence in x2 over Z[x1] (Collins
    1967; Brown & Traub 1971; Cohen, GTM 138, alg. 3.3.7), every exact
    division checked; a zero remainder is a common factor, so Res = 0.  The
    sign is that of the Sylvester matrix with the x2-degrees m, n of p, q,
    rows of p first; its degree in x1 is at most D = n*deg p + m*deg q - m*n.
    """
    m, n = max(e[1] for e in p), max(e[1] for e in q)
    bound = n * max(map(sum, p)) + m * max(map(sum, q)) - m * n
    if (bound + 1) * (m + n) ** 3 > _RESULTANT_LIMIT:
        return None
    # the coefficients of x2^deg, ..., x2^0, each a polynomial in x1
    a, b = ([[f.get((i, j), 0)
              for i in range(max((e[0] for e in f if e[1] == j), default=-1), -1, -1)]
             for j in range(deg, -1, -1)] for f, deg in ((p, m), (q, n)))
    sign = -1 if m < n and m * n % 2 else 1
    a, b = (b, a) if m < n else (a, b)
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = list(a)  # lc(b)^(delta + 1) * a mod b
        for i in range(delta + 1):
            r[i + 1:] = [_mul(b[0], c) for c in r[i + 1:]]
            for j in range(1, len(b)):
                r[i + j] = _sub(r[i + j], _mul(r[i], b[j]))
        r = list(itertools.dropwhile(not_, r[delta + 1:]))
        if not r:
            return []
        hd = functools.reduce(_mul, [h] * delta, [1])  # h^delta
        divisor = _mul(g, hd)  # g = lc(a), 1 at first
        a, b, g = b, [_exact_quotient(c, divisor) for c in r], b[0]
        h = _exact_quotient(functools.reduce(_mul, [g] * delta, h), hd)  # g^delta / h^(delta-1)
    # b is a constant in x2: the resultant is lc(b)^deg a / h^(deg a - 1)
    return _exact_quotient(functools.reduce(_mul, [b[0]] * (len(a) - 1), [sign * c for c in h]),
                           functools.reduce(_mul, [h] * (len(a) - 1), [1]))


def _eliminant(polys: list[tuple[int, dict]]) -> tuple[list[int], list[int]] | None:
    """A nonzero polynomial ``r(x1)`` of the ideal, and the indices of the
    polynomials it comes from: the first one free of x2, else the first
    nonzero ``Res_x2`` of a pair, in system order.  None if there is none,
    or once a resultant is past _RESULTANT_LIMIT."""
    for i, p in polys:
        if not any(e[1] for e in p):
            return [i], [p.get((k, 0), 0) for k in range(max(e[0] for e in p), -1, -1)]
    for (i, p), (j, q) in itertools.combinations(polys, 2):
        r = _resultant(p, q)
        if r is None:
            return None
        if r:
            return [i, j], r
    return None


def _resultant_stage(polys: list[tuple[int, dict]], diagnostics: dict) -> tuple | dict | None:
    """In d = 2, what an eliminant ``r(x1)`` and its real roots show: the
    least rational zero (a tuple), or ``{"pair", "resultant": r, "roots":
    lifts}`` when there is no real zero; None if it cannot tell.

    Every real zero has its x1 among the real roots of ``r``.  At each
    rational one, ``a``, in increasing order, the gcd in x2 of all the
    polynomials at x1 = ``a`` holds the zeros above it: its first rational
    root, or 0 if every polynomial vanishes there, gives the least rational
    zero in lexicographic order.  No real zero when every real root of
    ``r`` is rational and no gcd has a real root; ``lifts`` lists each ``a``
    with its gcd.  The roots come from :func:`_real_roots`, and where it
    gives up, so does the stage.  ``polys`` holds (polynomial index,
    nonzero term dict) pairs, and ``pair`` names the polynomials ``r``
    comes from by that index.
    """
    found = _eliminant(polys)
    if found is None or _work(found[1]) > _RESULTANT_LIMIT:
        return None
    pair, r = found
    roots = _real_roots(r)
    rational = [x for x in roots if x is not None]
    diagnostics["pipeline"].append("resultant")
    diagnostics["resultant"] = {"pair": pair, "degree": len(r) - 1,
                                "real_roots": len(roots), "rational_roots": len(rational)}
    lifts = []
    for num, den in rational:
        restricted = []
        for _, p in polys:
            top, f = max(e[0] for e in p), {}
            for (i, j), c in p.items():
                f[(j,)] = f.get((j,), 0) + c * num ** i * den ** (top - i)
            restricted.append({e: c for e, c in f.items() if c})
        x2: tuple[int, int] | None = (0, 1)
        if any(restricted):
            if (lift := gcd_real_roots(restricted)) is None:
                return None
            g, above = lift
            x2 = next(filter(None, above), None)
            if x2 is None:
                if not above:
                    lifts.append({"x1": str(Fraction(num, den)), "gcd": [str(c) for c in g]})
                continue
        return Fraction(num, den), Fraction(*x2)
    facts = {"pair": pair, "resultant": [str(c) for c in r], "roots": lifts}
    return facts if len(lifts) == len(roots) else None


def _exact_first(terms) -> bool:
    """Whether the exact stages run before the unit-ideal test: for exactly
    two nonzero polynomials, neither a nonzero constant.  A pair's presolve,
    Sturm count and resultant are cheap exact eliminations that decide most
    pairs; with more polynomials the resultant stage eliminates only one
    pair, while Groebner sees them all, and a constant is a unit at once."""
    nonzero = [p for p in terms if p]
    return len(nonzero) == 2 and all(any(map(any, p)) for p in nonzero)


def _exact_stages(sys: RealPolySystem, members: list,
                  diagnostics: dict) -> tuple[_Presolved, tuple | None, tuple | None]:
    """``(pre, outcome, critical)``: the presolve of the system with the
    ideal ``members`` after it, then in d = 1 a Sturm count of the gcd
    (see :func:`_real_roots`), which decides EMPTY when it is 0, and in
    d = 2 the resultant stage.  ``outcome`` is ``(status, witness,
    certificate)`` once decided, else None; ``critical`` is ``(poly,
    facts)`` when a single curve has no real critical point, which decides
    EMPTY once a radius bounds its zeros (see :func:`_search`).

    The gcd has a positive leading coefficient, so an odd degree or a
    constant term <= 0 shows a real zero without the count.

    A single curve ``p`` in d = 2 that involves x2 goes to the resultant
    stage as the pair ``(p, dp/dx2)``, its critical points for x1 (Basu,
    Pollack & Roy, "Algorithms in Real Algebraic Geometry").  A common zero
    of the pair is a zero of ``p``."""
    pre = _presolve(sys.terms, sys.dimension, members)
    # the presolve shows in the diagnostics only where something applied
    if pre.applied:
        diagnostics["pipeline"].append("presolve")
        diagnostics["presolve"] = {"eliminated": [k for _, k, _, _ in pre.steps],
                                   "free": pre.free}
        if members:
            diagnostics["presolve"]["ideal_members"] = len(members)
    if pre.certificate is not None:
        return pre, (EMPTY, None, pre.certificate), None
    if not pre.terms:
        return pre, (NONEMPTY, (), {"kind": "ExactPoint"}), None
    if (pre.dimension == 1 and (g := _univariate_gcd(pre.terms)) is not None
            and len(g) % 2 and g[-1] > 0 and _real_roots(g) == []):
        diagnostics["pipeline"].append("sturm")
        return pre, (EMPTY, None, {"kind": "Sturm", "gcd": [str(c) for c in g]}), None
    if pre.dimension != 2:
        return pre, None, None
    polys, curve = list(zip(pre.index, pre.terms)), None
    if len(polys) == 1 and any(e[1] for e in pre.terms[0]):
        curve, p = polys[0]
        polys.append((curve, {(a, b - 1): b * c for (a, b), c in p.items() if b}))
    found = _resultant_stage(polys, diagnostics)
    if curve is not None and diagnostics["pipeline"][-1:] == ["resultant"]:
        diagnostics["resultant"].update(pair=[curve], derivative="x2")
    if isinstance(found, tuple):  # the least rational zero
        return pre, (NONEMPTY, found, {"kind": "ExactPoint"}), None
    if found is None:
        return pre, None, None
    if curve is None:
        return pre, (EMPTY, None, {"kind": "Resultant", **found}), None
    return pre, None, (curve, found)


def _search(sys: _Presolved, critical: tuple | None, config: SolverConfig,
            diagnostics: dict) -> tuple[str, tuple[Fraction, ...] | None, dict | None]:
    """``(status, witness, certificate)`` of a presolved system with a
    nonzero polynomial that the exact stages left undecided: the
    boundedness radius, then subdivision of its cube (or the default cube).

    ``critical`` is a single curve ``p`` with no real critical point for
    x1 (see :func:`_exact_stages`), which is EMPTY once the radius bounds
    its zeros: on a nonempty compact zero set, take a point ``z`` where x1
    is largest.  If dp/dx2(z) were not 0, the implicit function theorem
    would make the set a graph ``x2 = phi(x1)`` near ``z``, which reaches
    x1 > z1.  So dp/dx2(z) = 0."""
    radius = boundedness_radius(sys)
    diagnostics["pipeline"].append("boundedness")
    diagnostics["radius"] = None if radius is None else str(radius)
    if critical is not None and radius is not None:
        curve, found = critical
        return EMPTY, None, {"kind": "CriticalPoints", "poly": curve, "radius": str(radius),
                             "resultant": found["resultant"], "roots": found["roots"]}

    halfwidth = radius if radius is not None else config.default_box_halfwidth
    result = subdivision_search(sys, cube(sys.dimension, halfwidth), config)
    diagnostics["pipeline"].append("subdivision")
    diagnostics["subdivision"] = dict(result.stats)

    if result.kind == "ExactZero":
        return NONEMPTY, result.zero, {"kind": "ExactPoint"}
    if result.kind == "NoZeroInBox" and radius is not None:
        return EMPTY, None, {"kind": "ExhaustiveSubdivision", "radius": str(radius)}
    diagnostics["unresolved_boxes"] = result.stats.get("unresolved_boxes", 0)
    if result.kind == "NoZeroInBox":
        diagnostics["reason"] = "unbounded-no-radius"
    elif result.stats["depth_reached"] >= config.max_depth:
        diagnostics["reason"] = "depth-cap"
    else:
        diagnostics["reason"] = "box-budget"
    return UNKNOWN, None, None


def decide_emptiness(sys: RealPolySystem,
                     config: SolverConfig = DEFAULT_CONFIG) -> EmptinessVerdict:
    """Three-valued emptiness decision; see the module docstring for the
    two orders of the stages.

    ``diagnostics["pipeline"]`` lists the stages in the order they ran.
    ``"groebner"`` and ``groebner_unit`` are there only when the unit-ideal
    test ran (``groebner_unit: None`` at its cap or field width): a pair the
    exact stages decide never reaches it.  When the test ran after them and
    found affine ideal members, the presolve and the exact stages run once
    more; the ``presolve`` and ``resultant`` entries are then those of the
    last run that had them, and the pipeline shows where each ran."""
    diagnostics: dict = {"pipeline": []}

    # A zero polynomial is passed through: the unit-ideal test drops it, and
    # the presolve keeps it out of the reduced system.  With no nonzero
    # polynomial, every axis is free and the origin is a zero.  The affine
    # members of the Groebner basis go to the presolve after the system.
    members: list = []
    first = _exact_first(sys.terms)
    outcome = None
    if first:
        pre, outcome, critical = _exact_stages(sys, members, diagnostics)
    if outcome is None:
        unit = unit_ideal_test(list(sys.terms), config.groebner_cap, members)
        diagnostics["pipeline"].append("groebner")
        diagnostics["groebner_unit"] = unit
        if unit:
            return EmptinessVerdict(EMPTY, None, {"kind": "UnitIdeal"}, diagnostics)
        if members or not first:
            pre, outcome, critical = _exact_stages(sys, members, diagnostics)
        if outcome is None:
            outcome = _search(pre, critical, config, diagnostics)
    status, witness, certificate = outcome
    if status == NONEMPTY:
        # back to all coordinates: free ones 0, eliminated ones in reverse
        # order; then one exact check in the system as given, unless the
        # subdivision of that very system made it (it keeps exact zeros only)
        x = [Fraction(0)] * sys.dimension
        for k, v in zip(pre.kept, witness):
            x[k] = v
        for _, k, a, s in reversed(pre.steps):
            x[k] = Fraction(sum(c * x[e.index(1)] if any(e) else c for e, c in s.items()), a)
        witness = tuple(x)
        den = math.lcm(*(v.denominator for v in witness))
        if ((pre.applied or "subdivision" not in diagnostics["pipeline"])
                and not _is_exact_common_zero([clear(p, den) for p in sys.terms],
                                              tuple(int(v * den) for v in witness), 1)):
            raise ArithmeticError(f"witness {witness} is not a zero of the system")
    elif status == EMPTY and (pre.steps or pre.free):
        wrapped = {"kind": "Presolve",
                   "eliminated": [{"poly": j, "axis": k} for j, k, _, _ in pre.steps],
                   "free": pre.free}
        if members:
            # each as its x_1, ..., x_d coefficients, then its constant term
            exps = [tuple(int(i == k) for i in range(sys.dimension))
                    for k in range(sys.dimension)] + [(0,) * sys.dimension]
            wrapped["ideal_members"] = [[str(m.get(e, 0)) for e in exps] for m in members]
        wrapped["reduced"] = certificate
        certificate = wrapped
    return EmptinessVerdict(status, witness, certificate, diagnostics)
