"""Map (PDE symbol, solution space) to a triviality verdict.

Each solution space has its own criterion on the symbol p: nonzero symbol
for the compactly-supported and spatial-profile spaces, degree
preservation under X -> 0 for smooth functions and general distributions,
emptiness of the imaginary-axis slice of the T-coefficient variety for
spatially tempered distributions, and a lattice resonance test for
spatially periodic distributions (from the rational roots of one gcd in
d = 1; otherwise a search over k1..k_{d-1} whose fibres are solved for
k_d the same way).  The zero symbol is nontrivial in every space.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .groebner import unit_ideal_test
from .intervals import clear, enclose
from .multipoly import MultiPoly
from .parser import MAX_DIM
from .symbols import imaginary_slice, pi_graded_slice, restrict_to_time, x_content
from .variety import (
    BOX_BUDGET,
    EMPTY,
    NONEMPTY,
    boundedness_radius,
    decide_emptiness,
    gcd_real_roots,
)
from .witness import Witness, build_periodic_witness, build_witness

TRIVIAL = "TRIVIAL"
NONTRIVIAL = "NONTRIVIAL"
UNKNOWN = "UNKNOWN"


class SolutionSpace(Enum):
    SMOOTH = "smooth"
    DISTRIBUTIONS = "distributions"
    TEST_FUNCTIONS = "test"
    COMPACT_DISTRIBUTIONS = "compact"
    SPATIALLY_TEMPERED = "tempered"
    BESOV = "besov"
    SOBOLEV = "sobolev"
    SCHWARTZ_SPATIAL = "schwartz"
    COMPACT_SPATIAL = "compact-spatial"
    PERIODIC = "periodic"


# Spaces where triviality is exactly "p is not the zero polynomial".
_NONZERO_RULE_SPACES = {
    SolutionSpace.TEST_FUNCTIONS: "compact-support-nonzero-symbol",
    SolutionSpace.COMPACT_DISTRIBUTIONS: "compact-support-nonzero-symbol",
    SolutionSpace.BESOV: "spatial-profile-nonzero-symbol",
    SolutionSpace.SOBOLEV: "spatial-profile-nonzero-symbol",
    SolutionSpace.SCHWARTZ_SPATIAL: "spatial-profile-nonzero-symbol",
    SolutionSpace.COMPACT_SPATIAL: "spatial-profile-nonzero-symbol",
}


@dataclass(frozen=True)
class LatticeSpec:
    """Invertible d x d rational matrix; rows are the transposed periods."""

    rows: tuple[tuple[Fraction, ...], ...]
    _inverse: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.rows)
        if d == 0 or any(len(row) != d for row in self.rows):
            raise ValueError("lattice matrix must be square and nonempty")
        if d > MAX_DIM:
            raise ValueError(f"lattice dimension must be at most {MAX_DIM}, got {d}")
        object.__setattr__(self, "_inverse", _gauss_jordan_inverse(self.rows))

    @classmethod
    def from_rows(cls, rows) -> "LatticeSpec":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact inverse, computed once when the lattice is built."""
        return self._inverse

    def max_row_abs_sum(self) -> Fraction:
        return max(sum(abs(x) for x in row) for row in self.rows)

    def frequency_vector(self, k: tuple[int, ...]) -> tuple[Fraction, ...]:
        """A^-1 * k (the actual lattice frequency is 2*pi times this)."""
        return tuple(sum(a * b for a, b in zip(row, k)) for row in self._inverse)


def _gauss_jordan_inverse(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square rational matrix; raises if singular."""
    d = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("lattice matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    witness: Witness | None = None
    evidence: dict = field(default_factory=dict)


def _zero_verdict() -> Verdict:
    return Verdict(NONTRIVIAL, rule="zero-symbol",
                   evidence={"note": "the zero symbol annihilates everything"})


def classify(p: MultiPoly, space: SolutionSpace,
             config: SolverConfig = DEFAULT_CONFIG) -> Verdict:
    """Triviality verdict for p in the given solution space.

    ``p`` uses the standard slot layout X1..Xd, T.  PERIODIC is not handled
    here: its symbol carries a PI slot and its verdict needs a lattice, so
    it has its own entry point, :func:`periodic_test`.
    """
    if space is SolutionSpace.PERIODIC:
        raise ValueError("PERIODIC has its own entry point: call periodic_test(p, lattice)")

    if p.is_zero():
        return _zero_verdict()

    if space in _NONZERO_RULE_SPACES:
        return Verdict(TRIVIAL, rule=_NONZERO_RULE_SPACES[space])

    if space in (SolutionSpace.SMOOTH, SolutionSpace.DISTRIBUTIONS):
        deg = p.total_degree()
        tdeg = restrict_to_time(p).total_degree()
        evidence = {"total_degree": int(deg),
                    "time_restricted_degree": None if tdeg == float("-inf") else int(tdeg)}
        if deg == tdeg:
            return Verdict(TRIVIAL, rule="degree-preservation", evidence=evidence)
        return Verdict(NONTRIVIAL, rule="characteristic-time-normal", evidence=evidence)

    # SPATIALLY_TEMPERED, the one space left.
    system = imaginary_slice(x_content(p))
    emptiness = decide_emptiness(system, config)
    evidence = {"emptiness": emptiness}
    if emptiness.status == EMPTY:
        return Verdict(TRIVIAL, rule="content-variety-empty", evidence=evidence)
    if emptiness.status == NONEMPTY:
        w = build_witness(p, emptiness.witness)
        return Verdict(NONTRIVIAL, rule="content-variety-nonempty",
                       witness=w, evidence=evidence)
    return Verdict(UNKNOWN, rule="content-variety-undecided", evidence=evidence)


# -- periodic lattice test -------------------------------------------------

def _shell_key(box) -> tuple[int, tuple[int, ...]]:
    """The least (max-norm, descending lexicographic) key of a point of ``box``."""
    return max(max(a, -b, 0) for a, b in box), tuple(-b for _, b in box)


def _fibre(terms: dict, den: int, inv: list[list[int]], prefix: list[int]) -> dict:
    """``den^D * q(inv*k/den)`` for a grade ``q`` of degree D on the fibre
    ``k = (*prefix, t)``, as a univariate term dict in t."""
    degree = max(map(sum, terms))
    out = [0] * (degree + 1)  # coefficients of t^0, t^1, ...
    for e, c in terms.items():
        f = [c * den ** (degree - sum(e))]
        for row, n in zip(inv, e):
            x = sum(m * k for m, k in zip(row, prefix))
            for _ in range(n):  # times (x + row[-1]*t)
                f = [u * x + w * row[-1] for u, w in zip(f + [0], [0] + f)]
        for j, u in enumerate(f):
            out[j] += u
    return {(j,): v for j, v in enumerate(out) if v}


def periodic_test(p: MultiPoly, lattice: LatticeSpec,
                  config: SolverConfig = DEFAULT_CONFIG) -> Verdict:
    """Resonance test over the frequency lattice 2*pi * A^-1 * Z^d.

    The space is nontrivial exactly when some lattice frequency annihilates
    every T-coefficient of p, i.e. when some v = A^-1 k zeroes every
    pi-grade (see :func:`pi_graded_slice`).

    In d = 1 the graded zeros are the real roots of one gcd ``g``, and the
    test is exact (:func:`gcd_real_roots`): a constant ``g`` is the unit
    ideal; a rational root r with k = a*r an integer, for A = [[a]], is a
    resonance, and the least |k|, positive first, is reported; with none the
    verdict is TRIVIAL, since an irrational root is no k/a.  The evidence
    holds ``gcd`` (its integer coefficients, highest degree first, as
    strings), the ``rational_roots`` and, when NONTRIVIAL, the
    ``lattice_point``.  Where the gcd or its roots give up on their work
    bounds (see :func:`nullsol.variety._real_roots`), the search below runs,
    as in d >= 2.

    When the real zeros of the graded system are certified bounded, the
    search covers every k that can resonate and the verdict is decisive;
    otherwise it stops at ``config.lattice_radius`` and may return UNKNOWN.
    Either way it gives up with UNKNOWN after ``BOX_BUDGET`` boxes, a fibre
    solve counted as one.  It is a best-first branch-and-bound over integer
    boxes of k that drops a box when a grade's exact enclosure over its
    image excludes 0, and splits the widest of k1..k_{d-1} with the value
    nearest 0 as a child of its own; k_d stays whole.  Once k1..k_{d-1} are
    a point, the fibre is solved: the integer roots in range of the gcd of
    the grades in k_d (:func:`_fibre`, :func:`gcd_real_roots`) are queued
    as points, each checked exactly when popped.  A fibre on which every
    grade vanishes, or whose gcd gives up, is split along k_d instead.  It
    reports the first resonance in shell order: least max-norm, then k = 1
    before k = -1.
    """
    dim = lattice.dimension
    if p.nvars != dim + 2:
        raise ValueError(f"symbol has {p.nvars} slots, expected {dim + 2} "
                         "(X1..Xd, PI, T) for the periodic test")
    if p.is_zero():
        return _zero_verdict()

    system = pi_graded_slice(x_content(p))
    if any(all(not any(e) for e in terms) for terms in system.terms):  # a constant grade
        return Verdict(TRIVIAL, rule="nonvanishing-generator",
                       evidence={"constant_pi_grade": True})
    if dim == 1 and (found := gcd_real_roots(system.terms)) is not None:
        g, roots = found
        [[a]] = lattice.rows
        rational = [Fraction(*r) for r in roots if r is not None]
        evidence = {"gcd": [str(c) for c in g], "rational_roots": [str(r) for r in rational]}
        if len(g) == 1:
            return Verdict(TRIVIAL, rule="content-variety-empty", evidence=evidence)
        hits = [k.numerator for k in (a * r for r in rational) if k.denominator == 1]
        if not hits:
            return Verdict(TRIVIAL, rule="lattice-resonance-free", evidence=evidence)
        k = min(hits, key=lambda k: (abs(k), -k))
        evidence["lattice_point"] = [k]
        return Verdict(NONTRIVIAL, rule="lattice-resonance", evidence=evidence,
                       witness=build_periodic_witness(p, lattice.frequency_vector((k,))))
    if unit_ideal_test(list(system.terms), config.groebner_cap):
        return Verdict(TRIVIAL, rule="content-variety-empty", evidence={"groebner_unit": True})

    evidence: dict = {}
    search_radius = config.lattice_radius
    r0 = boundedness_radius(system)
    if r0 is not None:
        # Every real zero v = A^-1 k has ||v||_max <= R0, and k = A v.
        search_radius = int(lattice.max_row_abs_sum() * r0)
        evidence["complete_radius"] = search_radius

    # With A^-1 = inv/den, a box of k maps into the integer box inv*k over den.
    den = math.lcm(*(x.denominator for row in lattice.inverse() for x in row))
    inv = [[int(x * den) for x in row] for row in lattice.inverse()]
    polys = [clear(terms, den) for terms in system.terms]
    heap, budget = [], BOX_BUDGET
    gave_up = {()} if dim == 1 else set()  # fibres split along k_d, not solved

    def push(box):
        """Queue a box; a fibre (k1..k_{d-1} a point) is solved exactly instead,
        and its integer zeros in range are queued as points."""
        nonlocal budget
        prefix, (a, b) = box[:-1], box[-1]
        if all(lo == hi for lo, hi in prefix) and prefix not in gave_up:
            budget -= 1
            fixed = [x for x, _ in prefix]
            found = gcd_real_roots([_fibre(terms, den, inv, fixed) for terms in system.terms])
            if found is not None:
                for num, q in filter(None, found[1]):
                    if q == 1 and a <= num <= b:
                        point = prefix + ((num, num),)
                        heapq.heappush(heap, (_shell_key(point), point))
                return
            gave_up.add(prefix)  # every grade vanishes, or the gcd gave up
        heapq.heappush(heap, (_shell_key(box), box))

    push(((-search_radius, search_radius),) * dim)
    while heap:
        if budget <= 0:
            evidence["reason"] = "box-budget"
            return Verdict(UNKNOWN, rule="lattice-search-exhausted", evidence=evidence)
        budget -= 1
        _, box = heapq.heappop(heap)
        image = (0, tuple((sum(min(m * a, m * b) for m, (a, b) in zip(row, box)),
                           sum(max(m * a, m * b) for m, (a, b) in zip(row, box)))
                          for row in inv))
        if any(lo > 0 or hi < 0 for lo, hi in (enclose(q, image) for q in polys)):
            continue
        if all(a == b for a, b in box):
            # A point's image is degenerate, so each enclosure was its exact value.
            k = tuple(a for a, _ in box)
            evidence["lattice_point"] = list(k)
            return Verdict(NONTRIVIAL, rule="lattice-resonance", evidence=evidence,
                           witness=build_periodic_witness(p, lattice.frequency_vector(k)))
        widths = [b - a for a, b in box[:-1]]
        i = widths.index(max(widths)) if any(widths) else dim - 1  # k_d: a fibre that gave up
        a, b = box[i]
        m = min(max(a, 0), b)  # the value nearest 0 is a child of its own
        for part in ((a, m - 1), (m, m), (m + 1, b)):
            if part[0] <= part[1]:
                push(box[:i] + (part,) + box[i + 1:])

    evidence["searched_radius"] = search_radius
    if r0 is not None:
        return Verdict(TRIVIAL, rule="lattice-resonance-free", evidence=evidence)
    evidence["reason"] = "lattice-truncated"
    return Verdict(UNKNOWN, rule="lattice-search-exhausted", evidence=evidence)
