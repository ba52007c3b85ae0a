"""Seeded, stratified input corpora for the four benchmark workloads.

Everything here is standard library only and imports nothing from
``nullsol``: the generator owns the ground truth of every input, and the
oracle (``oracle.py``) checks verdicts against it.

Polynomials are dicts ``{exponent tuple: coefficient}``.  Real systems
(``find``, ``prove``) use ``Fraction`` coefficients; PDE symbols
(``classify``, ``periodic``) use Gaussian rationals stored as
``(re, im)`` pairs of ``Fraction``.  The slot layout of a symbol is
``X1..Xd, T`` (and ``X1..Xd, PI, T`` for the periodic workload).

Each workload has fixed quotas per family and dimension; the seed picks
only the parameters inside a family, so every seed gives the same mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("find", "prove", "classify", "periodic")

# Truth labels.  Real systems: does a real common zero exist?  Symbols:
# per-space TRIVIAL/NONTRIVIAL.
NONEMPTY = "NONEMPTY"
EMPTY = "EMPTY"
TRIVIAL = "TRIVIAL"
NONTRIVIAL = "NONTRIVIAL"

SPACES = ("smooth", "distributions", "test", "compact", "tempered",
          "besov", "sobolev", "schwartz", "compact-spatial")
_NONZERO_RULE_SPACES = ("test", "compact", "besov", "sobolev", "schwartz",
                        "compact-spatial")


@dataclass(frozen=True)
class Case:
    """One benchmark input with its truth by construction.

    ``polys``: the real system (find/prove) or the T-coefficients
    ``a_0..a_n`` of the symbol (classify/periodic), in the benchmark's own
    representation.  ``expr`` and ``lattice`` are the strings the CLI gets.
    """

    workload: str
    family: str
    dim: int
    polys: tuple
    truth: object
    expr: str = ""
    lattice: str = ""
    info: dict = field(default_factory=dict, compare=False)


# -- small exact helpers ---------------------------------------------------

def _rat(rng: random.Random, height: int, dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.choice(dens))


def _nonzero_rat(rng: random.Random, height: int, dens=(1, 2, 3, 4)) -> Fraction:
    while True:
        q = _rat(rng, height, dens)
        if q:
            return q


def _unit(dim: int, k: int) -> tuple[int, ...]:
    return tuple(int(j == k) for j in range(dim))


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(ea, eb))
        out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _linear(coeffs, const, dim: int) -> dict:
    poly = {_unit(dim, k): Fraction(c) for k, c in enumerate(coeffs) if c}
    return _padd(poly, {(0,) * dim: Fraction(const)})


def _square_dist(center, dim: int) -> dict:
    """sum_k (x_k - center_k)^2."""
    out: dict = {}
    for k, a in enumerate(center):
        lin = _linear([int(j == k) for j in range(dim)], -a, dim)
        out = _padd(out, _pmul(lin, lin))
    return out


def eval_real(poly: dict, point) -> Fraction:
    acc = Fraction(0)
    for exps, c in poly.items():
        v = Fraction(c)
        for x, e in zip(point, exps):
            if e:
                v *= Fraction(x) ** e
        acc += v
    return acc


def _total_degree(poly: dict) -> int:
    return max((sum(e) for e in poly), default=-1)


# -- find: real systems with a planted rational real zero ------------------

# Circle classes (|a|, |b|, r); the seed picks signs and the axis order.
_CIRCLES = ((0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 2), (0, 1, 2), (1, 1, 2))


def _find_circle(rng, dim, i):
    a, b, r = _CIRCLES[i % len(_CIRCLES)]
    center = [x * rng.choice((-1, 1)) for x in (a, b)]
    rng.shuffle(center)
    poly = _padd(_square_dist(center, dim), {(0,) * dim: Fraction(-r * r)})
    point = tuple(Fraction(c + (r if k == 0 else 0)) for k, c in enumerate(center))
    return (poly,), point


def _planted_point(rng, dim):
    return tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(dim))


def _random_linear_form(rng, dim):
    while True:
        coeffs = [rng.randint(-1, 1) for _ in range(dim)]
        if any(coeffs):
            return coeffs


def _find_linear_factors(rng, dim, i):
    """Square system; equation j is l_j(x - p), in d = 1 times up to two
    further linear factors, so every equation vanishes at the same planted
    point p.  The forms l_j are independent, so p is an isolated zero."""
    point = _planted_point(rng, dim)
    forms = [_random_linear_form(rng, dim) for _ in range(dim)]
    while not invertible(forms):
        forms = [_random_linear_form(rng, dim) for _ in range(dim)]
    polys = []
    for lin in forms:
        const = -sum(c * x for c, x in zip(lin, point))
        poly = _linear(lin, const, dim)
        for _ in range(rng.randint(0, 2) if dim == 1 else 0):
            poly = _pmul(poly, _linear(_random_linear_form(rng, dim),
                                       rng.randint(-1, 1), dim))
        polys.append(poly)
    return tuple(polys), point


def _random_real_poly(rng, dim, max_deg, nterms, height):
    poly: dict = {}
    for _ in range(nterms):
        exps = [0] * dim
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(dim)] += 1
        poly = _padd(poly, {tuple(exps): Fraction(rng.randint(-height, height))})
    return poly


def _find_shifted(rng, dim, i):
    """Square system of random polynomials shifted to vanish at p.  The
    first one has a positive definite quadratic top part, so every real
    zero lies in a bounded set."""
    point = _planted_point(rng, dim)
    polys = []
    for j in range(dim):
        while True:
            poly = _random_real_poly(rng, dim, 4 if dim == 1 else 2, rng.randint(2, 4), 2)
            if j == 0:
                poly = {e: c for e, c in poly.items() if sum(e) < 2}
                for k in range(dim):
                    poly = _padd(poly, {tuple(2 * x for x in _unit(dim, k)):
                                        Fraction(rng.randint(1, 2))})
            if poly:
                break
        polys.append(_padd(poly, {(0,) * dim: -eval_real(poly, point)}))
    return tuple(polys), point


_FIND_QUOTAS = (
    ("circle", 2, 6, _find_circle),
    ("linear-factors", 1, 15, _find_linear_factors),
    ("linear-factors", 2, 30, _find_linear_factors),
    ("linear-factors", 3, 2, _find_linear_factors),
    ("shifted", 1, 15, _find_shifted),
    ("shifted", 2, 32, _find_shifted),
)


def _find_corpus(rng):
    cases = []
    for family, dim, count, make in _FIND_QUOTAS:
        for i in range(count):
            polys, point = make(rng, dim, i)
            cases.append(Case("find", family, dim, polys, NONEMPTY,
                              info={"planted": [str(x) for x in point]}))
    return cases


# -- prove: no real zero, nonempty complex variety -------------------------

# Integer normals with integer length, so distances stay rational.
_NORMALS = {2: ((1, 0), (0, 1), (3, 4), (4, -3), (5, 12), (-8, 15)),
            3: ((1, 0, 0), (0, 0, 1), (1, 2, 2), (2, -3, 6), (4, 4, -7))}
_GAPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def _norm(n) -> int:
    return round(sum(x * x for x in n) ** 0.5)


def _prove_sphere_plane(rng, dim, i):
    """Sphere |x - c| = r and a hyperplane at distance r + gap from c.
    Gap, radius and normal direction are stratified by index; the seed
    picks the centre and the normal's orientation."""
    center = [rng.randint(-1, 1) for _ in range(dim)]
    gap = _GAPS[i % len(_GAPS)]
    r = 1 + (i // len(_GAPS)) % 2 if dim == 2 else 1
    n = [x * rng.choice((-1, 1)) for x in _NORMALS[dim][(i // 8) % len(_NORMALS[dim])]]
    sphere = _padd(_square_dist(center, dim), {(0,) * dim: Fraction(-r * r)})
    offset = sum(a * c for a, c in zip(n, center)) + (r + gap) * _norm(n)
    return (sphere, _linear(n, -offset, dim)), {"gap": str(gap)}


def _prove_two_circles(rng, dim, i):
    """Two circles whose centres are r1 + r2 + gap apart; radii and gap
    are stratified by index."""
    c1 = [Fraction(rng.randint(-1, 1)) for _ in range(dim)]
    r1, r2 = 1 + i % 2, 1 + (i // 2) % 2
    n = [x * rng.choice((-1, 1)) for x in _NORMALS[dim][i % len(_NORMALS[dim])]]
    gap = _GAPS[(i // 4) % len(_GAPS)]
    dist = r1 + r2 + gap
    c2 = [a + dist * x / _norm(n) for a, x in zip(c1, n)]
    polys = tuple(_padd(_square_dist(c, dim), {(0,) * dim: Fraction(-r * r)})
                  for c, r in ((c1, r1), (c2, r2)))
    return polys, {"gap": str(gap)}


def _prove_posdef(rng, dim, i):
    """sum_k w_k x_k^(2 or 4) + c with w_k, c > 0."""
    poly: dict = {(0,) * dim: Fraction(rng.randint(1, 8))}
    for k in range(dim):
        power = 4 if dim < 3 and rng.random() < 0.5 else 2
        poly[tuple(power * e for e in _unit(dim, k))] = Fraction(rng.randint(1, 4))
    return (poly,), {}


def _prove_shifted_pair(rng, dim, i):
    """(q, q + c): the ideal holds the constant c, so no complex zero either."""
    q = _random_real_poly(rng, dim, 3, rng.randint(2, 4), 4)
    while not q or all(sum(e) == 0 for e in q):
        q = _random_real_poly(rng, dim, 3, rng.randint(2, 4), 4)
    return (q, _padd(q, {(0,) * dim: _nonzero_rat(rng, 4)})), {}


_PROVE_QUOTAS = (
    ("sphere-plane", 2, 40, _prove_sphere_plane),
    ("sphere-plane", 3, 3, _prove_sphere_plane),
    # The costliest 2D family; at this share it holds the p90 input.
    ("two-circles", 2, 32, _prove_two_circles),
    ("posdef", 1, 8, _prove_posdef),
    ("posdef", 2, 8, _prove_posdef),
    ("posdef", 3, 8, _prove_posdef),
    ("shifted-pair", 2, 9, _prove_shifted_pair),
)


def _prove_corpus(rng):
    cases = []
    for family, dim, count, make in _PROVE_QUOTAS:
        for i in range(count):
            polys, info = make(rng, dim, i)
            cases.append(Case("prove", family, dim, polys, EMPTY, info=info))
    return cases


# -- Gaussian-rational symbols --------------------------------------------

def gi(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def gi_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = gi_add(out.get(e, gi(0)), c)
    return {e: c for e, c in out.items() if c != (0, 0)}


def _gpmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(ea, eb))
        out[e] = gi_add(out.get(e, gi(0)), gi_mul(ca, cb))
    return {e: c for e, c in out.items() if c != (0, 0)}


def _random_gi(rng, height=4):
    return (_rat(rng, height), _rat(rng, height))


def _dense_gi_poly(rng, dim, deg):
    """Every monomial of total degree <= deg, Q(i) coefficients."""
    poly = {}
    for exps in itertools.product(range(deg + 1), repeat=dim):
        if sum(exps) <= deg:
            c = _random_gi(rng)
            if c != (0, 0):
                poly[exps] = c
    return poly


def _fmt_coeff(c) -> str:
    re, im = c
    if im == 0:
        return f"({re})"
    if re == 0:
        return f"({im}*i)"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}*i)"


def render(poly: dict, names) -> str:
    """Expression string in the nullsol grammar, every term ``(coeff)*mono``."""
    if not poly:
        return "0"
    parts = []
    for exps in sorted(poly, key=lambda e: (-sum(e), e)):
        mono = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        parts.append("*".join([_fmt_coeff(poly[exps])] + mono))
    return " + ".join(parts)


def symbol_from_coeffs(coeffs) -> dict:
    """p = sum_j a_j * T^j as one dict over slots (..., T)."""
    out = {}
    for j, a in enumerate(coeffs):
        for e, c in a.items():
            out[e + (j,)] = c
    return out


def symbol_names(dim: int, pi: bool = False) -> list[str]:
    return [f"X{k + 1}" for k in range(dim)] + (["PI"] if pi else []) + ["T"]


def degree_test(coeffs) -> bool:
    """True iff deg p == deg p(X = 0): smooth/distributions are TRIVIAL."""
    p = symbol_from_coeffs(coeffs)
    restricted = {e: c for e, c in p.items() if not any(e[:-1])}
    return _total_degree(p) == _total_degree(restricted)


def space_truth(coeffs, tempered: str) -> dict:
    """Expected status per space; ``tempered`` comes from the construction."""
    nonzero = any(coeffs)
    truth = {s: TRIVIAL if nonzero else NONTRIVIAL for s in _NONZERO_RULE_SPACES}
    deg = TRIVIAL if degree_test(coeffs) else NONTRIVIAL
    truth.update(smooth=deg, distributions=deg, tempered=tempered)
    return truth


# -- classify: hidden unit ideal plus the paper's fixtures ----------------

def _x(dim, k, power=1):
    return {tuple(power if j == k else 0 for j in range(dim)): gi(1)}


def _sum_squares(dim):
    out = {}
    for k in range(dim):
        out = _gpadd(out, _x(dim, k, 2))
    return out


def _const(dim, re, im=0):
    return {(0,) * dim: gi(re, im)}


def _neg(poly):
    return {e: (-c[0], -c[1]) for e, c in poly.items()}


def _fixtures():
    """(name, dim, T-coefficients, tempered truth)."""
    s3, s2 = _sum_squares(3), _sum_squares(2)
    return (
        ("diffusion", 3, (_neg(s3), _const(3, 1)), TRIVIAL),
        ("klein-gordon", 3, (_gpadd(_neg(s3), _const(3, 1)), {}, _const(3, 1)), TRIVIAL),
        ("mixed-x1x2t", 2, ({}, _gpmul(_x(2, 0), _x(2, 1))), NONTRIVIAL),
        ("x-squared-plus-one", 2, (_gpadd(s2, _const(2, 1)),) * 2, NONTRIVIAL),
        ("wave", 2, (_neg(s2), {}, _const(2, 1)), TRIVIAL),
        ("schroedinger", 2, (s2, _const(2, 0, 1)), TRIVIAL),
    )


def _hidden_unit(rng, dim):
    """T-coefficients f, g, u*f + v*g + c with dense Q(i) quadrics f, g."""
    f, g = _dense_gi_poly(rng, dim, 2), _dense_gi_poly(rng, dim, 2)
    u, v = _dense_gi_poly(rng, dim, 1), _dense_gi_poly(rng, dim, 1)
    c = _const(dim, *_random_gi(rng))
    while c[(0,) * dim] == (0, 0):
        c = _const(dim, *_random_gi(rng))
    h = _gpadd(_gpadd(_gpmul(u, f), _gpmul(v, g)), c)
    return (f, g, h)


_CLASSIFY_QUOTAS = (("hidden-unit", 2, 70), ("hidden-unit", 3, 24))


def _classify_corpus(rng):
    cases = []
    for family, dim, count in _CLASSIFY_QUOTAS:
        for _ in range(count):
            coeffs = _hidden_unit(rng, dim)
            cases.append(_symbol_case("classify", family, dim, coeffs, TRIVIAL))
    for name, dim, coeffs, tempered in _fixtures():
        cases.append(_symbol_case("classify", name, dim, coeffs, tempered))
    return cases


def _symbol_case(workload, family, dim, coeffs, tempered):
    expr = render(symbol_from_coeffs(coeffs), symbol_names(dim))
    return Case(workload, family, dim, tuple(coeffs), space_truth(coeffs, tempered),
                expr=expr)


# -- periodic: lattice resonance ------------------------------------------

def mat_inverse(rows):
    """Exact inverse by Gauss-Jordan elimination; None if singular."""
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def invertible(rows) -> bool:
    return mat_inverse(rows) is not None


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def resonances(rows, c: Fraction):
    """Every k in Z^d with |A^-1 k|^2 = c/4, by brute force.

    |A^-1 k|^2 = c/4 bounds every coordinate of v = A^-1 k by sqrt(c)/2,
    hence |k_j| <= rowsum_j(A) * sqrt(c)/2; the box below covers that.
    """
    inv = mat_inverse(rows)
    target = c / 4
    half = int(max(sum(abs(Fraction(x)) for x in row) for row in rows)
               * (float(target) ** 0.5)) + 2
    found = []
    for k in itertools.product(range(-half, half + 1), repeat=len(rows)):
        v = mat_vec(inv, k)
        if sum(x * x for x in v) == target:
            found.append(k)
    return found


def _random_lattice(rng, dim, diagonal=False):
    off = (0, 0) if diagonal else (-1, 1)
    while True:
        rows = [[Fraction(rng.randint(1, 3)) if i == j else Fraction(rng.randint(*off))
                 for j in range(dim)] for i in range(dim)]
        if invertible(rows):
            return rows


def _fmt_lattice(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _pi_quadric(dim, c: Fraction):
    """sum_k X_k^2 + c * PI^2 over slots (X1..Xd, PI)."""
    out = {}
    for k in range(dim):
        out[tuple(2 if j == k else 0 for j in range(dim + 1))] = gi(1)
    out[(0,) * dim + (2,)] = gi(c)
    return out


def _periodic_resonant(rng, dim, rows):
    inv = mat_inverse(rows)
    while True:
        k0 = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(k0):
            break
    c = 4 * sum(x * x for x in mat_vec(inv, k0))
    q = _pi_quadric(dim, c)
    beta = {(0,) * (dim + 1): gi(_nonzero_rat(rng, 4))}
    return (_gpmul(q, beta), q), NONTRIVIAL, {"k0": list(k0), "c": str(c)}


def _periodic_nonresonant(rng, dim, rows):
    inv = mat_inverse(rows)
    while True:
        k0 = tuple(rng.randint(-2, 2) for _ in range(dim))
        c = 4 * sum(x * x for x in mat_vec(inv, k0)) + Fraction(rng.randint(1, 7), 8)
        if not resonances(rows, c):
            break
    q = _pi_quadric(dim, c)
    beta = {(0,) * (dim + 1): gi(_nonzero_rat(rng, 4))}
    return (_gpmul(q, beta), q), TRIVIAL, {"c": str(c)}


def _periodic_pi_free(rng, dim, rows):
    """Either the monomial X1*..*Xd (k = 0 resonates) or sum X_k^2 + c with
    c != 0 rational: after X -> 2*pi*i*v the pi^0 part is c, so nothing
    resonates."""
    if rng.random() < 0.5:
        mono = {(1,) * dim + (0,): gi(1)}
        beta = {(0,) * (dim + 1): gi(_nonzero_rat(rng, 4))}
        return (_gpmul(mono, beta), mono), NONTRIVIAL, {"shape": "homogeneous"}
    q = {tuple(2 if j == k else 0 for j in range(dim + 1)): gi(1) for k in range(dim)}
    # In d = 2 a positive c puts a circle into the slice; finding a point on
    # it can take longer than a whole run, so d = 2 uses c < 0 only.
    c = _nonzero_rat(rng, 8)
    q[(0,) * (dim + 1)] = gi(-abs(c) if dim == 2 else c)
    return ({}, q), TRIVIAL, {"shape": "shifted-quadric"}


_PERIODIC_QUOTAS = (
    ("resonant", 1, 30, _periodic_resonant),
    ("resonant", 2, 25, _periodic_resonant),
    ("nonresonant", 1, 35, _periodic_nonresonant),
    ("nonresonant", 2, 2, _periodic_nonresonant),
    ("pi-free", 1, 16, _periodic_pi_free),
    ("pi-free", 2, 12, _periodic_pi_free),
)


def _periodic_corpus(rng):
    cases = []
    for family, dim, count, make in _PERIODIC_QUOTAS:
        for _ in range(count):
            # The full 2D enumeration costs most; diagonal lattices keep
            # its cost from swinging with the lattice's denominators.
            rows = _random_lattice(rng, dim, diagonal=(family, dim) == ("nonresonant", 2))
            coeffs, truth, info = make(rng, dim, rows)
            info["lattice"] = [[str(x) for x in row] for row in rows]
            expr = render(symbol_from_coeffs(coeffs), symbol_names(dim, pi=True))
            cases.append(Case("periodic", family, dim, tuple(coeffs), truth,
                              expr=expr, lattice=_fmt_lattice(rows), info=info))
    return cases


_MAKERS = {"find": _find_corpus, "prove": _prove_corpus,
           "classify": _classify_corpus, "periodic": _periodic_corpus}


def make_corpus(workload: str, seed: int) -> list[Case]:
    """The workload's inputs for this seed; same seed, same inputs."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
