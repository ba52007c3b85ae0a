import heapq
import itertools
import random
from fractions import Fraction

import pytest

import nullsol.groebner
from nullsol.groebner import _basis, _entry, _normal_form, _Packing, _s_poly, unit_ideal_test
from nullsol.multipoly import MultiPoly
from nullsol.parser import MAX_DIM, parse
from nullsol.symbols import RealPolySystem, x_content
from nullsol.variety import decide_emptiness

from helpers import integer_terms, random_multipoly


def _spatial(expr: str, dim: int) -> MultiPoly:
    """A T-free expression in X1..Xdim as a polynomial in those variables."""
    return x_content(parse(expr, dim=dim)[0]).generators[0]


def _terms(expr: str, dim: int) -> dict:
    """Integer term dict of a T-free real expression in X1..Xdim."""
    return integer_terms(_spatial(expr, dim).real_terms())


def _packed(polys: list) -> tuple:
    """The packing of integer term dicts, and the dicts packed."""
    pk = _Packing(len(next(iter(polys[0]))), max(sum(e) for p in polys for e in p))
    return pk, [{pk.encode(e): c for e, c in p.items()} for p in polys]


def _reduce(f, basis, pk) -> dict:
    """Top-reduced form of a packed polynomial modulo basis entries,
    uncapped; it is {} exactly when the full normal form is."""
    return _normal_form(f, basis, pk.guard, itertools.count(1), float("inf"))


def test_grevlex_order():
    # grevlex: grade first, then reverse-lex on reversed negated exponents;
    # the packed keys decrease along the term order
    for order in [[(2, 0), (1, 1), (0, 2)], [(1, 1, 0), (1, 0, 1), (0, 1, 1)]]:
        keys = list(_packed([{e: 1 for e in order}])[1][0])
        assert len(keys) == 3 and keys == sorted(keys, reverse=True)


def _monomial(rng, n: int, total: int) -> tuple:
    """A random exponent vector in ``n`` variables of degree ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@pytest.mark.parametrize("n", [1, 2, 3, MAX_DIM])
def test_packing_laws(n):
    rng = random.Random(n)
    for top in (1, 5, 1000):
        pk = _Packing(n, top)
        # every degree below B/2 packs; basis leads reach degree `top` at least,
        # and the lcm of two of them packs
        limit, most = (1 << pk.w - 1) - 1, pk.max_lead >> pk.shift
        assert top <= most and 2 * most <= limit
        pairs = []
        for _ in range(300):
            a = _monomial(rng, n, rng.choice([limit, rng.randint(0, limit)]))
            b = _monomial(rng, n, rng.randint(0, limit - sum(a)))
            pairs.append((a, b))
            g = tuple(max(0, x + rng.choice([-1, 0, 1])) for x in a)
            if sum(g) <= limit:
                pairs.append((g, a))
        # neighbours across the top bit of each field, in both roles
        half = 1 << pk.w - 2
        for i in range(n):
            lo, hi = (tuple(x if k == i else 0 for k in range(n)) for x in (half - 1, half))
            pairs += [(lo, hi), (hi, lo)]
        grevlex = sorted({e for pair in pairs for e in pair},
                         key=lambda e: (sum(e), [-x for x in reversed(e)]))
        assert sorted(grevlex, key=pk.encode) == grevlex
        for a, b in pairs:
            ea, eb = pk.encode(a), pk.encode(b)
            assert pk.decode(ea) == a and -(-ea >> pk.shift) == sum(a)
            assert ea <= sum(a) << pk.shift and (not a or ea > sum(a) - 1 << pk.shift)
            divides = all(x <= y for x, y in zip(a, b))
            assert (not ea - eb & pk.guard) is divides, (a, b)
            lcm = tuple(map(max, a, b))
            if sum(lcm) <= limit:
                assert pk.lcm(ea, eb) == pk.encode(lcm)
            if sum(a) + sum(b) <= limit:
                assert ea + eb == pk.encode(tuple(x + y for x, y in zip(a, b)))


def test_field_overflow_is_the_cap(monkeypatch):
    # Degree-3 generators whose basis reaches degree 4: with no headroom the
    # fields allow basis leads of degree 3 at most, so the run stops undecided.
    exprs = ["4*X2^2*X3 + 7*X1*X3^2", "15*X1^2*X3 - 4*X3", "X2*X3^2"]
    polys = [_terms(e, 3) for e in exprs]
    system = RealPolySystem(3, tuple(_spatial(e, 3) for e in exprs))
    assert unit_ideal_test(polys) is False
    decided = decide_emptiness(system)
    assert decided.diagnostics["groebner_unit"] is False
    monkeypatch.setattr(nullsol.groebner, "_HEADROOM", 0)
    pk = _Packing(3, 3)
    assert pk.max_lead >> pk.shift == 3
    assert unit_ideal_test(polys) is None
    verdict = decide_emptiness(system)
    assert verdict.diagnostics["groebner_unit"] is None
    assert verdict.diagnostics["pipeline"] == ["groebner", "boundedness", "subdivision"]
    assert verdict.status == decided.status


def test_leading_term():
    pk, (p,) = _packed([_terms("X1^2 + 3*X1*X2 - 1", 2)])
    lead, c, _ = _entry(p)
    assert pk.decode(lead) == (2, 0)   # X1^2 leads X1*X2: the smaller e2
    assert c == 1


def test_cleared_is_primitive_integer_multiple():
    pk, (p,) = _packed([integer_terms({(1, 0): Fraction(2, 3), (0, 1): Fraction(-4, 9),
                                       (0, 0): 2})])
    # the basis element keeps the primitive part, 9/2 times p
    assert _entry(p)[2] == {pk.encode((1, 0)): 3, pk.encode((0, 1)): -2, 0: 9}


def test_reduce_to_zero_in_ideal():
    pk, (*gens, f) = _packed([_terms(e, 2) for e in ("X1", "X2", "X1*X2 + 3*X1 - X2")])
    assert _reduce(f, [_entry(g) for g in gens], pk) == {}


def test_unit_ideal_examples():
    x, one = _terms("X1", 1), _terms("1", 1)
    assert unit_ideal_test([x, _terms("X1 + 1", 1)]) is True
    assert unit_ideal_test([one]) is True
    assert unit_ideal_test([]) is False
    assert unit_ideal_test([{}]) is False
    # the circle has complex (indeed real) zeros
    assert unit_ideal_test([_terms("1 - X1^2 - X2^2", 2)]) is False


def test_affine_members():
    # two circles: the S-polynomial is their difference, an affine member
    members = []
    circles = [_terms("X1^2 + X2^2 - 1", 2), _terms("X1^2 - 4*X1 + X2^2 + 2*X2 + 4", 2)]
    assert unit_ideal_test(circles, members=members) is False
    assert members == [{(1, 0): 4, (0, 1): -2, (0, 0): -5}]
    # all generators affine: the member X2 - 1 of the basis is not passed on
    lines = [_terms("X1 - X2", 2), _terms("X1 + X2 - 2", 2)]
    pk, packed = _packed(lines)
    assert len(_basis(packed, pk, 10)) == 3
    assert unit_ideal_test(lines, members=members) is False
    # a unit ideal, or the cap hit, leaves the list as it is
    assert unit_ideal_test([*circles, _terms("X1^2 + X2^2 - 2", 2)], members=members) is True
    assert unit_ideal_test(circles, cap=0, members=members) is None
    assert members == [{(1, 0): 4, (0, 1): -2, (0, 0): -5}]


def test_unit_ideal_inconsistent_pair_random():
    rng = random.Random(43)
    for _ in range(30):
        q = random_multipoly(rng, 2, max_deg=3, complex_coeffs=False)
        if q.is_constant():
            continue
        c = MultiPoly.constant(2, rng.randint(1, 5))
        assert unit_ideal_test([integer_terms(q.real_terms()),
                                integer_terms((q + c).real_terms())]) is True


def test_cap_returns_none():
    f = _terms("X1^3*X2 + X1", 2)
    g = _terms("X2^3*X1 + X2", 2)
    assert unit_ideal_test([f, g], cap=1) is None


@pytest.mark.parametrize("exprs, dim, steps, unit", [
    (["X1^3*X2 + X1", "X2^3*X1 + X2"], 2, 14, False),
    (["X1^2 - X2*X3", "X2^2 - X1*X3", "X3^2 - X1*X2 - 1"], 3, 7, False),
    (["X1^2 + X2^2 + X3^2 - 1", "X1*X2 - X3", "X1 + X2 + X3 - 2", "X3^2 - 1/2"], 3, 6, True),
    (["X1^2 + X2^2 - 1", "X1^3 - X2", "X1*X2^2 + 2"], 2, 6, True),
    (["7/3*X1^4 + 3/7*X1^3 + 3", "4*X1^4 - X1^2 + 3/7*X1"], 1, 3, True),
])
def test_unit_ideal_reduction_counts(exprs, dim, steps, unit):
    # ``steps`` reduction steps are needed: one fewer hits the cap
    polys = [_terms(e, dim) for e in exprs]
    assert unit_ideal_test(polys, cap=steps - 1) is None
    assert unit_ideal_test(polys, cap=steps) is unit


def test_buchberger_criterion_random():
    # every S-polynomial of basis pairs reduces to zero modulo the basis
    rng = random.Random(47)
    checked = 0
    for _ in range(20):
        polys = [integer_terms(random_multipoly(rng, 2, max_deg=2, max_terms=3,
                                                complex_coeffs=False).real_terms())
                 for _ in range(2)]
        polys = [p for p in polys if p]
        if not polys:
            continue
        pk, packed = _packed(polys)
        basis = _basis(packed, pk, cap=20000)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                lcm = pk.lcm(basis[i][0], basis[j][0])
                assert _reduce(_s_poly(basis[i], basis[j], lcm), basis, pk) == {}
                checked += 1
    assert checked > 0


# -- the Buchberger algorithm over Q, as a reference ------------------------
# The Fraction form the integer core replaced, kept to pin it: the same pair
# order, coprime criterion and first-divisor rule, one step per reduction.
# With ``top=True`` it stops reducing at an irreducible leading term, as the
# integer core does; with ``top=False`` it computes the full normal form.

def _q_grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _q_leading_term(p):
    exps = max(p, key=_q_grevlex_key)
    return exps, p[exps]


def _q_add_multiple(acc, p, exps, coeff):
    for e, c in p.items():
        m = tuple(a + b for a, b in zip(e, exps))
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            del acc[m]


class _QCapExceeded(Exception):
    pass


def _q_normal_form(f, basis, budget, top):
    remainder, work = {}, dict(f)
    while work:
        lt_e, lt_c = _q_leading_term(work)
        for g_e, g_c, g in basis:
            if all(x <= y for x, y in zip(g_e, lt_e)):
                budget[0] += 1
                if budget[0] > budget[1]:
                    raise _QCapExceeded()
                _q_add_multiple(work, g, tuple(a - b for a, b in zip(lt_e, g_e)), -lt_c / g_c)
                break
        else:
            if top:
                return work
            remainder[lt_e] = lt_c
            del work[lt_e]
    return remainder


def _q_s_poly(f, g):
    (f_e, f_c, f_terms), (g_e, g_c, g_terms) = f, g
    lcm = tuple(map(max, f_e, g_e))
    s = {}
    _q_add_multiple(s, f_terms, tuple(a - b for a, b in zip(lcm, f_e)), 1 / f_c)
    _q_add_multiple(s, g_terms, tuple(a - b for a, b in zip(lcm, g_e)), -1 / g_c)
    return s


def _q_unit_ideal_test(polys, cap, top):
    """``(unit_ideal_test over Q, reduction steps it took)``; the answer is
    None once the steps pass ``cap``."""
    polys = [{e: Fraction(c) for e, c in p.items()} for p in polys if p]
    if not polys:
        return False, 0
    if any(all(sum(e) == 0 for e in p) for p in polys):
        return True, 0
    basis = [(*_q_leading_term(p), p) for p in polys]
    budget = [0, cap]
    pairs, formed = [], itertools.count()

    def add_pair(i, j):
        lcm = tuple(map(max, basis[i][0], basis[j][0]))
        heapq.heappush(pairs, (_q_grevlex_key(lcm), next(formed), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            add_pair(i, j)
    try:
        while pairs:
            _, _, i, j = heapq.heappop(pairs)
            if all(min(a, b) == 0 for a, b in zip(basis[i][0], basis[j][0])):
                continue
            r = _q_normal_form(_q_s_poly(basis[i], basis[j]), basis, budget, top)
            if r:
                entry = (*_q_leading_term(r), r)
                if not any(entry[0]):
                    return True, budget[0]
                basis.append(entry)
                for m in range(len(basis) - 1):
                    add_pair(m, len(basis) - 1)
    except _QCapExceeded:
        return None, budget[0]
    return False, budget[0]


def _random_system(rng, dim, count):
    """``count`` nonconstant random polynomials in ``dim`` variables."""
    polys = []
    while len(polys) < count:
        q = random_multipoly(rng, dim, max_deg=3, max_terms=4, complex_coeffs=False)
        if not q.is_constant():
            polys.append(integer_terms(q.real_terms()))
    return polys


def test_integer_core_matches_rational_reference():
    # Same verdict, and the same least cap that gives one: the reduction
    # sequence over Z is the top-reducing one over Q, step for step.  The
    # full normal form over Q gives the verdict an uncapped run must give.
    rng = random.Random(2027)
    cap = 100
    verdicts = {True: 0, False: 0, None: 0}
    for _ in range(240):
        polys = _random_system(rng, rng.randint(1, 3), rng.randint(2, 4))
        unit, steps = _q_unit_ideal_test(polys, cap, top=True)
        full, _ = _q_unit_ideal_test(polys, cap, top=False)
        verdicts[unit] += 1
        if full is not None:
            assert unit_ideal_test(polys) is full
        if unit is None:
            assert unit_ideal_test(polys, cap=cap) is None
            continue
        assert unit_ideal_test(polys, cap=steps) is unit
        if steps:
            assert unit_ideal_test(polys, cap=steps - 1) is None
    assert min(verdicts.values()) > 0 and verdicts[True] + verdicts[False] >= 200
