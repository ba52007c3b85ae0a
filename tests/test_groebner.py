import random

import pytest

from nullsol.groebner import (
    buchberger,
    grevlex_key,
    leading_term,
    reduce_poly,
    s_polynomial,
    unit_ideal_test,
)
from nullsol.multipoly import MultiPoly
from nullsol.parser import parse

from helpers import random_multipoly


def _terms(expr: str, dim: int) -> dict:
    """Term dict of a T-free real expression in X1..Xdim."""
    return parse(expr, dim=dim)[0].coefficients_in_T()[0].real_terms()


def test_grevlex_order():
    # grevlex: grade first, then reverse-lex on reversed negated exponents
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1)) > grevlex_key((0, 1, 1))


def test_leading_term():
    exps, c = leading_term(_terms("X1^2 + 3*X1*X2 - 1", 2))
    assert exps == (2, 0)
    assert c == 1


def test_reduce_to_zero_in_ideal():
    basis = [_terms("X1", 2), _terms("X2", 2)]
    assert reduce_poly(_terms("X1*X2 + 3*X1 - X2", 2), basis) == {}


def test_unit_ideal_examples():
    x, one = _terms("X1", 1), _terms("1", 1)
    assert unit_ideal_test([x, _terms("X1 + 1", 1)]) is True
    assert unit_ideal_test([one]) is True
    assert unit_ideal_test([]) is False
    assert unit_ideal_test([{}]) is False
    # the circle has complex (indeed real) zeros
    assert unit_ideal_test([_terms("1 - X1^2 - X2^2", 2)]) is False


def test_unit_ideal_inconsistent_pair_random():
    rng = random.Random(43)
    for _ in range(30):
        q = random_multipoly(rng, 2, max_deg=3, complex_coeffs=False)
        if q.is_constant():
            continue
        c = MultiPoly.constant(2, rng.randint(1, 5))
        assert unit_ideal_test([q.real_terms(), (q + c).real_terms()]) is True


def test_cap_returns_none():
    f = _terms("X1^3*X2 + X1", 2)
    g = _terms("X2^3*X1 + X2", 2)
    assert unit_ideal_test([f, g], cap=1) is None


@pytest.mark.parametrize("exprs, dim, steps, unit", [
    (["X1^3*X2 + X1", "X2^3*X1 + X2"], 2, 14, False),
    (["X1^2 - X2*X3", "X2^2 - X1*X3", "X3^2 - X1*X2 - 1"], 3, 7, False),
    (["X1^2 + X2^2 + X3^2 - 1", "X1*X2 - X3", "X1 + X2 + X3 - 2", "X3^2 - 1/2"], 3, 6, True),
    (["X1^2 + X2^2 - 1", "X1^3 - X2", "X1*X2^2 + 2"], 2, 5, True),
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
        polys = [random_multipoly(rng, 2, max_deg=2, max_terms=3,
                                  complex_coeffs=False).real_terms() for _ in range(2)]
        polys = [p for p in polys if p]
        if not polys:
            continue
        basis = buchberger(polys, cap=20000)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j])
                assert reduce_poly(s, basis) == {}
                checked += 1
    assert checked > 0
