import random
from fractions import Fraction

import pytest

from nullsol.multipoly import NEG_INF, MultiPoly, grlex_key

from helpers import GaussianRational, evaluate, random_multipoly, random_point


def P(nvars, terms):
    return MultiPoly(nvars, terms)


def test_canonical_no_zero_terms():
    p = P(2, {(1, 0): 1, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]
    q = P(2, {(1, 0): 1}) - P(2, {(1, 0): 1})
    assert q.is_zero()
    assert q == MultiPoly.zero(2)


def test_add_sub_examples():
    x = MultiPoly.variable(2, 0)
    t = MultiPoly.variable(2, 1)
    assert (x + t) + (x - t) == x * MultiPoly.constant(2, 2)
    assert x + MultiPoly.zero(2) == x


def test_mul_examples():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    assert (x + one) * (x - one) == x * x - one
    i = MultiPoly.constant(1, GaussianRational(0, 1))
    assert i * i == MultiPoly.constant(1, -1)


def test_pow():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    three = MultiPoly.constant(1, 3)
    assert (x + one) ** 3 == x ** 3 + x * x * three + x * three + one
    assert x ** 0 == one
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


def test_degrees():
    assert MultiPoly.zero(3).total_degree() == NEG_INF
    p = P(3, {(3, 0, 2): 1, (0, 0, 1): 5})
    assert p.total_degree() == 5


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError, match="variable-count mismatch: 2 != 3"):
        MultiPoly.variable(2, 0) * MultiPoly.variable(3, 0)
    with pytest.raises(ValueError, match="nvars must be nonnegative"):
        MultiPoly(-1)
    for index in (2, -1):
        with pytest.raises(ValueError, match=f"variable index {index} out of range for nvars=2"):
            MultiPoly.variable(2, index)
    with pytest.raises(ValueError):
        P(2, {(1,): 1})
    with pytest.raises(ValueError):
        P(1, {(-1,): 1})


def test_pair_coefficients():
    # an (re, im) pair is stored with its parts as given; a number as Fractions
    p = MultiPoly(1, {(0,): (1, 2), (1,): 3})
    assert p.terms == {(0,): (1, 2), (1,): (3, 0)}
    assert [type(x) for x in p.terms[(0,)]] == [int, int]
    assert [type(x) for x in p.terms[(1,)]] == [Fraction, Fraction]
    assert MultiPoly(1, {(0,): (0, 0)}).is_zero()
    with pytest.raises(ValueError):
        MultiPoly(1, {(0,): (1, 2, 3)})


def test_evaluate_examples():
    p = P(2, {(2, 0): 1, (0, 1): -1})  # X1^2 - T
    assert evaluate(p, [Fraction(3), Fraction(9)]).is_zero()
    v = evaluate(p, [GaussianRational(0, 1), GaussianRational(0)])
    assert v == GaussianRational(-1)
    with pytest.raises(ValueError):
        evaluate(p, [Fraction(1)])
    for point in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match=f"point has length {len(point)}, expected 2"):
            p.evaluate_real(point)
        with pytest.raises(ValueError, match=f"point has length {len(point)}, expected 2"):
            p.evaluate_complex(point)


def test_grlex_key_order():
    exps = [(0, 2), (1, 0), (2, 0), (0, 0), (1, 1)]
    assert sorted(exps, key=grlex_key) == [(0, 0), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_immutability_and_hash():
    p = P(2, {(1, 0): 1})
    with pytest.raises(AttributeError):
        p.nvars = 3
    q = P(2, {(1, 0): Fraction(2, 2)})
    assert hash(p) == hash(q) and p == q


def test_repr_lists_terms_in_grlex_order():
    p = P(2, {(0, 0): Fraction(-1, 2), (1, 0): 1, (0, 1): (0, 3)})
    assert repr(p) == "MultiPoly(2, {(1, 0): 1, (0, 1): 3*i, (0, 0): -1/2})"
    assert repr(MultiPoly.zero(1)) == "MultiPoly(1, {})"


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(200):
        a = random_multipoly(rng, 2)
        b = random_multipoly(rng, 2)
        c = random_multipoly(rng, 2)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MultiPoly.zero(2)


def test_eval_homomorphism_random():
    rng = random.Random(13)
    for _ in range(200):
        a = random_multipoly(rng, 2)
        b = random_multipoly(rng, 2)
        pt = random_point(rng, 2, height=4)
        assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)
        assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)


def test_evaluate_real_matches_evaluate_random():
    rng = random.Random(19)
    for _ in range(200):
        a = random_multipoly(rng, 2, max_deg=5)
        pt = [x.re for x in random_point(rng, 2, height=4, complex_coeffs=False)]
        assert GaussianRational(*a.evaluate_real(pt)) == evaluate(a, pt)


def test_degree_multiplicative_random():
    rng = random.Random(17)
    for _ in range(100):
        a = random_multipoly(rng, 2)
        b = random_multipoly(rng, 2)
        if a.is_zero() or b.is_zero():
            assert (a * b).total_degree() == NEG_INF
        else:
            assert (a * b).total_degree() == a.total_degree() + b.total_degree()
