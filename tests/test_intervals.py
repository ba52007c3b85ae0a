import random
from fractions import Fraction

from nullsol.intervals import cube, enclose, midpoint, split

from helpers import random_multipoly

ONE = Fraction(1)


def test_interval_basics():
    h = Fraction(3, 2)
    assert cube(2, h) == ((-h, h), (-h, h))
    assert cube(0, 1) == ()
    assert midpoint(((Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1, 3)))) == (
        Fraction(1, 2), Fraction(1, 6))


def test_interval_mul_signs():
    # x*y over [-2,3] x [-1,4]: the extremes come from mixed-sign corners
    box = ((Fraction(-2), Fraction(3)), (Fraction(-1), Fraction(4)))
    assert enclose({(1, 1): ONE}, box) == (-8, 12)


def test_power_even_straddle():
    straddle = ((Fraction(-2), Fraction(3)),)
    assert enclose({(2,): ONE}, straddle) == (0, 9)
    assert enclose({(3,): ONE}, straddle) == (-8, 27)
    assert enclose({(2,): ONE}, ((Fraction(-3), Fraction(-1)),)) == (1, 9)
    # a zero exponent leaves the factor out: the term is its coefficient
    assert enclose({(0,): ONE}, straddle) == (1, 1)
    assert enclose({(0, 2): ONE}, straddle + straddle) == (0, 9)


def test_scale_negative():
    assert enclose({(1,): Fraction(-3)}, ((Fraction(1), Fraction(2)),)) == (-6, -3)


def test_box_split_widest_axis_tie():
    box = ((Fraction(0), Fraction(2)), (Fraction(-1), Fraction(1)))
    left, right = split(box)  # tie broken by lowest index
    assert left == ((0, 1), box[1])
    assert right == ((1, 2), box[1])
    # the strictly widest axis is halved, the others stay
    assert split(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(4)))) == (
        ((0, 1), (0, 2)), ((0, 1), (2, 4)))


def test_enclose_example():
    # q = x^2 + y over [-1,1] x [0,2] -> [0,1] + [0,2] = [0,3]
    terms = {(2, 0): Fraction(1), (0, 1): Fraction(1)}
    box = ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(2)))
    assert enclose(terms, box) == (0, 3)


def test_enclosure_property_random():
    rng = random.Random(53)
    for _ in range(300):
        p = random_multipoly(rng, 2, max_deg=4, complex_coeffs=False)
        terms = p.real_terms()
        lo1, hi1 = sorted([Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                           for _ in range(2)])
        lo2, hi2 = sorted([Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                           for _ in range(2)])
        box = ((lo1, hi1), (lo2, hi2))
        # random rational point inside the box
        t1 = Fraction(rng.randint(0, 16), 16)
        t2 = Fraction(rng.randint(0, 16), 16)
        pt = (lo1 + (hi1 - lo1) * t1, lo2 + (hi2 - lo2) * t2)
        val = p.evaluate([pt[0], pt[1]]).re
        lo, hi = enclose(terms, box)
        assert lo <= val <= hi
