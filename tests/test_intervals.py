import random
from fractions import Fraction

from nullsol.intervals import clear, cube, dyadic, enclose, midpoint, scale, split

from helpers import evaluate, fraction_enclose, integer_terms, random_multipoly, rational_enclose

ONE = Fraction(1)


def test_interval_basics():
    h = Fraction(3, 2)
    assert cube(2, h) == ((-h, h), (-h, h))
    assert cube(0, 1) == ()
    q, box = dyadic(((Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1, 3))))
    assert (q, box) == (3, (0, ((-3, 6), (0, 1))))
    # the centre (1/2, 1/6) over q * 2^(k+1) = 6
    assert midpoint(box) == ((3, 1), 2)
    assert dyadic(cube(0, 1)) == (1, (0, ()))


def test_interval_mul_signs():
    # x*y over [-2,3] x [-1,4]: the extremes come from mixed-sign corners
    box = ((Fraction(-2), Fraction(3)), (Fraction(-1), Fraction(4)))
    assert rational_enclose({(1, 1): ONE}, box) == (-8, 12)


def test_power_even_straddle():
    straddle = ((Fraction(-2), Fraction(3)),)
    assert rational_enclose({(2,): ONE}, straddle) == (0, 9)
    assert rational_enclose({(3,): ONE}, straddle) == (-8, 27)
    assert rational_enclose({(2,): ONE}, ((Fraction(-3), Fraction(-1)),)) == (1, 9)
    # a zero exponent leaves the factor out: the term is its coefficient
    assert rational_enclose({(0,): ONE}, straddle) == (1, 1)
    assert rational_enclose({(0, 2): ONE}, straddle + straddle) == (0, 9)


def test_scale_negative():
    assert rational_enclose({(1,): Fraction(-3)}, ((Fraction(1), Fraction(2)),)) == (-6, -3)


def test_box_split_widest_axis_tie():
    box = (0, ((0, 2), (-1, 1)))
    left, right = split(box)  # tie broken by lowest index
    assert left == (0, ((0, 1), (-1, 1)))
    assert right == (0, ((1, 2), (-1, 1)))
    # the strictly widest axis is halved, the others stay
    assert split((0, ((0, 1), (0, 4)))) == ((0, ((0, 1), (0, 2))), (0, ((0, 1), (2, 4))))
    # an odd numerator sum doubles every numerator and moves to the next level
    assert split((3, ((0, 1), (-1, 0)))) == ((4, ((0, 1), (-2, 0))), (4, ((1, 2), (-2, 0))))


def test_enclose_example():
    # q = x^2 + y over [-1,1] x [0,2] -> [0,1] + [0,2] = [0,3]
    terms = {(2, 0): Fraction(1), (0, 1): Fraction(1)}
    box = ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(2)))
    assert rational_enclose(terms, box) == (0, 3)
    # on integers: p = x^2 + 4y over [-1,1] x [0,2] at level 1 (x = X/2,
    # y = Y/2) has 1/S = (1*2)^2 = 4, and 4p = X^2 + 8Y is [0,4] + [0,32]
    # over [-2,2] x [0,4]
    poly = clear({(2, 0): 1, (0, 1): 4}, 1)
    assert poly.degree == 2
    assert enclose(poly, (1, ((-2, 2), (0, 4)))) == (0, 36)
    assert scale(poly, 1, 1) == 4


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
        val = evaluate(p, [pt[0], pt[1]]).re
        lo, hi = rational_enclose(terms, box)
        assert lo <= val <= hi


def test_integer_enclosure_equals_rational_reference():
    # Down a random split path, the integer enclosure times S is exactly the
    # rational kernel's enclosure of the same box.
    rng = random.Random(7)
    for _ in range(500):
        d = rng.randint(1, 3)
        terms = integer_terms(random_multipoly(rng, d, max_deg=4,
                                               complex_coeffs=False).real_terms())
        ends = [sorted(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(2))
                for _ in range(d)]
        q, box = dyadic(tuple((lo, hi) for lo, hi in ends))
        for _ in range(rng.randint(0, 12)):
            box = split(box)[rng.randint(0, 1)]
        poly = clear(terms, q)
        k, coords = box
        lo, hi = enclose(poly, box)
        s = scale(poly, q, k)
        rational_box = tuple((Fraction(a, q << k), Fraction(b, q << k)) for a, b in coords)
        assert (Fraction(lo, s), Fraction(hi, s)) == fraction_enclose(terms, rational_box)
