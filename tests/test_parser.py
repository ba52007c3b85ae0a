import random
import re
import time
from fractions import Fraction

import pytest

from nullsol import parser
from nullsol.multipoly import MultiPoly
from nullsol.parser import (
    MAX_COEFF_BITS,
    MAX_DIM,
    MAX_NESTING,
    MAX_TERMS,
    MAX_WORK,
    ParseError,
    ParseErrorKind,
    _TOKEN,
    _tokenize,
    default_names,
    parse,
    print_canonical,
)

from helpers import GaussianRational, evaluate, random_multipoly, random_point, reference_tokenize


def test_diffusion():
    p, d = parse("T - (X1^2+X2^2+X3^2)")
    assert d == 3
    assert p == MultiPoly(4, {(0, 0, 0, 1): 1, (2, 0, 0, 0): -1,
                              (0, 2, 0, 0): -1, (0, 0, 2, 0): -1})


def test_klein_gordon():
    p, d = parse("T^2 - (X1^2+X2^2+X3^2) + 1")
    assert d == 3
    assert p.terms[(0, 0, 0, 2)] == GaussianRational(1)
    assert p.terms[(0, 0, 0, 0)] == GaussianRational(1)


def test_rational_and_imaginary_coefficients():
    p, d = parse("1/2*X1 + 3*i*T - i")
    assert d == 1
    assert p == MultiPoly(2, {(1, 0): Fraction(1, 2),
                              (0, 1): GaussianRational(0, 3),
                              (0, 0): GaussianRational(0, -1)})


def test_unary_minus_and_power_binding():
    # ^ binds tighter than unary minus: -X1^2 == -(X1^2)
    p, _ = parse("-X1^2", dim=1)
    assert p == MultiPoly(2, {(2, 0): -1})
    p2, _ = parse("(-X1)^2", dim=1)
    assert p2 == MultiPoly(2, {(2, 0): 1})


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as e:
        parse("2 X1")
    assert e.value.kind == ParseErrorKind.UNEXPECTED_TOKEN


def test_explicit_dimension():
    p, d = parse("T", dim=2)
    assert d == 2 and p.nvars == 3
    with pytest.raises(ParseError) as e:
        parse("X3*T", dim=2)
    assert e.value.kind == ParseErrorKind.DIMENSION_EXCEEDED
    assert e.value.position == 0


def test_infer_dimension():
    # without dim, the spatial dimension is the highest Xk index
    assert parse("X2*X5 + T")[1] == 5
    assert parse("T + 1")[1] == 0


def test_error_kinds_and_positions():
    with pytest.raises(ParseError) as e:
        parse("T^^2")
    assert e.value.kind == ParseErrorKind.BAD_EXPONENT
    assert e.value.position == 2

    with pytest.raises(ParseError) as e:
        parse("T^1/2")
    assert e.value.kind == ParseErrorKind.BAD_EXPONENT

    with pytest.raises(ParseError) as e:
        parse("X1 + Y")
    assert e.value.kind == ParseErrorKind.UNKNOWN_SYMBOL
    assert e.value.position == 5

    with pytest.raises(ParseError) as e:
        parse("X0")
    assert e.value.kind == ParseErrorKind.UNKNOWN_SYMBOL

    with pytest.raises(ParseError) as e:
        parse("(X1 + T")
    assert e.value.kind == ParseErrorKind.UNEXPECTED_TOKEN

    with pytest.raises(ParseError) as e:
        parse("X1 + T)")
    assert e.value.kind == ParseErrorKind.UNEXPECTED_TOKEN
    assert e.value.position == 6

    with pytest.raises(ParseError) as e:
        parse("1/0")
    assert e.value.kind == ParseErrorKind.UNEXPECTED_TOKEN


def test_pi_reserved_only_in_periodic_mode():
    with pytest.raises(ParseError) as e:
        parse("PI*T")
    assert e.value.kind == ParseErrorKind.UNKNOWN_SYMBOL

    p, d = parse("X1^2*T + 4*PI^2*T", dim=1, allow_pi=True)
    assert d == 1 and p.nvars == 3  # X1, PI, T
    assert p == MultiPoly(3, {(2, 0, 1): 1, (0, 2, 1): 4})


def test_pi_slot_present_even_if_unused():
    p, d = parse("T - X1^2", dim=1, allow_pi=True)
    assert p.nvars == 3
    assert p == MultiPoly(3, {(0, 0, 1): 1, (2, 0, 0): -1})


def test_print_canonical_forms():
    p, _ = parse("T - (X1^2+X2^2+X3^2)")
    assert print_canonical(p) == "-X1^2 - X2^2 - X3^2 + T"
    assert print_canonical(MultiPoly.zero(2)) == "0"
    q, _ = parse("1/2*X1 - 3*i*T + (1+1*i)")
    s = print_canonical(q)
    r, _ = parse(s, dim=1)
    assert r == q


def test_print_canonical_periodic_names():
    p, d = parse("X1^2*T + 4*PI^2*T", dim=1, allow_pi=True)
    names = default_names(p.nvars, pi_slot=d)
    s = print_canonical(p, names)
    r, _ = parse(s, dim=1, allow_pi=True)
    assert r == p


def test_round_trip_random():
    rng = random.Random(23)
    for _ in range(500):
        nvars = rng.randint(1, 4)
        p = random_multipoly(rng, nvars, max_deg=4)
        s = print_canonical(p)
        q, _ = parse(s, dim=nvars - 1)
        assert q == p, s


@pytest.mark.parametrize("text, position", [
    ("X1\u00b2*T", 2), ("\u00b3", 0), ("T + \u2460", 4), ("X\u00b2", 0),
    # Arabic-Indic digits: X is left without an index, a literal ends before them
    ("X\u0660*T", 0), ("X\u0661*T", 0), ("X1\u0661*T", 2), ("2\u0660*T", 1),
])
def test_non_decimal_numeral_is_an_unknown_symbol(text, position):
    # superscripts and circled digits pass str.isdigit but are no integers,
    # and only the ASCII digits make an integer or an X index
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.kind == ParseErrorKind.UNKNOWN_SYMBOL
    assert e.value.position == position


@pytest.mark.parametrize("text, tokens, error", [
    ("Xa", None, (0, "unknown symbol 'Xa'")),
    ("X1a", None, (2, "unknown symbol 'a'")),
    ("XX1", None, (0, "unknown symbol 'XX'")),
    ("X", None, (0, "X must be followed by a 1-based index")),
    ("X00", None, (0, "X indices are 1-based")),
    ("T\u00bd", None, (1, "unexpected character '\u00bd'")),
    ("X12^3", [("X", 12, 0), ("op", "^", 3), ("int", 3, 4), ("end", None, 5)], None),
    ("X\u0663", None, (0, "X must be followed by a 1-based index")),
])
def test_tokenizer_words_and_indices(monkeypatch, text, tokens, error):
    # a run of letters is one word; X takes the digits right after it
    monkeypatch.setattr(parser, "_TERM", _NEVER)
    if error is None:
        assert _tokenize(text, False) == tokens
        return
    with pytest.raises(ParseError) as e:
        _tokenize(text, False)
    assert (e.value.kind, e.value.position, e.value.message) == (
        ParseErrorKind.UNKNOWN_SYMBOL, *error)


def _tokenize_outcome(tokenize, text, allow_pi):
    try:
        return [tuple(t) for t in tokenize(text, allow_pi)]
    except ParseError as err:
        return err.kind, err.position, err.message


def test_tokenizer_matches_reference_loop(monkeypatch):
    # the fine tokens match the reference; term tokens change no error
    alphabet = [" ", "\t", "\n", "+", "-", "*", "/", "^", "(", ")", "0", "1", "7", "42",
                "X", "T", "i", "PI", "P", "I", "a", "Y", "x", "\u00e9", "$", "\u0663"]
    rng = random.Random(10)
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        for allow_pi in (False, True):
            reference = _tokenize_outcome(reference_tokenize, text, allow_pi)
            if isinstance(reference, tuple):
                assert _tokenize_outcome(_tokenize, text, allow_pi) == reference, text
            with monkeypatch.context() as patch:
                patch.setattr(parser, "_TERM", _NEVER)
                assert _tokenize_outcome(_tokenize, text, allow_pi) == reference, text


@pytest.mark.parametrize("text, printed", [
    ("(1/2-3*i)*X1 - 2*i*T + 5*i - 1", "(1/2-3*i)*X1 - 2*i*T + (-1+5*i)"),
    ("-3*i*X1 + (0-1*i) + 2*X1*T", "2*X1*T - 3*i*X1 - 1*i"),
    # parts that are Fractions equal to +-1, or a negative imaginary part
    ("2/2*X1*T - 4/4*X1", "X1*T - X1"),
    ("-2/2*i*X1*T + (1/3-3/3*i)", "-1*i*X1*T + (1/3-1*i)"),
    ("(3/4-1/2*i)*X1 - 1/2*i", "(3/4-1/2*i)*X1 - 1/2*i"),
])
def test_print_canonical_gaussian_coefficients(text, printed):
    # only a coefficient with both parts nonzero is parenthesized
    assert print_canonical(parse(text, dim=1)[0]) == printed


@pytest.mark.parametrize("text, position", [
    ("(X1+X2+1)^100000", 9),
    ("T + (X1+X2+X3+X4+X5+X6+X7+X8+X9+X10+1)^4 * (X11+X12+X13+X14+X15+X16+X17+X18+X19+X20+1)^4",
     41),
], ids=["power", "product"])
def test_expansion_limit_points_at_the_operator(text, position):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.kind, e.value.position) == (ParseErrorKind.EXPANSION_LIMIT, position)
    assert str(MAX_TERMS) in e.value.message


def test_expansion_limit_admits_moderate_powers():
    p, _ = parse("(X1+X2+X3+1)^12")
    assert len(p.terms) == 455


@pytest.mark.parametrize("text, position", [
    ("(" * 250 + "X1" + ")" * 250 + "*T", MAX_NESTING),
    ("2*" + "-" * 600 + "X1*T", 2 + MAX_NESTING),
], ids=["parentheses", "unary-minus"])
def test_nesting_limit_points_at_the_level_past_it(text, position):
    # past the limit the descent would run out of Python's recursion limit
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.kind, e.value.position) == (ParseErrorKind.EXPANSION_LIMIT, position)
    assert str(MAX_NESTING) in e.value.message


def test_nesting_limit_admits_100_levels():
    x1t = parse("X1*T")[0]
    assert parse("(" * 100 + "X1" + ")" * 100 + "*T")[0] == x1t
    assert parse("-" * 100 + "X1*T")[0] == x1t
    assert parse("(-" * 50 + "X1" + ")" * 50 + "*T")[0] == x1t
    # the depth is of the levels open at once, not of all levels read
    assert parse(" + ".join(["(-X1*T)"] * 150))[0] == parse("-150*X1*T")[0]


def test_a_long_product_before_a_parenthesis_parses_fast():
    # a term token is tried only where a term of a sum may start, not per factor
    start = time.perf_counter()
    p, _ = parse("X1*" * 10_000 + "(X2+1)")
    assert time.perf_counter() - start < 1.0
    assert p == MultiPoly(3, {(10_000, 1, 0): 1, (10_000, 0, 0): 1})


def test_huge_exponent_of_a_monomial_parses_fast():
    start = time.perf_counter()
    p, _ = parse("X1^1000000000*T")
    assert time.perf_counter() - start < 1.0
    assert p == MultiPoly(2, {(1000000000, 1): 1})



@pytest.mark.parametrize("text, position, limit", [
    # each power is admitted; their product of 10^6 pairs of 1000-bit binomials is not
    ("(X1+1)^1000*(X1+1)^1000*T", 11, MAX_WORK),
    ("(X1+1)^2000*(X1+1)^2000*T", 6, MAX_WORK),
    # Fraction coefficients with growing denominators
    ("(1/3*X1+2/7)^800", 12, MAX_WORK),
    ("2^100000000*T", 1, MAX_COEFF_BITS),
    ("(X1-1/3)^5000", 8, MAX_COEFF_BITS),
], ids=["product", "power", "rational-power", "constant-power", "binomial-power"])
def test_work_and_coefficient_limits_point_at_the_operator(text, position, limit):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.kind, e.value.position) == (ParseErrorKind.EXPANSION_LIMIT, position)
    assert str(limit) in e.value.message


def test_work_and_coefficient_limits_admit_large_coefficients():
    assert parse("2^9999*T")[0] == MultiPoly(1, {(1,): 2 ** 9999})
    assert len(parse("(X1+1)^500*(X1+2)^5*T")[0].terms) == 506


@pytest.mark.parametrize("text, position", [
    # past 4,300 digits int() itself refuses the literal
    ("T + " + "7" * 4301 + "*T", 4),
    ("7" * 3011, 0),
    ("X1^" + "1" * 5000, 3),
    ("1/" + "3" * 3011, 2),
    # each power is admitted, their product's coefficient is not
    ("2^9999*2^9999*T", 6),
    ("2^10000*2*T", 7),
    # the sum in the unit factor's operand passes the limit before the `*`
    ("(1/3^6300 + 1/5^4300)*T", 10),
    # adding fractions multiplies denominators: each term is admitted, the
    # sum is not, at its first operator
    ("1/3^6300*T + 1/5^4300*T", 11),
    ("X1 + 1/3^6300*T - X1 + 1/5^4300*T", 3),
], ids=["4301-digits", "3011-digits", "exponent", "denominator", "power-product", "times-2",
        "times-T", "sum", "sum-of-four"])
def test_literal_and_product_bits_point_at_the_token(text, position):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.kind, e.value.position) == (ParseErrorKind.EXPANSION_LIMIT, position)
    assert str(MAX_COEFF_BITS) in e.value.message


def test_sum_bits_are_those_of_the_result():
    assert parse("1/3^6300*T + 1/3^6300*T")[0] == MultiPoly(1, {(1,): Fraction(2, 3 ** 6300)})
    # only the whole sum is bounded, not a partial one
    assert parse("1/3^6300*T + 1/5^4300*T - 1/5^4300*T")[0] == MultiPoly(
        1, {(1,): Fraction(1, 3 ** 6300)})


def test_literal_and_product_bits_admit_the_limit():
    assert parse("7" * 3010 + "*T")[0] == MultiPoly(1, {(1,): int("7" * 3010)})
    assert parse("2^10000*T")[0] == MultiPoly(1, {(1,): 2 ** 10000})
    assert parse("2^5000*2^5000*T")[0] == MultiPoly(1, {(1,): 2 ** 10000})


@pytest.mark.parametrize("text, position", [
    ("X33*T", 0),
    ("T + X1*X40 - X50", 7),
    ("X" + "9" * 5000 + "*T", 0),
    ("T + X" + "3" * 3011, 4),
])
def test_dimension_limit_points_at_the_variable(text, position):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.kind, e.value.position) == (ParseErrorKind.DIMENSION_EXCEEDED, position)
    assert str(MAX_DIM) in e.value.message


def test_dimension_limit_on_a_declared_dimension():
    assert parse("X32*T")[1] == MAX_DIM
    assert parse("X" + "0" * 5000 + "2*T")[1] == 2
    assert parse("T", dim=MAX_DIM)[0].nvars == MAX_DIM + 1
    with pytest.raises(ValueError, match="at most 32"):
        parse("X1*T", dim=MAX_DIM + 1)
    with pytest.raises(ValueError, match="^dimension must be nonnegative, got -1$"):
        parse("T", dim=-1)


# -- differential test of the pair arithmetic ------------------------------
# A tree is ("X", k) | ("T",) | ("i",) | ("num", Fraction) | ("neg", a)
# | (op, a, b) for op in "+-*" | ("^", a, n).

def _random_tree(rng, dim, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(["X", "T", "i", "num"])
        if kind == "X":
            return ("X", rng.randint(1, dim))
        if kind == "num":
            return ("num", Fraction(rng.randint(0, 9), rng.choice([1, 1, 2, 3, 7])))
        return (kind,)
    op = rng.choice(["+", "-", "*", "*", "^", "neg"])
    if op == "neg":
        return ("neg", _random_tree(rng, dim, depth - 1))
    if op == "^":
        return ("^", _random_tree(rng, dim, depth - 1), rng.randint(0, 4))
    return (op, _random_tree(rng, dim, depth - 1), _random_tree(rng, dim, depth - 1))


def _render(tree) -> str:
    kind = tree[0]
    if kind == "X":
        return f"X{tree[1]}"
    if kind in ("T", "i"):
        return kind
    if kind == "num":
        return str(tree[1])
    if kind == "neg":
        return f"-({_render(tree[1])})"
    if kind == "^":
        return f"({_render(tree[1])})^{tree[2]}"
    return f"({_render(tree[1])}) {kind} ({_render(tree[2])})"


def _evaluate_tree(tree, point) -> GaussianRational:
    """The tree's value by GaussianRational ring arithmetic alone."""
    kind = tree[0]
    if kind == "X":
        return point[tree[1] - 1]
    if kind == "T":
        return point[-1]
    if kind == "i":
        return GaussianRational(0, 1)
    if kind == "num":
        return GaussianRational(tree[1])
    if kind == "neg":
        return -_evaluate_tree(tree[1], point)
    if kind == "^":
        return _evaluate_tree(tree[1], point) ** tree[2]
    a, b = _evaluate_tree(tree[1], point), _evaluate_tree(tree[2], point)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


_X1, _X2 = ("X", 1), ("X", 2)
_EDGE_CASES = [
    ("0^0", ("^", ("num", Fraction(0)), 0)),
    ("(X1-X1)^0", ("^", ("-", _X1, _X1), 0)),
    ("i^4", ("^", ("i",), 4)),
    ("(2*i)^3", ("^", ("*", ("num", Fraction(2)), ("i",)), 3)),
    ("-X1^2", ("neg", ("^", _X1, 2))),
    ("X1*X1*X1", ("*", ("*", _X1, _X1), _X1)),
    ("-(1/2*X2 - i*T)^3 + X1*X2*0", ("+", ("neg", ("^", ("-", ("*", ("num", Fraction(1, 2)), _X2),
                                                             ("*", ("i",), ("T",))), 3)),
                                     ("*", ("*", _X1, _X2), ("num", Fraction(0))))),
]


def test_parse_matches_ring_arithmetic_on_random_trees():
    rng = random.Random(71)
    dim = 2
    trees = [(text, tree) for text, tree in _EDGE_CASES]
    trees += [(_render(t), t) for t in (_random_tree(rng, dim, 4) for _ in range(300))]
    for text, tree in trees:
        p, _ = parse(text, dim=dim)
        for _ in range(3):
            point = random_point(rng, dim + 1, height=5)
            assert evaluate(p, point) == _evaluate_tree(tree, point), text


# -- the term lane, the tokenizer's fast path, on and off -----------------
# Every input must give the same outcome whether or not the tokenizer reads
# whole terms as term tokens: with the term pattern patched to never match,
# the fine tokens read all of the text.

_NEVER = re.compile(r"(?!)")


def _outcome(text, dim, allow_pi):
    try:
        return parse(text, dim, allow_pi)
    except ParseError as err:
        return err.kind, err.position, err.message
    except ValueError as err:
        return repr(err)


def _lanes_agree(monkeypatch, text, dim=None, allow_pi=False) -> bool:
    """Whether term tokens read every operand of ``text`` and it parses;
    fails if the outcome differs with the fine tokens alone."""
    on = _outcome(text, dim, allow_pi)
    with monkeypatch.context() as patch:
        patch.setattr(parser, "_TERM", _NEVER)
        assert _outcome(text, dim, allow_pi) == on, (text, dim, allow_pi)
    if not isinstance(on[0], MultiPoly):
        return False
    return all(t.kind in ("term", "op", "end") for t in _tokenize(text, allow_pi, dim))


def _bench_coeff(re, im) -> str:
    """A coefficient as the benchmark writes it: always in parentheses."""
    if im == 0:
        return f"({re})"
    if re == 0:
        return f"({im}*i)"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def _bench_render(p: MultiPoly, names) -> str:
    parts = []
    for exps, (re, im) in p.sorted_terms():
        mono = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        parts.append("*".join([_bench_coeff(re, im)] + mono))
    return " + ".join(parts) or "0"


def _generated_texts(rng, count):
    """(text, dim, allow_pi, poly): canonical and benchmark-style renders of random symbols."""
    for k in range(count):
        allow_pi = k % 2 == 1
        nvars = rng.randint(2 if allow_pi else 1, 5)
        dim = nvars - 2 if allow_pi else nvars - 1
        p = random_multipoly(rng, nvars, max_deg=4, max_terms=8,
                             complex_coeffs=rng.random() < 0.7)
        names = default_names(nvars, pi_slot=dim if allow_pi else None)
        render = print_canonical if k % 4 < 2 else _bench_render
        yield render(p, names), dim, allow_pi, p


def _respaced(rng, text) -> str:
    """``text`` with random blanks between its tokens (none inside one)."""
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup != "space":
            out.append(rng.choice(["", "", " ", "  ", "\t", "\n", "\u00a0"]) + m[0])
    return "".join(out) + rng.choice(["", " ", "\n"])


def test_fast_path_takes_every_generated_text(monkeypatch):
    rng = random.Random(5)
    for text, dim, allow_pi, p in _generated_texts(rng, 400):
        for d in (dim, None):
            assert _lanes_agree(monkeypatch, text, d, allow_pi), text
            assert _lanes_agree(monkeypatch, _respaced(rng, text), d, allow_pi), text
        assert parse(text, dim, allow_pi)[0] == p, text


@pytest.mark.parametrize("text", [
    "0", "0*X1", "(0)*T", "(0+0*i)*X1", "(0-2*i)*X1", "(-0)", "0/5*i*T", "(3+0/4*i)*T",
    "-X1", "-T^0", "-1*i", "-2/2*i*X1", "X1 - 2/2*i*X1", "(-2/2*i)*T", "(2/2*i)*T",
    "1*i*T - 1*i*T", "X1 - X1 + X1", "1/2*T + 1/2*T - T + X1 - T", "X1*X1*T^0*X1^2",
    "(-1/2+1*i)*X1 + (1/2-1*i)*X1 + 1/3*X1", "-(1+2*i)*X1 - (3-4*i)", "4/2 + 6/3*X1",
    "007*X01^02", "1 / 2 * X1 ^ 2 * T", "( - 3 / 4 - 5 * i ) * T", "-3*i - 3*i",
])
def test_fast_path_on_signs_zeros_and_cancellations(monkeypatch, text):
    assert _lanes_agree(monkeypatch, text, None, False)
    assert _lanes_agree(monkeypatch, text, 2, True)


def test_fast_path_under_single_character_edits(monkeypatch):
    rng = random.Random(8)
    samples = [text for text, _, _, _ in _generated_texts(rng, 40) if 10 < len(text) < 60][:8]
    samples += ["-(1/2-3*i)*X1*PI^2*T + 2*i*T - 1/3", "(-1)*X2^2 + (4/3*i)*X1*T"]
    alphabet = "017+-*/^() XTPIia\t"
    for text in samples:
        for k in range(len(text)):
            edits = [text[:k] + text[k + 1:]]
            edits += [text[:k] + ch + text[k + 1:] for ch in alphabet if ch != text[k]]
            for edited in edits:
                for allow_pi in (False, True):
                    _lanes_agree(monkeypatch, edited, None, allow_pi)
                    _lanes_agree(monkeypatch, edited, 3, allow_pi)


@pytest.mark.parametrize("text, dim, taken", [
    ("7" * 3010 + "*T", None, True),
    ("7" * 3011 + "*T", None, False),
    ("(" + "7" * 4301 + "+1*i)*X1*T", None, False),
    ("(1+" + "7" * 3011 + "*i)*T", None, False),
    ("1/" + "3" * 3009 + "*T", None, True),
    ("1/" + "3" * 3010 + "*T", None, False),
    ("X1^" + "1" * 3010 + "*T", None, True),
    ("X1^" + "1" * 3011 + "*T", None, False),
    ("X32*T", None, True),
    ("X33*T", None, False),
    ("X0*T", None, False),
    ("X00*T + X1", None, False),
    ("X" + "0" * 5000 + "2*T", None, True),
    ("X" + "0" * 5000 + "2*T", 2, True),
    ("X" + "9" * 5000 + "*T", None, False),
    ("X3*T", 2, False),
    ("X2*T", 2, True),
    ("PI*T", None, False),
    ("1/0*T", None, False),
    ("(1/0+1*i)*T", None, False),
    ("(1+1/0*i)*T", None, False),
    (f"1/{2 ** 6700} * T + 1/{3 ** 4300} * T", None, False),
    (f"1/{2 ** 6700} * T + 1/{2 ** 6700} * T", None, True),
    ("(1/2+3*i)*X1*X33*T", None, False),
    ("", None, False),
    ("  ", None, False),
    ("+X1", None, False),
    ("X1 + -X2", None, True),
    ("2 X1", None, False),
    ("X1^2^3", None, False),
    ("T^1/2", None, False),
], ids=lambda v: v if isinstance(v, (bool, type(None))) or len(str(v)) < 30 else str(v)[:30])
def test_fast_path_declines_at_every_limit(monkeypatch, text, dim, taken):
    # a limit is reached by the fine tokens alone, so its error is raised in one place
    assert _lanes_agree(monkeypatch, text, dim) is taken


@pytest.mark.parametrize("text, dim, outcome", [
    ("1/2/3*X1", None, (ParseErrorKind.UNEXPECTED_TOKEN, 3)),
    ("2^2/3*X1", None, (ParseErrorKind.BAD_EXPONENT, 3)),
    ("2*+3*X1", None, (ParseErrorKind.UNEXPECTED_TOKEN, 2)),
    ("X1^2^3", None, (ParseErrorKind.UNEXPECTED_TOKEN, 4)),
    ("3 4*X1", None, (ParseErrorKind.UNEXPECTED_TOKEN, 2)),
    ("2/X1", None, (ParseErrorKind.UNEXPECTED_TOKEN, 2)),
    ("X3*T + (", 2, (ParseErrorKind.DIMENSION_EXCEEDED, 0)),
    ("X1 + X33*T", None, (ParseErrorKind.DIMENSION_EXCEEDED, 5)),
    ("PI*T", None, (ParseErrorKind.UNKNOWN_SYMBOL, 0)),
    ("+X1", None, (ParseErrorKind.UNEXPECTED_TOKEN, 0)),
    ("(X1+1)^2*X2", None, MultiPoly(3, {(2, 1, 0): 1, (1, 1, 0): 2, (0, 1, 0): 1})),
    ("2*-3*X1", None, MultiPoly(2, {(1, 0): -6})),
    ("X1 + -X2", None, MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1})),
    ("(2*i+3*i)*X1 - (-1/2*i-1/3*i)", None,
     MultiPoly(2, {(1, 0): (0, 5), (0, 0): (0, Fraction(5, 6))})),
    # two imaginary literals within the digit limit whose sum is past MAX_COEFF_BITS
    pytest.param(f"(1/{2 ** 4980}*i+1/{3 ** 3140}*i)*T", None,
                 (ParseErrorKind.EXPANSION_LIMIT, len(f"(1/{2 ** 4980}*i")), id="imaginary-sum-bits"),
])
def test_term_tokens_keep_the_outcomes_at_their_edges(monkeypatch, text, dim, outcome):
    # '^' and '/' take a bare integer, and signs stay operator tokens
    result = _outcome(text, dim, False)
    assert (result[0] if isinstance(outcome, MultiPoly) else result[:2]) == outcome
    _lanes_agree(monkeypatch, text, dim)
