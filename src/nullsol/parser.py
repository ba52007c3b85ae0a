"""Recursive-descent parser for polynomial PDE symbols.

Grammar (no implicit multiplication; ``^`` binds tighter than unary minus,
``*`` tighter than ``+``/``-``)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'T' | 'X' uint | 'i' | rational | '(' expr ')' | '-' factor
    rational := uint ('/' uint)?

Variables are the spatial ``X1 .. Xd`` (1-based), the time variable ``T``
and the imaginary unit ``i``.  In lattice-periodic mode the reserved
constant symbol ``PI`` is also admitted; it occupies an extra slot placed
just before T, so the time variable stays the last slot.

An expanded sum, whose terms are each an optional sign, a coefficient
(``rational``, ``rational*i``, or ``(re)``, ``(im*i)``, ``(re+im*i)``) and
'*'-separated powers of variables, is read straight from the text by one
regular expression per term (``_parse_expanded``).  That fast path never
raises and has no flag: on any other text, and wherever a limit could be
reached, it declines, and the tokenizer and recursive descent parse the
input and report every error.  Its result equals theirs term by term.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .multipoly import MultiPoly, format_coeff


class ParseErrorKind(Enum):
    UNEXPECTED_TOKEN = "UnexpectedToken"
    UNKNOWN_SYMBOL = "UnknownSymbol"
    BAD_EXPONENT = "BadExponent"
    DIMENSION_EXCEEDED = "DimensionExceeded"
    EXPANSION_LIMIT = "ExpansionLimit"


class ParseError(Exception):
    """Input rejected; carries the byte offset of the offending token."""

    def __init__(self, position: int, kind: ParseErrorKind, message: str):
        super().__init__(f"{kind.value} at position {position}: {message}")
        self.position = position
        self.kind = kind
        self.message = message


class _Tok(NamedTuple):
    kind: str  # 'int', 'op', 'T', 'X', 'i', 'PI', 'end'
    value: object
    pos: int


# Most monomials a product or power may expand to.
MAX_TERMS = 10_000
# Most bits a coefficient of a literal, product, power or sum may reach.
MAX_COEFF_BITS = 10_000
# Most spatial variables: X1 .. X32.
MAX_DIM = 32
# Most term products a product or power may cost, each weighted by
# 1 + (bits * bits) / 2^20 for the sizes of the two coefficients it multiplies.
MAX_WORK = 1_000_000
# A product of at most this many term pairs is admitted without reading its
# coefficients: it costs at most that many big-integer products.
_UNWEIGHED = 64
# Most digits of a literal: 10^n has n*log2(10) bits.
_MAX_DIGITS = int(MAX_COEFF_BITS / math.log2(10))

# One alternative per token class, tried in this order at each position.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<op>[-+*/^()])|(?P<int>[0-9]+)|X(?P<X>[0-9]+)"
                    r"|(?P<word>[^\W\d_]+)|(?P<other>.)")

# A flag's number: ``rational`` with an optional sign, blanks around it.
_RATIONAL = re.compile(r"\s*-?([0-9]+)(?:/([0-9]+))?\s*")

# One term of an expanded sum (see _parse_expanded).  Groups: 1 sign; 2, 3 a
# bare rational and 4 its '*i'; 5 '-', 6, 7 the first rational in parentheses
# and 8 its '*i', or 9 '+'/'-' and 10, 11 the imaginary part; 12 the variable
# powers after a coefficient, 13 those of a term without one.  No two '\s*'
# meet, so a failed match backtracks over a blank run once.
_FAST_RAT = r"([0-9]+)(?:\s*/\s*([0-9]+))?"
_FAST_POWER = r"(?:X[0-9]+|T|PI)(?:\s*\^\s*[0-9]+)?"
_FAST_MONO = rf"{_FAST_POWER}(?:\s*\*\s*{_FAST_POWER})*"
_FAST_TERM = re.compile(
    rf"\s*(?:([-+])\s*)?"
    rf"(?:(?:{_FAST_RAT}(\s*\*\s*i)?"
    rf"|\(\s*(?:(-)\s*)?{_FAST_RAT}\s*(?:(\*\s*i\s*)|([-+])\s*{_FAST_RAT}\s*\*\s*i\s*)?\))"
    rf"(?:\s*\*\s*({_FAST_MONO}))?|({_FAST_MONO}))\s*")
# An X index without its leading zeros (a bare "X0" keeps one).
_FAST_INDEX = re.compile(r"X0*([0-9]+)")

_WORD_ERRORS = {"PI": "PI is only admitted in lattice-periodic mode",
                "X": "X must be followed by a 1-based index"}


def _symbol_error(value: str, pos: int, allow_pi: bool) -> ParseError:
    """The error for a word that is not a symbol, or for any other character.

    The word pattern also admits numerals that are not letters (``²``,
    ``½``), so a word proper ends before the first of them.
    """
    n = next((j for j, ch in enumerate(value) if not ch.isalpha()), len(value))
    word = value[:n]
    if not word or word in ("T", "i") or (word == "PI" and allow_pi):
        return ParseError(pos + n, ParseErrorKind.UNKNOWN_SYMBOL,
                          f"unexpected character {value[n]!r}")
    return ParseError(pos, ParseErrorKind.UNKNOWN_SYMBOL,
                      _WORD_ERRORS.get(word, f"unknown symbol {word!r}"))


def _binomial_capped(n: int, k: int) -> int:
    """C(n, k), or a partial product above MAX_TERMS once it passes that."""
    c, k = 1, min(k, n - k)
    for j in range(1, k + 1):
        c = c * (n - k + j) // j   # C(n - k + j, j), increasing in j
        if c > MAX_TERMS:
            break
    return c


def _check_expansion(op: _Tok, count: int, polys: tuple[MultiPoly, ...], power: int = 1) -> None:
    """ParseError at ``op`` if the product of ``polys`` to the ``power`` may have more
    than MAX_TERMS monomials: above ``count`` and C(D+v, v) (degree <= D, v variables)."""
    if count <= MAX_TERMS:
        return
    v = sum(map(any, zip(*(e for p in polys for e in p.terms))))
    if _binomial_capped(power * sum(p.total_degree() for p in polys) + v, v) > MAX_TERMS:
        raise ParseError(op.pos, ParseErrorKind.EXPANSION_LIMIT,
                         f"expansion may exceed the limit of {MAX_TERMS} monomials")


def _bits(p: MultiPoly) -> float:
    """log2 of the largest |numerator| * denominator of a coefficient part."""
    m = 1
    for x, y in p.terms.values():
        m = max(m, abs(x.numerator) * x.denominator, abs(y.numerator) * y.denominator)
    return math.log2(m)


def _work(products: int, bits_a: float, bits_b: float) -> float:
    return products * (1 + bits_a * bits_b / 2 ** 20)


def _check_work(op: _Tok, work: float) -> None:
    if work > MAX_WORK:
        raise ParseError(op.pos, ParseErrorKind.EXPANSION_LIMIT,
                         f"expansion may exceed the limit of {MAX_WORK} weighted term products")


def _check_power(op: _Tok, base: MultiPoly, n: int) -> None:
    """ParseError at ``op`` if ``base ** n`` may pass MAX_TERMS monomials,
    MAX_COEFF_BITS bits in a coefficient or MAX_WORK.

    With k terms whose coefficients have b bits, a coefficient of p^m is a sum
    of at most k^m products of m of them: it has about m*(b + log2 k) bits.
    The work is estimated as that of the last squaring and the last product
    by p, doubled for the earlier steps of binary powering.
    """
    k = len(base.terms)
    if k == 1 and next(iter(base.terms.values())) == (1, 0):
        return  # a monic monomial stays one
    # p^m has at most C(m + k - 1, k - 1) monomials, and at most C(m*D + v, v).
    _check_expansion(op, _binomial_capped(n + k - 1, k - 1), (base,), n)
    if k == 0:
        return
    b = _bits(base) + math.log2(k)
    if n * b > MAX_COEFF_BITS:
        raise ParseError(op.pos, ParseErrorKind.EXPANSION_LIMIT,
                         f"coefficients may exceed the limit of {MAX_COEFF_BITS} bits")
    if k == 1:
        return
    v = sum(map(any, zip(*base.terms)))
    degree = base.total_degree()

    def terms(m: int) -> int:
        return min(_binomial_capped(m + k - 1, k - 1), _binomial_capped(m * degree + v, v))

    h = n // 2
    _check_work(op, 2 * (_work(terms(h) ** 2, h * b, h * b) + _work(terms(n) * k, n * b, b)))


def _tokenize(text: str, allow_pi: bool) -> list[_Tok]:
    symbols = ("T", "i", "PI") if allow_pi else ("T", "i")
    toks = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m[m.lastgroup], m.start()
        if kind == "op":
            toks.append(_Tok("op", value, pos))
        elif kind == "int" and len(value) > _MAX_DIGITS:
            raise ParseError(pos, ParseErrorKind.EXPANSION_LIMIT,
                             f"literal may exceed the limit of {MAX_COEFF_BITS} bits")
        elif kind == "int":
            toks.append(_Tok("int", int(value), pos))
        elif kind == "X" and not value.strip("0"):
            raise ParseError(pos, ParseErrorKind.UNKNOWN_SYMBOL, "X indices are 1-based")
        elif kind == "X" and len(value.lstrip("0")) > _MAX_DIGITS:
            raise ParseError(pos, ParseErrorKind.DIMENSION_EXCEEDED,
                             f"variable index exceeds the limit of {MAX_DIM} dimensions")
        elif kind == "X":
            toks.append(_Tok("X", int(value.lstrip("0")), pos))
        elif kind == "word" and value in symbols:
            toks.append(_Tok(value, None, pos))
        elif kind != "space":
            raise _symbol_error(value, pos, allow_pi)
    toks.append(_Tok("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], nvars: int, dim: int, pi_slot: int | None):
        self.toks = toks
        self.k = 0
        self.nvars = nvars
        self.dim = dim
        self.pi_slot = pi_slot  # slot index for PI, or None

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def next(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, ch: str):
        t = self.next()
        if t.kind != "op" or t.value != ch:
            raise ParseError(t.pos, ParseErrorKind.UNEXPECTED_TOKEN,
                             f"expected {ch!r}")

    def parse_expr(self) -> MultiPoly:
        """A sum, whose coefficients may not pass MAX_COEFF_BITS (adding
        fractions multiplies denominators); the error is at its first operator."""
        terms = [self.parse_term()]
        first = None
        while True:
            t = self.peek()
            if t.kind == "op" and t.value in "+-":
                self.next()
                first = first or t
                rhs = self.parse_term()
                terms.append(-rhs if t.value == "-" else rhs)
            else:
                total = MultiPoly.sum_of(self.nvars, terms)
                if first and _bits(total) > MAX_COEFF_BITS:
                    raise ParseError(first.pos, ParseErrorKind.EXPANSION_LIMIT,
                                     f"coefficients exceed the limit of {MAX_COEFF_BITS} bits")
                return total

    def parse_term(self) -> MultiPoly:
        """A product, whose running coefficient size ``bits`` may not pass
        MAX_COEFF_BITS: a coefficient of ``acc * rhs`` is a sum of at most
        min(k_acc, k_rhs) products of coefficients."""
        acc = self.parse_factor()
        bits = None
        while True:
            t = self.peek()
            if t.kind == "op" and t.value == "*":
                self.next()
                rhs = self.parse_factor()
                count = len(acc.terms) * len(rhs.terms)
                _check_expansion(t, count, (acc, rhs))
                if count:
                    acc_bits = _bits(acc) if bits is None else bits
                    rhs_bits = _bits(rhs)
                    bits = acc_bits + rhs_bits + math.log2(min(len(acc.terms), len(rhs.terms)))
                    if bits > MAX_COEFF_BITS:
                        raise ParseError(t.pos, ParseErrorKind.EXPANSION_LIMIT,
                                         f"coefficients may exceed the limit of {MAX_COEFF_BITS} bits")
                    if count > _UNWEIGHED:
                        _check_work(t, _work(count, acc_bits, rhs_bits))
                acc = acc * rhs
            else:
                return acc

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        t = self.peek()
        if t.kind == "op" and t.value == "^":
            self.next()
            e = self.peek()
            if e.kind != "int":
                raise ParseError(e.pos, ParseErrorKind.BAD_EXPONENT,
                                 "exponent must be a nonnegative integer literal")
            self.next()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "/":
                raise ParseError(nxt.pos, ParseErrorKind.BAD_EXPONENT,
                                 "fractional exponents are not allowed")
            _check_power(t, base, e.value)
            return base ** e.value
        return base

    def parse_base(self) -> MultiPoly:
        t = self.next()
        if t.kind == "T":
            return MultiPoly.variable(self.nvars, self.nvars - 1)
        if t.kind == "X":
            if t.value > self.dim:
                raise ParseError(t.pos, ParseErrorKind.DIMENSION_EXCEEDED,
                                 f"X{t.value} exceeds declared dimension {self.dim}")
            return MultiPoly.variable(self.nvars, t.value - 1)
        if t.kind == "PI":
            return MultiPoly.variable(self.nvars, self.pi_slot)
        if t.kind == "i":
            return MultiPoly.constant(self.nvars, (0, 1))
        if t.kind == "int":
            num = t.value
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "/":
                self.next()
                den = self.next()
                if den.kind != "int" or den.value == 0:
                    raise ParseError(den.pos, ParseErrorKind.UNEXPECTED_TOKEN,
                                     "expected nonzero integer denominator")
                num = Fraction(num, den.value)
            return MultiPoly.constant(self.nvars, (num, 0))
        if t.kind == "op" and t.value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if t.kind == "op" and t.value == "-":
            return -self.parse_factor()
        raise ParseError(t.pos, ParseErrorKind.UNEXPECTED_TOKEN,
                         f"unexpected token at start of operand")


def _fast_rational(num: str, den: str | None, negative: bool) -> int | Fraction | None:
    """The literal ``num[/den]``, negated if ``negative``, with the general
    parser's type; None on a zero denominator or past _MAX_DIGITS digits in
    all, so that |numerator| * denominator stays below 10^_MAX_DIGITS, under
    2^MAX_COEFF_BITS."""
    if len(num) + len(den or "") > _MAX_DIGITS:
        return None
    n = -int(num) if negative else int(num)
    if den is None:
        return n
    d = int(den)
    return Fraction(n, d) if d else None


_FRACTION_ZERO = Fraction(0)


def _times_i(q) -> tuple:
    """The product ``q*i`` as MultiPoly.__mul__ builds it: i itself when q is
    1 (a monic factor is shifted), else ``(q*0 - 0*1, q*1 + 0*0)``."""
    if q == 1:
        return (0, 1)
    return (0 if type(q) is int else _FRACTION_ZERO, q)


def _parse_expanded(text: str, dim: int | None, allow_pi: bool) -> tuple[MultiPoly, int] | None:
    """``parse`` of a sum of simple terms, read straight from the text, or None.

    A term is an optional sign, an optional coefficient and '*'-separated
    powers of Xk, T and (with ``allow_pi``) PI.  The coefficient is a
    ``rational``, ``rational*i``, or in parentheses ``re``, ``im*i`` or
    ``re+im*i`` (either sign, and '-' before the first part).  Each pair is
    built by the operations the general parser applies to it, and the terms
    are collected by MultiPoly.from_terms, as MultiPoly.sum_of collects them,
    so the result equals the general parser's in values, types and order.  None on any other text, and
    wherever a limit could be reached (a literal or index past _MAX_DIGITS,
    X0, an index past MAX_DIM or ``dim``, a zero denominator, a sum past
    MAX_COEFF_BITS): every error is left to the general parser.
    """
    if dim is None:
        dim = 0
        for index in _FAST_INDEX.findall(text):
            if len(index) > 2:
                return None
            dim = max(dim, int(index))
        if dim > MAX_DIM:
            return None
    nvars = dim + 2 if allow_pi else dim + 1
    terms = []
    pos, end = 0, len(text)
    while True:
        m = _FAST_TERM.match(text, pos)
        if m is None:
            return None
        sign, num, den, bare_i, neg, pnum, pden, paren_i, op, inum, iden, after, alone = m.groups()
        # the first term takes no '+', every later one needs its operator
        if (sign == "+") if pos == 0 else (sign is None):
            return None
        if alone is not None:
            c, powers = (1, 0), alone
        elif num is not None:
            # a leading '-' binds to the literal, a '-' between terms to the product
            q = _fast_rational(num, den, pos == 0 and sign == "-")
            if q is None:
                return None
            sign = sign if pos else None
            c, powers = (_times_i(q) if bare_i else (q, 0)), after
        else:
            q = _fast_rational(pnum, pden, neg)
            if q is None:
                return None
            c, powers = (_times_i(q) if paren_i else (q, 0)), after
            if op:
                im = _fast_rational(inum, iden, False)
                if im is None:
                    return None
                if im:
                    zero, im = _times_i(im)
                    im = -im if op == "-" else im
                    # q + 0 keeps q's type, but an int plus Fraction(0) is a Fraction
                    c = ((q + zero if type(q) is int else q), im) if q else (zero, im)
        if sign == "-":
            c = (-c[0] if c[0] else c[0], -c[1] if c[1] else c[1])
        e = [0] * nvars
        for factor in powers.split("*") if powers else ():
            name, _, power = factor.partition("^")
            name = name.strip()
            if name == "T":
                slot = -1
            elif name == "PI":
                if not allow_pi:
                    return None
                slot = -2
            else:
                index = name[1:].lstrip("0")
                slot = int(index) - 1 if 0 < len(index) <= 2 else -1
                if not 0 <= slot < dim:
                    return None
            if not power:
                e[slot] += 1
                continue
            power = power.strip()
            if len(power) > _MAX_DIGITS:
                return None
            e[slot] += int(power)
        if c[0] or c[1]:
            terms.append((tuple(e), c))
        pos = m.end()
        if pos == end:
            break
    poly = MultiPoly.from_terms(nvars, terms)
    # Unless two terms met, each coefficient is a term's, held below the limit.
    if len(poly.terms) < len(terms) and _bits(poly) > MAX_COEFF_BITS:
        return None
    return poly, dim


def parse_rational(text: str) -> Fraction:
    """A number given in a flag: the grammar's ``rational`` with an optional '-'.

    Raises ValueError on any other text (decimals and exponents included) or
    on a literal of more than _MAX_DIGITS digits, and ZeroDivisionError on a
    zero denominator.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    if any(len(part) > _MAX_DIGITS for part in m.groups(default="")):
        raise ValueError(f"literal may exceed the limit of {MAX_COEFF_BITS} bits")
    return Fraction(text)


def parse(text: str, dim: int | None = None, allow_pi: bool = False) -> tuple[MultiPoly, int]:
    """Parse an expression into a MultiPoly; returns (poly, spatial dim).

    Without PI the result has ``dim + 1`` slots (X1..Xd, T).  With
    ``allow_pi`` it always has ``dim + 2`` slots (X1..Xd, PI, T), whether
    or not PI occurs.  Raises :class:`ParseError` on invalid input and
    ``ValueError`` on a ``dim`` below 0 or above MAX_DIM.
    """
    if dim is not None and dim < 0:
        raise ValueError(f"dimension must be nonnegative, got {dim}")
    if dim is not None and dim > MAX_DIM:
        raise ValueError(f"dimension must be at most {MAX_DIM}, got {dim}")
    return _parse_expanded(text, dim, allow_pi) or _parse_general(text, dim, allow_pi)


def _parse_general(text: str, dim: int | None, allow_pi: bool) -> tuple[MultiPoly, int]:
    """``parse`` by the tokenizer and the recursive descent: every input, every error."""
    toks = _tokenize(text, allow_pi)
    if dim is None:
        dim = max((t.value for t in toks if t.kind == "X"), default=0)
        if dim > MAX_DIM:
            pos = next(t.pos for t in toks if t.kind == "X" and t.value > MAX_DIM)
            raise ParseError(pos, ParseErrorKind.DIMENSION_EXCEEDED,
                             f"variable index exceeds the limit of {MAX_DIM} dimensions")
    nvars = dim + 2 if allow_pi else dim + 1
    pi_slot = dim if allow_pi else None
    p = _Parser(toks, nvars, dim, pi_slot)
    poly = p.parse_expr()
    end = p.next()
    if end.kind != "end":
        raise ParseError(end.pos, ParseErrorKind.UNEXPECTED_TOKEN,
                         "trailing input after expression")
    return poly, dim


# -- canonical printing ---------------------------------------------------

def default_names(nvars: int, t_last: bool = True, pi_slot: int | None = None) -> list[str]:
    names = [f"X{k + 1}" for k in range(nvars)]
    if pi_slot is not None:
        names[pi_slot] = "PI"
    if t_last and nvars > 0:
        names[-1] = "T"
    return names


def _coeff_str(c: tuple) -> str:
    return f"({format_coeff(c)})" if c[0] and c[1] else format_coeff(c)


def print_canonical(p: MultiPoly, names: list[str] | None = None) -> str:
    """Canonical text form: graded-lex descending; re-parses to ``p``."""
    if names is None:
        names = default_names(p.nvars)
    if p.is_zero():
        return "0"
    parts = []
    for exps, c in p.sorted_terms():
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps) if e > 0
        )
        if not mono:
            s = _coeff_str(c)
        elif c == (1, 0):
            s = mono
        elif c == (-1, 0):
            s = f"-{mono}"
        else:
            s = f"{_coeff_str(c)}*{mono}"
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        if s.startswith("-"):
            out += f" - {s[1:]}"
        else:
            out += f" + {s}"
    return out
