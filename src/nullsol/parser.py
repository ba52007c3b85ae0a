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

A term of an expanded sum (an optional coefficient ``rational``,
``rational*i``, ``(re)``, ``(im*i)`` or ``(re+im*i)``, then '*'-separated
powers of Xk, T and PI) is read as one ``term`` token, whose value is the
product its fine tokens would build.  Where a limit or check may apply to
its text, no term token is made and the fine tokens read that text.
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
    kind: str  # 'term', 'int', 'op', 'T', 'X', 'i', 'PI', 'end'
    value: object
    pos: int


# A _Tok built in C: the NamedTuple constructor is a Python function, and the
# tokenizer makes two tokens per term of an expanded sum.
_new_tok = tuple.__new__


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
# Most parentheses and unary minus signs open at once.  A level costs up to
# four nested calls of the descent, so the bound stays well inside Python's
# default recursion limit of 1000.
MAX_NESTING = 100

# One alternative per token class, tried in this order at each position.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<op>[-+*/^()])|(?P<int>[0-9]+)|X(?P<X>[0-9]+)"
                    r"|(?P<word>[^\W\d_]+)|(?P<other>.)")

# A flag's number: ``rational`` with an optional sign, blanks around it.
_RATIONAL = re.compile(r"\s*-?([0-9]+)(?:/([0-9]+))?\s*")

# A term token: a term without its sign, then the '+', '-' or ')' after it.
# Groups: 1 '(' and 2 '-' of a coefficient in parentheses, 3, 4 its first rational
# and 5 that part's '*i', 6 '+'/'-' and 7, 8 an imaginary part; 9 the powers after
# a coefficient, 10 those of a term without one; 11 the operator, '' at the end.
_RAT = r"([0-9]+)(?:\s*/\s*([0-9]+))?"
_POWER = r"(?:X[0-9]+|T|PI)(?:\s*\^\s*[0-9]+)?"
_MONO = rf"{_POWER}(?:\s*\*\s*{_POWER})*"
_TERM = re.compile(
    rf"(?:(?:(\()\s*(?:(-)\s*)?)?{_RAT}(\s*\*\s*i)?(?(1)\s*(?:([-+])\s*{_RAT}\s*\*\s*i\s*)?\))"
    rf"(?:\s*\*\s*({_MONO}))?|({_MONO}))\s*([-+)]|\Z)?\s*")

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


def _rational(num: str, den: str | None, negative: bool) -> int | Fraction | None:
    """``num[/den]``, negated if ``negative``; None on a zero denominator or
    past _MAX_DIGITS digits in all (|numerator| * denominator < 2^MAX_COEFF_BITS)."""
    if len(num) + len(den or "") > _MAX_DIGITS or den and not den.strip("0"):
        return None
    n = -int(num) if negative else int(num)
    return n if den is None else Fraction(n, int(den))


def _term_value(m: re.Match, allow_pi: bool, dim: int) -> tuple | None:
    """``(coeff, powers, top)`` of a _TERM match: ``(slot, exponent)`` powers
    (Xk in slot k - 1, PI in -2, T in -1) and the highest X index.  None unless
    an operator or the end follows, and where a check applies: a literal past
    _MAX_DIGITS, a zero denominator, X0, an index past ``dim``, PI without ``allow_pi``,
    or ``(q*i+r*i)``, a sum whose size the digits of its literals do not bound."""
    _, neg, num, den, star_i, op, inum, iden, after, alone, follow = m.groups()
    if follow is None:
        return None
    c, mono = (1, 0), alone
    if alone is None:
        q, im = _rational(num, den, neg), _rational(inum, iden, op == "-") if op else 0
        if q is None or im is None or star_i and op:
            return None
        c, mono = ((0, q) if star_i else (q, im)), after
    powers, top = [], 0
    for factor in mono.split("*") if mono else ():
        name, _, power = factor.partition("^")
        name, power = name.strip(), power.strip()
        if name == "T" or name == "PI":
            slot = -1 if name == "T" else -2
        else:
            index = name[1:].lstrip("0")
            slot = int(index) - 1 if 0 < len(index) <= 2 else dim
            top = slot + 1 if slot >= top else top
        if slot >= dim or slot == -2 and not allow_pi or len(power) > _MAX_DIGITS:
            return None
        powers.append((slot, int(power) if power else 1))
    return c, powers, top


def _tokenize(text: str, allow_pi: bool, dim: int | None = None) -> list[_Tok]:
    """The tokens of ``text``: a term token where _TERM admits one at the
    start of a term of a sum (the start of the text, or after '(', '+' or
    '-'), else one fine token of _TOKEN.  So none follows '^' or '/', which
    take a bare integer, and a long product is scanned once, not per factor."""
    symbols = ("T", "i", "PI") if allow_pi else ("T", "i")
    limit = MAX_DIM if dim is None else dim
    toks = []
    pos, end = 0, len(text)
    while pos < end:
        if (not toks or toks[-1].value in ("(", "+", "-")) and (m := _TERM.match(text, pos)):
            value = _term_value(m, allow_pi, limit)
            if value is not None:
                toks.append(_new_tok(_Tok, ("term", value, pos)))
                if m[11]:
                    toks.append(_new_tok(_Tok, ("op", m[11], m.start(11))))
                pos = m.end()
                continue
        m = _TOKEN.match(text, pos)
        kind, value = m.lastgroup, m[m.lastgroup]
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
        pos = m.end()
    toks.append(_Tok("end", None, end))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], nvars: int, dim: int):
        self.toks = toks
        self.k = 0
        self.nvars = nvars
        self.dim = dim
        self.depth = 0  # parentheses and unary minus signs open

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def next(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def term_pair(self, t: _Tok) -> tuple:
        """The ``(exps, coeff)`` pair of a term token."""
        c, powers, _ = t.value
        e = [0] * self.nvars
        for slot, n in powers:
            e[slot] += n
        return tuple(e), c

    def parse_expr(self) -> MultiPoly:
        """A sum, whose coefficients may not pass MAX_COEFF_BITS (adding
        fractions multiplies denominators); the error is at its first operator."""
        pairs = []
        first = sign = None
        bounded = True  # each pair a term token's: its literals' digits bound its bits
        toks = self.toks
        while True:
            t = toks[self.k]
            if t.kind == "term":  # a whole term: '+', '-', ')' or the end follows
                self.k += 1
                items = (self.term_pair(t),)
            else:
                items = self.parse_term().terms.items()
                bounded = False
            for e, c in items:
                if c[0] or c[1]:
                    pairs.append((e, (-c[0], -c[1])) if sign == "-" else (e, c))
            t = toks[self.k]
            if t.kind != "op" or t.value not in "+-":
                break
            self.k += 1
            first = first or t
            sign = t.value
        total = MultiPoly.from_terms(self.nvars, pairs)
        merged = len(total.terms) < len(pairs)
        if first and (merged or not bounded) and _bits(total) > MAX_COEFF_BITS:
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
        if t.kind == "term":
            return MultiPoly(self.nvars, dict([self.term_pair(t)]))
        if t.kind == "T":
            return MultiPoly.variable(self.nvars, self.nvars - 1)
        if t.kind == "X":
            if t.value > self.dim:
                raise ParseError(t.pos, ParseErrorKind.DIMENSION_EXCEEDED,
                                 f"X{t.value} exceeds declared dimension {self.dim}")
            return MultiPoly.variable(self.nvars, t.value - 1)
        if t.kind == "PI":
            return MultiPoly.variable(self.nvars, self.nvars - 2)  # PI precedes T
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
        if t.kind == "op" and t.value in "(-":
            if self.depth == MAX_NESTING:
                raise ParseError(t.pos, ParseErrorKind.EXPANSION_LIMIT,
                                 f"nesting exceeds the limit of {MAX_NESTING} levels")
            self.depth += 1
            if t.value == "-":
                inner = -self.parse_factor()
            else:
                inner, close = self.parse_expr(), self.next()
                if close.kind != "op" or close.value != ")":
                    raise ParseError(close.pos, ParseErrorKind.UNEXPECTED_TOKEN, "expected ')'")
            self.depth -= 1
            return inner
        raise ParseError(t.pos, ParseErrorKind.UNEXPECTED_TOKEN,
                         f"unexpected token at start of operand")


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
    toks = _tokenize(text, allow_pi, dim)
    if dim is None:
        dim = max((t.value if t.kind == "X" else t.value[2]
                   for t in toks if t.kind in ("X", "term")), default=0)
        if dim > MAX_DIM:
            pos = next(t.pos for t in toks if t.kind == "X" and t.value > MAX_DIM)
            raise ParseError(pos, ParseErrorKind.DIMENSION_EXCEEDED,
                             f"variable index exceeds the limit of {MAX_DIM} dimensions")
    p = _Parser(toks, dim + 2 if allow_pi else dim + 1, dim)
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


def print_canonical(p: MultiPoly, names: list[str] | None = None) -> str:
    """Canonical text form: graded-lex descending; re-parses to ``p``.  The
    coefficients are compared as text, so only a real one can be 1 or -1."""
    if names is None:
        names = default_names(p.nvars)
    out = []
    for exps, c in p.sorted_terms():
        mono = "*".join([name if e == 1 else f"{name}^{e}"
                         for name, e in zip(names, exps) if e])
        coeff = f"({format_coeff(c)})" if c[1] and c[0] else format_coeff(c)
        if not mono:
            s = coeff
        elif coeff == "1":
            s = mono
        elif coeff == "-1":
            s = f"-{mono}"
        else:
            s = f"{coeff}*{mono}"
        if out:
            s = f" - {s[1:]}" if s[0] == "-" else f" + {s}"
        out.append(s)
    return "".join(out) or "0"
