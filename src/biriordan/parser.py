"""The expression parser behind series.parse, loaded on its first call.

Recursive descent over: expr := term (('+'|'-') term)*;
term := unary (('*'|'/') unary)*; unary := '-' unary | power;
power := atom ('^' ['-'] INT)?; atom := INT ['x' ...] | 'x' | '(' expr ')'.
An integer immediately followed by 'x' is an implicit product (2x^3).

The text is read once into tokens, each beside the whitespace before it, so
3/4 and 2x^3 are tokens with none between.  An exact value is a dict
{exponent: (numerator, denominator)} of ints, the denominator positive and
the numerator nonzero, not always in lowest terms: a sum adds pairs in
place and a one-term factor scales them, with no common denominator.  Only
a product of several terms by several, a quotient and a meeting with an
inexact operand take one (math.lcm) to the working form.  An inexact value
is a series, kernel output; an exact result leaves as one series, its
Fractions built then.

The parser has no division of its own: an exact quotient whose ratio fits
its count (series._fits) is series._rational's pending value, which parse
returns undivided (its one long division runs on the first read, and a
read through a cut divides only through it), and every other quotient, by
one term or past _fits, is the dividend times series.recip of the divisor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import dense
from .errors import ParseError
from .series import (MAX_NESTING, LaurentSeries, Side, _check_bits, _fits, _known_count,
                     _packed, _rational, add, mul, neg, power, recip)

# a run of the digits int() reads, or one non-space character, each after
# the whitespace before it
_TOKEN = re.compile(r"(\s*)(\d+|\S)")


class Parser:
    def __init__(self, text: str, side: Side, precision: int):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append(("", ""))  # the end
        self.i, self.side, self.precision, self.depth = 0, side, precision, 0

    def parse(self) -> LaurentSeries:
        value = self.expr()
        if self.peek():
            raise ParseError(f"unexpected {self.peek()[0]!r}", self.at())
        if type(value) is not dict:
            return value
        return LaurentSeries(Side.FINITE, {e: Fraction(x, d) for e, (x, d) in value.items()},
                             0, -1)

    def peek(self) -> str:
        # the next token, "" at the end
        return self.toks[self.i][1]

    def tight(self) -> str:
        # the next token if no whitespace comes before it, else ""
        space, tok = self.toks[self.i]
        return "" if space else tok

    def take(self) -> str:
        self.i += 1
        return self.toks[self.i - 1][1]

    def at(self, k: int = 0) -> int:
        # the offset of token i + k in the text, its length at the end; only
        # an error reads it
        i = self.i + k
        if i == len(self.toks) - 1:
            return len(self.text)
        return sum(len(space) + len(tok) for space, tok in self.toks[:i]) + len(self.toks[i][0])

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            minus = self.take() == "-"
            value = _add(value, self.term(), minus)
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            value = (_mul if op == "*" else self.divide)(value, self.unary())
        return value

    def divide(self, a, b):
        # a / b: an exact quotient whose ratio _fits the count carries the
        # ratio, pending (series._rational, on the flips when side is
        # above); any other is a times recip(b), kept on b: a one-term b
        # inverts exactly, a longer one expands once
        tb = _pairs(b)
        ta = tb and len(tb) > 1 and _pairs(a)
        if ta:
            count = _known_count(None, self.precision)
            flip = self.side is Side.ABOVE
            if flip:
                ta, tb = ({-e: c for e, c in t.items()} for t in (ta, tb))
            la, lb = min(ta), min(tb)
            if _fits(max(ta) - la + max(tb) - lb, count):
                return _rational((_form(ta, la, True), _form(tb, lb, True)), 0, la - lb,
                                 count, flip)
        return mul(_series(a), recip(_series(b), self.side, self.precision))

    def unary(self):
        negate = False
        while self.peek() == "-":
            self.i += 1
            negate = not negate
        value = self.power()
        if not negate:
            return value
        return {e: (-x, d) for e, (x, d) in value.items()} if type(value) is dict else neg(value)

    def power(self):
        value = self.atom()
        if self.peek() != "^":
            return value
        self.i += 1
        j = self.signed_int()
        if type(value) is dict and len(value) == 1:
            (e, (x, d)), = value.items()
            g = math.gcd(x, d)
            x, d = x // g, d // g
            _check_bits(x, d, j)
            if j < 0:  # the sign stays on the numerator
                x, d = (d, x) if x > 0 else (-d, -x)
            return {e * j: (x ** abs(j), d ** abs(j))}
        return power(_series(value), j, self.side, self.precision)

    def signed_int(self) -> int:
        sign = -1 if self.peek() == "-" else 1
        self.i += sign < 0
        if not self.peek().isdecimal():
            raise ParseError("expected integer exponent", self.at())
        return sign * int(self.take())

    def atom(self):
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", self.at(-1))
            value = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.at())
            self.i += 1
            return value
        if tok == "x":
            return {1: (1, 1)}
        if not tok.isdecimal():
            raise ParseError(f"unexpected {tok!r}" if tok else "unexpected end of input",
                             self.at(-1))
        x, d = int(tok), 1
        # tight fraction is a coefficient: 3/4, 1/2x^3 (whitespace around
        # '/' leaves it to term() as expansion-triggering division)
        space, q = self.toks[self.i + 1] if self.tight() == "/" else (" ", "")
        if not space and q.isdecimal():
            self.i += 2
            d = int(q)
            if not d:
                raise ParseError("zero denominator", self.at(-1) + len(q))
        e = 0
        if self.tight() == "x":  # implicit product: 2x, 2x^3, 1/2x
            self.i += 1
            e = 1
            if self.tight() == "^":
                self.i += 1
                e = self.signed_int()
        return {e: (x, d)} if x else {}


def _pairs(v) -> dict | None:
    # the pairs of an exact value (a dict, or an exact series over Q), else None
    if type(v) is dict:
        return v
    if not v.exact:
        return None
    xs, den, _ = v._form
    return _pairs_of(xs, den, v.lo)


def _pairs_of(xs, den: int, lo: int) -> dict:
    # the pairs of the working form with xs[i] / den at x^(lo+i)
    return {lo + i: (x, den) for i, x in (xs.items() if type(xs) is dict else enumerate(xs))
            if x}


def _form(t: dict, lo: int, packed: bool = False) -> tuple:
    """(xs, den): the pairs of t from x^lo (t has none below) over one common
    denominator, the least: one math.lcm of the pairs' own, each first
    reduced by a gcd.  A list, or sparse when mostly gaps unless packed."""
    terms = []
    for e, (x, d) in t.items():
        g = math.gcd(x, d)
        terms.append((e - lo, x // g, d // g))
    n = max(t, default=lo - 1) - lo + 1
    den = math.lcm(*[d for *_, d in terms])
    if packed or dense.worth_packing(n - 1, len(terms)):
        xs = [0] * n
        for i, x, d in terms:
            xs[i] = x * (den // d)
        return xs, den
    return {i: x * (den // d) for i, x, d in terms}, den


def _series(v) -> LaurentSeries:
    # a parser value as a series: an exact dict through its working form
    if type(v) is not dict:
        return v
    lo = min(v, default=0)
    return _packed(*_form(v, lo), 0, lo, None)


def _add(a, b, minus: bool):
    # a + b or a - b of parser values; exact ones sum in place in a's pairs
    ta, tb = _pairs(a), _pairs(b)
    if ta is None or tb is None:
        b = _series(b)
        return add(_series(a), neg(b) if minus else b)
    for e, (x, d) in tb.items():
        if minus:
            x = -x
        old = ta.get(e)
        if old is not None:
            y, f = old
            x, d = (x + y, d) if d == f else (x * f + y * d, d * f)
            if not x:
                del ta[e]
                continue
        ta[e] = x, d
    return ta


def _mul(a, b):
    # a * b of parser values; exact dicts stay pairs: a one-term factor
    # shifts and scales the other, else their forms multiply
    if type(a) is not dict or type(b) is not dict:
        return mul(_series(a), _series(b))
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:
        return {e + k: v if c == (1, 1) else (c[0] * v[0], c[1] * v[1])
                for e, c in a.items() for k, v in b.items()}
    (la, ha), (lb, hb) = (min(a), max(a)), (min(b), max(b))
    xs, den = dense.mul(_form(a, la), _form(b, lb), ha + hb - la - lb + 1, 0)
    return _pairs_of(xs, den, la + lb)

