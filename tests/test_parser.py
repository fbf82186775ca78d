"""The one-pass parser against the parser it replaced.

`series.parse` reads its text as one token list and keeps exact values as
dicts of integer (numerator, denominator) pairs, dividing an exact numerator
by an exact divisor of several terms in one long division.  `RefParser`
below is the earlier version, kept here as the reference: it walks the text
character by character and builds a series for every token, sum, product
and quotient, dividing by `recip` and then one `mul`.  The two must agree
on value, side, window and coefficient types, or raise the same exception
with the same message and position.  The one intended difference: a
character that `str.isdigit` accepts but `int()` does not read, such as
'²', made the reference raise int()'s ValueError; the parser reports it as
a ParseError with its position.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from biriordan import series
from biriordan.errors import ParseError, ZeroSeriesError
from biriordan.series import (
    DEFAULT_PRECISION,
    MAX_NESTING,
    LaurentSeries,
    Side,
    add,
    monomial,
    mul,
    neg,
    parse,
    power,
    recip,
)


class RefParser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := '-' unary | power;
    power := atom ('^' ['-'] INT)?; atom := INT ['x' ...] | 'x' | '(' expr ')'.
    An integer immediately followed by 'x' is an implicit product (2x^3)."""

    def __init__(self, text: str, side: Side, precision: int):
        self.text = text
        self.pos = 0
        self.side = side
        self.precision = precision
        self.depth = 0

    def parse(self) -> LaurentSeries:
        value = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return value

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> LaurentSeries:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = add(value, rhs) if op == "+" else add(value, neg(rhs))
        return value

    def term(self) -> LaurentSeries:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary()
            if op == "*":
                value = mul(value, rhs)
            else:
                value = mul(value, recip(rhs, self.side, self.precision))
        return value

    def unary(self) -> LaurentSeries:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        value = self.power()
        return neg(value) if negate else value

    def power(self) -> LaurentSeries:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            value = power(value, self.signed_int(), self.side, self.precision)
        return value

    def signed_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        self.skip_ws()
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            raise ParseError("expected integer exponent", self.pos)
        num = self.integer()
        return -num if self.text[start] == "-" else num

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected integer", self.pos)
        return int(self.text[start:self.pos])

    def atom(self) -> LaurentSeries:
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", self.pos)
            self.pos += 1
            value = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return value
        if ch == "x":
            self.pos += 1
            return monomial(Fraction(1), 1)
        if ch.isdigit():
            n = self.integer()
            c = Fraction(n)
            # tight fraction is a coefficient: 3/4, 1/2x^3 (whitespace around
            # '/' leaves it to term() as expansion-triggering division)
            if (self.pos + 1 < len(self.text) and self.text[self.pos] == "/"
                    and self.text[self.pos + 1].isdigit()):
                self.pos += 1
                q = self.integer()
                if q == 0:
                    raise ParseError("zero denominator", self.pos)
                c = Fraction(n, q)
            # implicit product: 2x, 2x^3, 1/2x
            if self.pos < len(self.text) and self.text[self.pos] == "x":
                self.pos += 1
                if self.pos < len(self.text) and self.text[self.pos] == "^":
                    self.pos += 1
                    return monomial(c, self.signed_int())
                return monomial(c, 1)
            return monomial(c)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                         self.pos)


def ref_parse(text: str, side: Side = Side.BELOW,
              precision: int = DEFAULT_PRECISION) -> LaurentSeries:
    if side is Side.FINITE:
        side = Side.BELOW
    return RefParser(text, side, precision).parse()


def outcome(fn, *args):
    """What a parse gives: the series with its side, window and coefficient
    types, or the exception with its type, message and position."""
    try:
        s = fn(*args)
    except Exception as exc:  # the exception is part of the outcome
        return type(exc), str(exc), getattr(exc, "position", None)
    return s, s.side, s.lo, s.hi, {e: type(c) for e, c in s.coeffs.items()}


def assert_same_as_reference(text, side=Side.BELOW, precision=DEFAULT_PRECISION):
    assert outcome(parse, text, side, precision) == \
        outcome(ref_parse, text, side, precision), text


TEXTS = [
    "0", "-0", "7", "x", "-x", "--x", "- - -x", "2x", "2 x", "2x^3", "2x ^3",
    "2x^ -3", "2x^3^2", "x^2^3", "(2x)^3", "3/4", "3/4x^2", "3 /4x", "3/ 4",
    "3/0", "0/5x", "3/4/5", "1/2x^-3", "x^-1", "x^ - 2", "x^--2", "x^", "x^a",
    "1++x", "1+ +x", "1+", "1 + ", "", "   ", "(", "(1+x", "(1+x))", "()",
    "x2", "2x3", "1 2", "1 23", "x*", "*x", "x/", "1/0", "1/(x-x)", "0/(1-x)",
    "0*(1/(1-x))", "(1/(1-x))^0", "0^0", "0^2", "0^-1", "(1+x)^0",
    "1/(1-x)", "x/(1-x-x^2)", "x^3*(1/2)/(2 - 2/3x - 1/2x^2)",
    "(1 + 2x - 3x^2)/(2 - x + x^3)", "x^-2*(1/2 - 3x + 5/3x^2)/(2 + x - 4/3x^2 + x^3)",
    "(1 + x + x^2 + x^3 + x^4 + x^5)/(3 - x)", "(1+x)^-2", "(1+x)^3 - (1-x)^3",
    "1/(1-x) + 1/(1-2x)", "1/(1-x) - 1/(1-x)", "1/(1/(1-x) - 1/(1-x))",
    "1/(1-x) * (1-x)", "(1-x)/(1-x)", "(x^2 + x^5)/(x - x^3)", "1 + x^100000000",
    "(1 + x^100000000)/(1-x)", "x^100000000/(1-x)", "1/(1 - x^50)",
    "(1+x)^10001", "(1+x)^-10001", "x^10001", "(2x)^-3", "-(1+x)", "--(1+x)",
    "x * x^-5", "1/x", "1/(2x^3)", "(1+x)*(1-x)", "2*x*(1+x)^2",
    "(" * 100 + "1-x" + ")" * 100, "(" * 101 + "x" + ")" * 101,
    "1 +\tx\n", " 1+x ", "３x^２", "1_000", "x^1_0", "1.5", "x^+2",
]


@pytest.mark.parametrize("side", [Side.BELOW, Side.ABOVE, Side.FINITE])
def test_hand_written_texts_match_the_reference(side):
    for text in TEXTS:
        for precision in (1, 4, 16):
            assert_same_as_reference(text, side, precision)
    assert_same_as_reference("1/(1-x)", side, 0)
    assert_same_as_reference("(1+x)^-1", side, 0)
    assert_same_as_reference("1/(3-x)", side, 2000)
    assert_same_as_reference("(1 - 2x + x^5)/(1 - x - x^2 + 3x^40 - x^70)", side, 200)
    # a divisor of more than 20 terms: Newton iteration, then one product
    long = " + ".join(f"{k % 4 + 1}/{k % 3 + 1}x^{k}" for k in range(25))
    assert_same_as_reference(f"(1 - 2x + 3x^90)/({long})", side, 100)


def test_an_exact_polynomial_builds_one_series(monkeypatch):
    built = []
    init = LaurentSeries.__init__

    def spy(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(LaurentSeries, "__init__", spy)
    for n in (10, 1000):
        text = " + ".join(f"{k + 1}/{k + 2}x^{k}" for k in range(n))
        for whole in (text, f"-({text}) - 3x^{n} * (x - 2)", f"({text}) * ({text})"):
            built.clear()
            s = parse(whole)
            assert len(built) == 1 and s.exact
        assert len(parse(text).coeffs) == n


def test_division_of_exact_values_is_one_long_division(monkeypatch):
    calls = []
    real = series.dense.recip

    def spy(u, n, p, num=None):
        calls.append(num is not None)
        return real(u, n, p, num)

    monkeypatch.setattr(series.dense, "recip", spy)
    s = parse("x^3*(1/2)/(2 - 2/3x - 1/2x^2)", Side.ABOVE, 64)
    assert calls == []  # pending: the division waits for the first read
    s.coeffs
    assert calls == [True]
    assert s == ref_parse("x^3*(1/2)/(2 - 2/3x - 1/2x^2)", Side.ABOVE, 64)
    assert (s.side, s.lo, s.hi) == (Side.ABOVE, -63 + 3 - 2, 3 - 2)


def test_other_quotients_divide_through_recip(monkeypatch):
    # a quotient past _fits is the dividend times recip of the divisor, one
    # expansion and no ratio (a sparse dividend among them), and a one-term
    # divisor inverts exactly, with no expansion
    calls = []
    real = series.dense.recip

    def spy(u, n, p, num=None):
        calls.append(n)
        return real(u, n, p, num)

    monkeypatch.setattr(series.dense, "recip", spy)
    cases = [(text, side, 1) for text in ("(x^5000+1)/(1-x)", "(1+x)^40/(1-x-x^2)")
             for side in (Side.BELOW, Side.ABOVE)]
    cases += [("(1+x)/(2x)", Side.ABOVE, 0), ("x^3*(1+x)/(3x^-2)", Side.ABOVE, 0)]
    for text, side, divisions in cases:
        calls.clear()
        s = parse(text, side, 16)
        assert len(calls) == divisions and s._ratio is None, text
        want = ref_parse(text, side, 16)
        assert (s.side, s.lo, s.hi, s.coeffs) == (want.side, want.lo, want.hi, want.coeffs)


@pytest.mark.parametrize("side", [Side.BELOW, Side.ABOVE])
def test_one_term_divisors_match_the_reference(side):
    # a quotient by c x^e, the sign on either part, of an exact or inexact
    # dividend, chained, and by a divisor with no term
    for text in ("(1+x)/(2x)", "x^3*(1+x)/(3x^-2)", "(1-x)/(-3/2x^2)", "(2/3 - 4x^5)/(-4/6x^-1)",
                 "0/(5x)", "x/(7)", "(1+x)/(2x)/(-3x^2)", "(1/(1-x))/(2x)", "1/(0x)"):
        assert outcome(parse, text, side, 8) == outcome(ref_parse, text, side, 8), text


def test_zero_and_monomial_divisors_keep_their_errors():
    with pytest.raises(ZeroSeriesError):
        parse("(1+x)/(x-x)")
    with pytest.raises(ValueError, match="precision must be at least 1"):
        parse("(1+x)/(1-x)", precision=0)
    assert parse("(1+x)/(2x)", precision=0) == LaurentSeries.from_terms(
        {-1: Fraction(1, 2), 0: Fraction(1, 2)})


def test_a_quotient_of_exact_values_builds_no_fraction(monkeypatch):
    # the pairs reach the long division as integers, and its output is the
    # series' working form: no Fraction exists until the result is read
    made = []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    text = "x^-1*(1/2 - 5/2x + x^2)/(-1 + 5/3x - x^2 + x^3)"
    for side in (Side.BELOW, Side.ABOVE):
        monkeypatch.setattr(Fraction, "__new__", spy)
        s = parse(text, side, 32)
        monkeypatch.undo()
        assert made == [] and not s.exact
        assert_same_as_reference(text, side, 32)


def _sum_by_halves(terms: list) -> LaurentSeries:
    # the sum of the monomials (e, c) by add, half against half
    if len(terms) == 1:
        return monomial(*terms[0][::-1])
    return add(_sum_by_halves(terms[:len(terms) // 2]),
               _sum_by_halves(terms[len(terms) // 2:]))


def test_long_sums_over_distinct_denominators_stay_linear(monkeypatch):
    # a sum adds pairs and takes no common denominator: the one math.lcm is
    # the constructor's, whatever the number of terms (a parser that
    # rescaled one common denominator per term took 3.2 s at n = 4000)
    for n in (4000, 16000):
        terms = [(k, Fraction(k + 1, k + 2)) for k in range(n)]
        text = " + ".join(f"{k + 1}/{k + 2}x^{k}" for k in range(n))
        calls = []
        lcm = math.lcm

        def spy(*args):
            calls.append(len(args))
            return lcm(*args)

        monkeypatch.setattr(math, "lcm", spy)
        s = parse(text)
        monkeypatch.undo()
        assert calls == [n]
        # against add at n = 4000, and against the constructor at 16000,
        # where add spends seconds in the gcd that normalizes a sum's form
        want = _sum_by_halves(terms) if n == 4000 else LaurentSeries.from_terms(terms)
        assert (s.side, s.lo, s.hi, s._form) == (want.side, want.lo, want.hi, want._form)


# texts where integer pairs differ from Fractions: pairs not in lowest terms
# (the power of 6291456/3 = 2^21 passes the bit budget only once reduced),
# zero numerators, negative monomial divisors, terms that cancel (read
# afterwards as a divisor, a base, a dividend or a factor), and whitespace
# at each point where tokens glue into one monomial
EDGE_TEXTS = [
    "4/6x", "(4/6x)^-3", "(-4/6)^-2", "(6291456/3)^48000", "(6291456/3)^-48000",
    "(-12582912/6x)^-48000", "(4/6x^2)^0", "(1+x)^2/(2/4)", "3/9x^2 * (15/10 - 6/4x)",
    "(1/6 + 1/10x) * (1/15 - 1/6x + 2/4x^2)", "1/6x + 1/10x + 1/15x", "(4/6 + 2/6x)/(3/9 - 6/9x)",
    "0/3x", "0x^5 + 1", "0/3x^2 * (1+x)", "(0x^5 + 1)/(1 - x)", "1/(0/3x)",
    "(1+x)/(-2/3x^2)", "(1/(1-x))/(-2/3x^2)", "(1+x)/(-2/3x^2)^3", "(1+x)/(-2/3x^2)^-3",
    "x/(-1)", "(1+x)/(-4/6x)", "1/(-2/3x)^-2", "(1/(1-x))/(-4/6x^-1)",
    "1/2x + 1/3x - 5/6x", "1/(1/2x + 1/3x - 5/6x)", "(1/2x + 1/3x - 5/6x)^-2",
    "(1/2x + 1/3x - 5/6x)^0", "(1/2x + 1/3x - 5/6x)/(1-x)", "(1/2x + 1/3x - 5/6x)*(1/(1-x))",
    "1 + 1/2x + 1/3x - 5/6x", "(1 + 1/2x + 1/3x - 5/6x)^-2", "(1/(1-x)) + 1/2x - 1/2x",
    "2x^ - 3", "2 /3x", "2x ^3", "2x^3^2", "2/ 3x", "2x ^-3", "2 x^3", "2x^ -3", "2/3 x",
    "2/3x ^2", "(2x^3) ^ 2", "2x^3 ^-2/(1 - x)",
]


@pytest.mark.parametrize("side", [Side.BELOW, Side.ABOVE, Side.FINITE])
def test_integer_pairs_match_the_reference_at_the_edges(side):
    for text in EDGE_TEXTS:
        for precision in (1, 16):
            assert_same_as_reference(text, side, precision)
            try:
                s = parse(text, side, precision)
            except Exception:
                continue  # the reference raised the same
            # the form the bit budget reads: lowest terms, a positive denominator
            assert s._form == ref_parse(text, side, precision)._form, text
            xs, den, _ = s._form
            assert den > 0 and math.gcd(den, *(xs.values() if type(xs) is dict else xs)) == 1
