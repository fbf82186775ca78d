"""Pending ratios: a kernel result that is a quotient N/D divides when read.

`recip` of an exact polynomial, `mul` with a pending factor, `power` and the
composition kernel on ratios, `substitute_reciprocal` of a pending value and
`parse` of a quotient return a series whose side, window, field and ratio
are set and whose form, one long division (`dense.recip`), is built on the
first read; a read through a cut divides only through it.  These tests
count that division, and check each pending value against its forced twin:
the same value built again and read at once, and the copy of that twin
rebuilt from its coefficients alone.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from biriordan import dense
from biriordan.errors import ComputationError
from biriordan.field import PrimeFieldElement
from biriordan.riordan import riordan
from biriordan.series import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    LaurentSeries,
    Side,
    _window,
    compose,
    mul,
    parse,
    power,
    recip,
    substitute_reciprocal,
)
from biriordan.window import extract

GF = 2**31 - 1
FIELDS = (0, 7, GF)
SIDES = (Side.BELOW, Side.ABOVE)


def count_divisions(monkeypatch) -> list:
    """The count of each long division dense.recip makes from now on."""
    calls = []
    real = dense.recip

    def spy(u, n, p, num=None):
        calls.append(n)
        return real(u, n, p, num)

    monkeypatch.setattr(dense, "recip", spy)
    return calls


def quotient(num: dict, den: dict, side: Side, prec: int) -> LaurentSeries:
    return mul(LaurentSeries.from_terms(num), recip(LaurentSeries.from_terms(den), side, prec))


def plain(s: LaurentSeries) -> LaurentSeries:
    """s rebuilt from its coefficients: no ratio, its window found anew."""
    return LaurentSeries.truncated(s.coeffs, s.side, s.lo, s.hi)


def outcome(call):
    """A value by its side, window, coefficients and their types, or the
    type and message of what call() raised."""
    try:
        s = call()
    except (ComputationError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return s.side, s.exact, s.lo, s.hi, s.coeffs, [type(c) for c in s.coeffs.values()]


@pytest.mark.parametrize("side", SIDES)
def test_a_composition_of_quotients_divides_once_when_read(monkeypatch, side):
    # chi of order +-1 and omega of order 1 over GF(2^31-1), each
    # mul(num, recip(den)) on side: the composition is its ratio until
    # printed, then one division
    f = lambda n: PrimeFieldElement(n, GF)  # noqa: E731
    s = 1 if side is Side.BELOW else -1  # the step away from the order
    terms = (({s: f(3), 2 * s: f(5)}, {0: f(1), s: f(GF - 2)}),
             ({1: f(1), 1 + s: f(7)}, {0: f(2), s: f(1), 2 * s: f(9)}))
    want = compose(*(plain(quotient(n, d, side, 40)) for n, d in terms), 40)
    calls = count_divisions(monkeypatch)
    got = compose(*(quotient(n, d, side, 40) for n, d in terms), 40)
    assert calls == [] and got._pending
    text = str(got)
    assert calls == [40]
    assert text == str(want) and got == want


def test_a_pending_value_and_its_flip_share_one_division(monkeypatch):
    rng = random.Random(29)
    calls = count_divisions(monkeypatch)
    for p in FIELDS:
        for side in SIDES:
            s = 1 if side is Side.BELOW else -1
            num = {s * i: _scalar(rng, p, True) for i in range(3)}
            den = {s * i: _scalar(rng, p, True) for i in range(3)}
            a = quotient(num, den, side, 20)
            flip = substitute_reciprocal(a)
            back = substitute_reciprocal(flip)
            assert calls == [] and a._pending and flip._pending and back._pending
            first, *rest = rng.sample([a, flip, back], 3)
            str(first)
            for v in rest:
                str(v)
            assert calls == [20]
            assert a._form is flip._form is back._form
            assert flip == substitute_reciprocal(plain(a)) and back == a
            calls.clear()


def test_a_pending_value_shifted_by_an_exact_power_of_x_shares_its_division(monkeypatch):
    # mul by the exact x^k (the exact 1 among them), on either side of the
    # product and after a flip, reads the pending factor's one division; a
    # monomial c x^k with c != 1 is a product of its own
    rng = random.Random(31)
    calls = count_divisions(monkeypatch)
    for p in FIELDS:
        one = PrimeFieldElement(1, p) if p else Fraction(1)
        for side in SIDES:
            s = 1 if side is Side.BELOW else -1
            num = {s * i: _scalar(rng, p, True) for i in range(3)}
            den = {s * i: _scalar(rng, p, True) for i in range(3)}
            a = quotient(num, den, side, 20)
            shifts = [mul(LaurentSeries.from_terms({k: one}), a) for k in (0, 3, -2)]
            shifts += [mul(a, LaurentSeries.from_terms({0: one})),
                       mul(LaurentSeries.from_terms({1: one}), substitute_reciprocal(a))]
            scaled = mul(LaurentSeries.from_terms({1: one + one}), a)
            assert calls == [] and all(v._pending for v in shifts + [scaled])
            for v in shifts:
                str(v)
            assert calls == [20] and all(v._form is a._form for v in shifts)
            str(scaled)
            assert calls == [20, 20]
            twin = plain(a)
            for v, k, b in zip(shifts, (0, 3, -2, 0, 1), (a, a, a, a, substitute_reciprocal(twin))):
                want = mul(LaurentSeries.from_terms({k: one}), b if b is not a else twin)
                assert outcome(lambda: v) == outcome(lambda: want)
            calls.clear()


def _scalar(rng, p: int, nonzero: bool):
    if p:
        return PrimeFieldElement(rng.randrange(1 if nonzero else 0, p), p)
    top = rng.randint(1, 5) * rng.choice([-1, 1]) if nonzero else rng.randint(-5, 5)
    return Fraction(top, rng.randint(1, 3))


def _poly(rng, p: int, order: int, degree: int, side: Side) -> dict:
    # x^order times a polynomial of the degree with nonzero ends, in 1/x above
    step = -1 if side is Side.ABOVE else 1
    return {step * (order + i): _scalar(rng, p, i in (0, degree)) for i in range(degree + 1)}


def _builders(rng, p: int, side: Side, prec: int) -> list:
    """(name, build): each build() makes the same value afresh from exact
    polynomials, through the kernels that leave a ratio pending."""
    def q(order, degree=None):
        num = _poly(rng, p, order, rng.randint(0, 3) if degree is None else degree, side)
        den = _poly(rng, p, 0, rng.randint(1, 3), side)
        return lambda: quotient(num, den, side, prec)

    den = _poly(rng, p, 0, rng.randint(1, 3), side)
    a, b, inner = q(rng.randint(-2, 2)), q(rng.randint(-2, 2)), q(rng.choice([1, 2]))
    lead = _poly(rng, p, rng.randint(-2, 2), rng.randint(0, 2), side)
    j = rng.choice([2, 3, -1, -2])
    return [
        ("recip", lambda: recip(LaurentSeries.from_terms(den), side, prec)),
        ("quotient", a),
        ("mul", lambda: mul(a(), b())),
        ("exact times", lambda: mul(LaurentSeries.from_terms(lead), a())),
        ("recip of a quotient", lambda: recip(a(), side, prec)),
        ("power", lambda: power(a(), j, side, prec)),
        ("compose", lambda: compose(a(), inner(), prec)),
        ("flip", lambda: substitute_reciprocal(a())),
    ]


def test_pending_values_match_their_forced_twins():
    rng = random.Random(2029)
    pending = set()
    for p in FIELDS:
        for side in SIDES:
            for prec in (1, 3, 8, 20):
                for name, build in _builders(rng, p, side, prec):
                    try:
                        r = build()
                    except ComputationError:  # a composition the sides refuse
                        continue
                    if not r._pending:
                        continue
                    pending.add(name)
                    where = (name, p, side, prec)
                    twin = build()
                    twin.coeffs  # forced
                    ref = plain(twin)
                    # the window, read while pending, is the one the
                    # coefficients give
                    assert (r.side, r.exact, r.lo, r.hi) == \
                        (ref.side, ref.exact, ref.lo, ref.hi), where
                    assert r._pending and r._ratio == twin._ratio
                    probes = [lambda v, j=j: power(v, j, side, prec)
                              for j in (2, -1, -3, MAX_EXPONENT + 1)]
                    probes += [lambda v, s=s: recip(v, s, prec) for s in SIDES]
                    for probe in probes:
                        fresh = build()
                        assert fresh._pending
                        got = outcome(lambda: probe(fresh))
                        assert got == outcome(lambda: probe(twin)), where
                        assert got == outcome(lambda: probe(ref)), where
                    assert r.coeffs == twin.coeffs == ref.coeffs, where
                    assert [type(r[e]) for e in range(r.lo, r.hi + 1)] == \
                        [type(ref[e]) for e in range(r.lo, r.hi + 1)], where
                    assert build() == twin and hash(build()) == hash(twin) == hash(ref)
                    assert copy.copy(build()) == twin and copy.deepcopy(build()) == twin
                    assert pickle.loads(pickle.dumps(build())) == twin
    assert pending == {name for name, _ in _builders(rng, 0, Side.BELOW, 8)}, pending


def test_the_exponent_budget_of_a_pending_ratio_is_that_of_its_expansion():
    # 1/(c + x) below: over Q with c or 1/c of 201 bits and one term in its
    # window, c^-j passes MAX_POWER_BITS from |j| = edge on; with three terms, or
    # over GF(p), only |j| past MAX_EXPONENT on several terms is refused.
    # Far from both bounds the check leaves the value pending
    big, edge = Fraction(2**200 + 1), -(-MAX_POWER_BITS // 200)
    one, f = Fraction(1), lambda n: PrimeFieldElement(n, GF)  # noqa: E731
    cases = [(big, one, 1, [(edge - 1, False), (edge, True), (-edge, True), (2 * edge, True)]),
             (1 / big, one, 1, [(edge - 1, False), (-edge, True)]),  # the bits in D's den
             (big, one, 3, [(edge, False), (MAX_EXPONENT + 1, True), (-MAX_EXPONENT - 1, True)]),
             (Fraction(3), one, 1, [(MAX_EXPONENT + 1, False), (-MAX_EXPONENT - 1, False)]),
             (f(3), f(1), 1, [(MAX_EXPONENT + 1, False)]),
             (f(3), f(1), 4, [(MAX_EXPONENT, False), (-MAX_EXPONENT - 1, True)])]
    for c, unit, count, exponents in cases:
        def build():
            return recip(LaurentSeries.from_terms({0: c, 1: unit}), Side.BELOW, count)

        twin = build()
        twin.coeffs
        ref = plain(twin)
        for j, refused in exponents:
            fresh = build()
            assert fresh._pending
            got = outcome(lambda: power(fresh, j, Side.BELOW, count))
            assert got == outcome(lambda: power(ref, j, Side.BELOW, count)), (c, count, j)
            assert (got[0] is ValueError) == refused, (c, count, j)
        far = build()
        assert power(far, 1) is far and power(far, -1, Side.BELOW, count)._pending
        assert far._pending


# -- parsed quotients and reads through a cut ----------------------------------------


def _text(terms: dict) -> str:
    # the parser's text of an exact polynomial {exponent: Fraction}
    out = ""
    for e, c in terms.items():
        sign = "-" if c < 0 else "+"
        out += f" {sign} {abs(c.numerator)}/{c.denominator}x^{e}"
    return out.lstrip(" +")


def _assert_like_forced_twin(build, where, side: Side, prec: int) -> None:
    """build() is pending each time, and every observable of it equals that
    of its forced twin (built and read at once) and of that twin rebuilt
    from its coefficients."""
    r = build()
    twin = build()
    twin.coeffs  # forced
    ref = plain(twin)
    assert (r.side, r.exact, r.lo, r.hi) == (ref.side, ref.exact, ref.lo, ref.hi), where
    assert r._pending and r._ratio == twin._ratio, where
    probes = [lambda v, j=j: power(v, j, side, prec) for j in (2, -1, -3, MAX_EXPONENT + 1)]
    probes += [lambda v, s=s: recip(v, s, prec) for s in SIDES]
    for probe in probes:
        fresh = build()
        assert fresh._pending
        got = outcome(lambda: probe(fresh))
        assert got == outcome(lambda: probe(twin)) == outcome(lambda: probe(ref)), where
    assert r.coeffs == twin.coeffs == ref.coeffs, where
    assert [type(r[e]) for e in range(r.lo, r.hi + 1)] == \
        [type(ref[e]) for e in range(r.lo, r.hi + 1)], where
    assert build() == twin and hash(build()) == hash(twin) == hash(ref), where
    assert copy.copy(build()) == twin and copy.deepcopy(build()) == twin, where
    assert pickle.loads(pickle.dumps(build())) == twin, where


def test_a_parsed_quotient_is_pending_and_matches_its_forced_twin(monkeypatch):
    # parse divides nothing for an exact quotient within _fits: its value is
    # that of the same text read at once
    rng = random.Random(2030)
    calls = count_divisions(monkeypatch)
    for side in SIDES:
        for prec in (1, 2, 5, 16, 40, 64):
            for _ in range(3):
                # deg N + deg D <= prec: within _fits
                dd = rng.randint(1, min(3, prec))
                num = _poly(rng, 0, rng.randint(-2, 2), rng.randint(0, min(3, prec - dd)),
                            Side.BELOW)
                den = _poly(rng, 0, rng.randint(-1, 1), dd, Side.BELOW)
                text = f"({_text(num)})/({_text(den)})"
                calls.clear()
                assert parse(text, side, prec)._pending and calls == [], text
                _assert_like_forced_twin(lambda: parse(text, side, prec), text, side, prec)


def test_a_read_through_a_cut_divides_only_through_it(monkeypatch):
    # a pending value read through t < its count divides through t alone,
    # keeps the longest such division for the reads after it (its flip's
    # too) and leaves its form unbuilt; the first read of the whole window
    # divides once, over the whole count
    calls = count_divisions(monkeypatch)
    a = parse("(1+x)/(1-x-x^2)", Side.BELOW, 100)
    flip = substitute_reciprocal(a)
    assert calls == []
    head = _window(a, 10)
    assert calls == [10] and a._pending
    assert _window(a, 5)[0] == (head[0][0][:5], head[0][1])
    assert _window(flip, 8, True)[0][0] == head[0][0][:8]
    assert calls == [10] and a._pending and flip._pending
    longer = _window(a, 20)
    assert calls == [10, 20] and a._pending
    full = _window(a, 100)
    assert calls == [10, 20, 100] and not a._pending
    for (xs, den), _ in (head, longer):
        assert [Fraction(x, den) for x in xs] == [Fraction(x, full[0][1])
                                                   for x in full[0][0][:len(xs)]]
    assert flip._form is a._form and calls == [10, 20, 100]
    assert a == plain(a) and flip == substitute_reciprocal(plain(a))


def test_the_composition_reads_a_pending_chi_only_where_it_binds(monkeypatch):
    # chi of order 0 and omega of order 2: the first later chi_k binds only
    # while omega.hi + (k - 1) 2 < cap, so chi is read through k = 249 of
    # its 500 coefficients, and the composition stays pending
    texts = ("(1+x)/(1-x-x^2)", "x^2/(1-x)")
    want = compose(*(plain(parse(t, Side.BELOW, 500)) for t in texts), 500)
    calls = count_divisions(monkeypatch)
    got = compose(*(parse(t, Side.BELOW, 500) for t in texts), 500)
    assert calls == [250] and got._pending
    assert got == want and str(got) == str(want)
    assert calls == [250, 502]


@pytest.mark.parametrize("side", SIDES)
def test_a_positive_block_divides_only_through_its_rows(monkeypatch, side):
    # rows and columns 0..63 of R(1/(1-2x), x/(1-x-x^2)) (rows -63..0
    # above, where the columns run down), each parsed at 10000: parse
    # divides nothing, and the block reads each column only through its
    # rows, so no kernel asks for more than 130 coefficients
    rows = (0, 63) if side is Side.BELOW else (-63, 0)
    texts = ("1/(1-2x)", "x/(1-x-x^2)")
    want = extract(riordan(*(plain(parse(t, side, 200)) for t in texts), side, 200),
                   rows, (0, 63)).entries
    asked = []
    for name, at in (("recip", 1), ("product", 2)):  # the count each asks for
        def spy(*args, real=getattr(dense, name), at=at):
            asked.append(args[at])
            return real(*args)
        monkeypatch.setattr(dense, name, spy)
    m = riordan(*(parse(t, side, 10000) for t in texts), side, 10000)
    assert asked == []
    assert extract(m, rows, (0, 63)).entries == want
    assert asked and max(asked) <= 130, max(asked)


@pytest.mark.parametrize("side", SIDES)
def test_a_composition_shorter_than_the_inner_order_reads_no_tail(side):
    # chi of order 1 below and omega of order w >= 2 below (-w above, read
    # through its flip), each known for one coefficient: the composition
    # knows n = 1 < w of them, so it reads omega / x^w through n - w < 1
    # coefficients, which a pending omega gives as its expansion does
    s = 1 if side is Side.BELOW else -1
    for c, w in ((3, 2), (1, 3)):
        def build():
            return [parse(f"{c}x/(2-x)", Side.BELOW, 1), parse(f"x^{w * s}/(3-x^{s})", side, 1)]

        args = build()
        assert all(a._pending for a in args)
        want = compose(*map(plain, build()), 1)
        assert outcome(lambda: compose(*args, 1)) == outcome(lambda: want)
