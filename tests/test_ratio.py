"""Series that carry a ratio: the same outputs as their expansions.

A series parsed from a quotient, or made by `recip` of an exact polynomial,
carries its numerator and denominator, and the kernels and sums pass them
on.  The
ratio changes only how the known coefficients are computed: every operation
on operands that carry one must give the side, window, coefficients and
exception of the same operation on copies rebuilt without it, through
`LaurentSeries.truncated`.  The operands are rational functions over Q,
GF(7) and GF(2^31-1) on both sides, with orders +-1 and +-2, some of them
past the degree bound, where no ratio is kept.  At large precision the
ratio turns the composition of two quotients into a few short products and
one division; those cases run as processes under a time budget and against
their closed forms.  Skipped when hypothesis is not installed.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from biriordan import dense  # noqa: E402
from biriordan.errors import ComputationError  # noqa: E402
from biriordan.field import PrimeFieldElement  # noqa: E402
from biriordan.riordan import apply, inverse, matmul, riordan  # noqa: E402
from biriordan.series import (  # noqa: E402
    LaurentSeries,
    Side,
    add,
    compose,
    compositional_inverse,
    mul,
    neg,
    parse,
    power,
    recip,
    substitute_reciprocal,
)
from biriordan.window import extract  # noqa: E402
from test_cli import _run_limited  # noqa: E402

FIELDS = (0, 7, 2**31 - 1)
SIDES = (Side.BELOW, Side.ABOVE)


def _scalar(draw, p: int, nonzero: bool):
    if p:
        return PrimeFieldElement(draw(st.integers(1 if nonzero else 0, p - 1)), p)
    top = draw(st.integers(1, 5)) * draw(st.sampled_from([-1, 1])) if nonzero \
        else draw(st.integers(-5, 5))
    return Fraction(top, draw(st.integers(1, 3)))


def _text(terms: dict) -> str:
    return " + ".join(f"{c.numerator}/{c.denominator}x^{e}" for e, c in terms.items() if c)


@st.composite
def _rational(draw, p: int, side: Side, order: int, prec: int):
    """x^order N/D expanded on side (N(1/x), D(1/x) above) to prec
    coefficients: N and D have nonzero ends; over Q either parsed from text
    or made as mul(N, recip(D)).  A long N passes the degree bound."""
    step = -1 if side is Side.ABOVE else 1
    top = prec + draw(st.integers(0, 3)) if draw(st.integers(0, 5)) == 0 \
        else draw(st.integers(0, 2))
    num = {order + step * i: _scalar(draw, p, i in (0, top)) for i in range(top + 1)}
    low = draw(st.integers(1, 3))
    den = {step * i: _scalar(draw, p, i in (0, low)) for i in range(low + 1)}
    if not p and draw(st.booleans()):
        return parse(f"({_text(num)})/({_text(den)})", side, prec)
    return mul(LaurentSeries.from_terms(num), recip(LaurentSeries.from_terms(den), side, prec))


def plain(s: LaurentSeries) -> LaurentSeries:
    """The same value without a ratio (an exact value stays as it is)."""
    return s if s.exact else LaurentSeries.truncated(s.coeffs, s.side, s.lo, s.hi)


def plain_matrix(m):
    return riordan(plain(m.alpha), plain(m.omega), m.side, m.precision)


def outcome(call):
    """What call() gives: a series, a matrix or a block by its contents (side,
    window, coefficients), or the type and message of what it raised."""
    try:
        value = call()
    except Exception as exc:  # the exception is part of the outcome
        return type(exc), str(exc)
    if isinstance(value, LaurentSeries):
        return value.side, value.exact, value.lo, value.hi, value.coeffs
    return value


@st.composite
def _operands(draw, count: int = 2):
    """(p, side, prec, operands): rational operands on one side, the first
    of order +-1 or +-2 (an inner series), sometimes one made by a kernel
    that passes its ratio on."""
    p, side = draw(st.sampled_from(FIELDS)), draw(st.sampled_from(SIDES))
    prec = draw(st.sampled_from([1, 2, 5, 16, 40, 64]))
    ops = [draw(_rational(p, side, draw(st.sampled_from([1, -1, 2, -2])), prec))]
    ops += [draw(_rational(p, side, draw(st.integers(-2, 2)), prec)) for _ in range(count - 1)]
    made = draw(st.sampled_from(["none", "mul", "recip", "power", "compose", "flip",
                                 "add", "neg"]))
    a, b = ops[-2:] if count > 1 else (ops[0], ops[0])
    if made == "mul":
        ops[-1] = mul(a, b)
    elif made == "recip" and not a.is_zero():
        ops[-1] = recip(a, side, prec)
    elif made == "power":
        ops[-1] = power(b, draw(st.sampled_from([-2, 2, 3])), side, prec)
    elif made == "compose":
        try:
            ops[-1] = compose(b, a, prec, side)
        except ComputationError:  # a refusal leaves b in place
            pass
    elif made == "flip":
        ops[-1] = substitute_reciprocal(substitute_reciprocal(b))
    elif made == "add":  # a, or an exact polynomial, plus b
        step = -1 if side is Side.ABOVE else 1
        exps = draw(st.sets(st.integers(-2, 3), min_size=1, max_size=3))
        ops[-1] = add(a if draw(st.booleans()) else LaurentSeries.from_terms(
            {step * e: _scalar(draw, p, True) for e in exps}), b)
    elif made == "neg":
        ops[-1] = neg(b)
    return p, side, prec, ops


def _assert_same(call, ops):
    assert outcome(lambda: call(*ops)) == outcome(lambda: call(*map(plain, ops)))


@settings(max_examples=150, deadline=None)
@given(args=_operands(2), j=st.integers(-4, 4))
def test_series_operations_match_their_expansions(args, j):
    _, side, prec, (a, b) = args
    _assert_same(mul, (a, b))
    _assert_same(add, (a, b))
    _assert_same(lambda s: recip(s, side, prec), (b,))
    _assert_same(lambda s: power(s, j, side, prec), (b,))
    _assert_same(lambda s: substitute_reciprocal(s), (b,))
    for chi, omega in ((b, a), (a, b), (b, substitute_reciprocal(a))):
        _assert_same(lambda c, w: compose(c, w, prec, side), (chi, omega))
    _assert_same(lambda w: compositional_inverse(w, prec), (a,))
    _assert_same(lambda w: compositional_inverse(w, prec), (substitute_reciprocal(a),))


@settings(max_examples=100, deadline=None)
@given(args=_operands(4), rows=st.integers(-6, 4))
def test_matrix_operations_match_their_expansions(args, rows):
    _, side, prec, (omega, alpha, chi, beta) = args
    m = riordan(alpha, omega, side, prec)
    n = riordan(beta, omega, side, prec)
    for call, mats, vec in ((matmul, (m, n), ()), (matmul, (n, m), ()),
                            (apply, (m,), (chi,)), (inverse, (m,), ())):
        got = outcome(lambda: call(*mats, *vec))
        want = outcome(lambda: call(*map(plain_matrix, mats), *map(plain, vec)))
        if isinstance(got, tuple):
            assert got == want
        else:
            assert outcome(lambda: got.alpha) == outcome(lambda: want.alpha)
            assert outcome(lambda: got.omega) == outcome(lambda: want.omega)
            assert got.side is want.side
    block = ((rows, rows + 5), (-2, 3))
    assert outcome(lambda: extract(m, *block)) == outcome(lambda: extract(plain_matrix(m), *block))


def test_sparse_homogeneous_sums_compose_as_their_expansions():
    # 1/(1-x^5) composed with x^30/(1-x) knows over 300 coefficients, and
    # each sum over k of c_k Y^k Do^(5-k) is mostly gaps: a sparse sum
    # still gives a ratio, and the same series as the expansions; so does
    # the composition with omega's flip, bounded above
    for p in FIELDS:
        one = PrimeFieldElement(1, p) if p else Fraction(1)

        def quotient(num, den):
            return mul(LaurentSeries.from_terms({e: c * one for e, c in num.items()}),
                       recip(LaurentSeries.from_terms({e: c * one for e, c in den.items()}),
                             Side.BELOW, 200))

        chi = quotient({0: 1}, {0: 1, 5: -1})
        for omega in (quotient({30: 1}, {0: 1, 1: -1}), quotient({30: 2}, {0: 1, 3: 1})):
            for inner in (omega, substitute_reciprocal(omega)):
                assert compose(chi, inner, 200)._ratio is not None
                _assert_same(lambda c, w: compose(c, w, 200), (chi, inner))


def test_ratios_are_made_and_passed_on_below_the_bound():
    # a quotient and recip of an exact polynomial carry one; each kernel
    # passes it on; a user-truncated series, a reversion and a value past
    # the bound carry none
    q = parse("1/(1-x)", precision=8)
    w = parse("x/(1-2x)", precision=8)
    assert q._ratio and w._ratio and recip(parse("1-x-x^2"), None, 8)._ratio
    for made in (mul(q, w), recip(w, None, 8), power(q, 3), power(w, -2),
                 compose(q, w, 8), substitute_reciprocal(q), power(parse("1-x-x^2"), -3)):
        assert made._ratio is not None
    assert plain(q)._ratio is None
    assert compositional_inverse(w, 8)._ratio is None
    assert mul(plain(q), w)._ratio is None
    assert parse("(1+x^9)/(1-x)", precision=8)._ratio is None
    assert parse("(1+x^7)/(1-x)", precision=8)._ratio is not None
    # the ratio gives the coefficients past the window too: (1-2x)/(1-3x)
    num, den = compose(q, w, 8)._ratio
    assert dense.to_coeffs(*dense.recip(den, 30, 0, num), 0, 0) == \
        {k: Fraction(3 ** (k - 1) if k else 1) for k in range(30)}


def test_sums_carry_the_ratio_of_their_terms():
    # x/(1-2x) + x^2 = (x+x^2-2x^3)/(1-2x), below and through the flip;
    # 1/(1-x) - 1 = x/(1-x) from past the cancelled constant; neg gives
    # -N/D; a sum whose window cancels, a value minus itself and a sum past
    # the bound carry none
    w = parse("x/(1-2x)", precision=8)
    want = (([1, 1, -2], 1), ([1, -2], 1))
    assert add(w, parse("x^2"))._ratio == want
    assert parse("x/(1-2x)+x^2", precision=8)._ratio == want
    assert add(parse("x^-1/(1-2x^-1)", Side.ABOVE, 8), parse("x^-2"))._ratio == want
    d = add(parse("1/(1-x)", precision=8), neg(LaurentSeries.one()))
    assert (d.lo, d.hi, d._ratio) == (1, 7, (([1], 1), ([1, -1], 1)))
    assert neg(w)._ratio == (([-1], 1), ([1, -2], 1))
    assert neg(plain(w))._ratio is None
    gone = add(parse("1/(1-x)", precision=3), parse("-1-x-x^2"))
    assert gone.count_from_order() == 0 and gone._ratio is None
    assert add(w, neg(w))._ratio is None
    assert add(w, parse("x^20"))._ratio is None


def test_a_sum_composes_as_its_quotient_at_large_precision():
    outs = [_run_limited("series", "compose", "--chi", "1/(1-x)", "--omega", omega,
                         "--prec", "2000", budget=2.0)
            for omega in ("x/(1-2x)+x^2", "(x+x^2-2x^3)/(1-2x)")]
    assert outs[0] == outs[1] and outs[0].endswith("side: bounded-below\n")


def test_copy_pickle_and_equality_ignore_the_ratio():
    for s in (parse("1/(1-2x)", precision=7), parse("1/(1-2x)", Side.ABOVE, 7),
              recip(LaurentSeries.from_terms({0: PrimeFieldElement(3, 7),
                                              1: PrimeFieldElement(1, 7)}), None, 5)):
        assert s._ratio is not None
        bare = plain(s)
        assert s == bare and hash(s) == hash(bare)
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin._ratio is None and twin._walked is None
            assert twin == s and hash(twin) == hash(s)
            assert (twin.side, twin.lo, twin.hi, twin.coeffs) == (s.side, s.lo, s.hi, s.coeffs)


# -- large precision: closed forms, a time budget and short products -------------------

COMPOSITIONS = (("1/(1-x)", "x/(1-2x)", 3000), ("1/(1-x)", "x/(1+x^2)", 3000),
                ("1/(1-x)", "x/(1-x-x^2)", 10000))


def _terms(text: str) -> dict:
    """{exponent: coefficient} of the printed series c + c x + c x^k ..."""
    body = text.split(" + O(x^")[0].replace(" - ", " + -").split(" + ")
    out = {}
    for term in body:
        head, _, exp = term.partition("x")
        e = 0 if not _ else int(exp[1:] or 1) if exp else 1
        out[e] = int(head + "1" if head in ("", "-") else head)
    return out


def _closed_forms(prec: int):
    # 1/(1-x) composed with each omega, its first prec coefficients
    pow3 = {0: 1, **{k: 3 ** (k - 1) for k in range(1, prec)}}
    period = [1, 1, 0, -1, -1, 0]  # (1+x^2)/(1-x+x^2) from x on
    sixth = {0: 1, **{k: period[(k - 1) % 6] for k in range(1, prec)}}
    c = [1, 1, 2]  # (1-x-x^2)/(1-2x-x^2): c_k = 2 c_(k-1) + c_(k-2) from k = 3
    while len(c) < prec:
        c.append(2 * c[-1] + c[-2])
    return pow3, sixth, dict(enumerate(c))


def test_compositions_of_quotients_at_large_precision_are_closed_forms():
    for (chi, omega, prec), want in zip(COMPOSITIONS, (
            _closed_forms(3000)[0], _closed_forms(3000)[1], _closed_forms(10000)[2])):
        out = _run_limited("series", "compose", "--chi", chi, "--omega", omega,
                           "--prec", str(prec), budget=2.0)
        text, side = out.splitlines()
        assert side == "side: bounded-below"
        assert text.endswith(f" + O(x^{prec})")
        assert _terms(text) == {e: c for e, c in want.items() if c}


def test_a_product_of_quotients_at_large_precision_is_its_closed_form():
    # R(1/(1-x), x/(1-x)) R(1/(1+x), x/(1+2x)) = R(1, x/(1+x)): 1/(1+x)
    # composed with x/(1-x) is 1-x
    out = _run_limited("matrix", "mul", "--alpha", "1/(1-x)", "--omega", "x/(1-x)",
                       "--beta", "1/(1+x)", "--chi", "x/(1+2x)", "--prec", "2000", budget=2.0)
    alpha, omega = out.splitlines()[:2]
    assert alpha == "alpha: 1 + O(x^2000)"
    assert omega.startswith("omega: ") and omega.endswith(" + O(x^2000)")
    assert _terms(omega[len("omega: "):]) == {k: (-1) ** (k - 1) for k in range(1, 2000)}


def test_compositions_of_quotients_make_only_short_products(monkeypatch):
    longest = []
    real = dense.product

    def spy(xa, xb, n):
        longest.append(max(len(xa), len(xb)))
        return real(xa, xb, n)

    monkeypatch.setattr(dense, "product", spy)
    cases = [(parse(chi, precision=prec), parse(omega, precision=prec), prec)
             for chi, omega, prec in COMPOSITIONS]
    # the two compositions of the matrix product above
    omega = parse("x/(1-x)", precision=2000)
    cases += [(parse("x/(1+2x)", precision=2000), omega, 2000),
              (parse("1/(1+x)", precision=2000), omega, 2000)]
    longest.clear()
    for chi, omega, prec in cases:
        assert compose(chi, omega, prec)._ratio is not None
    assert longest and max(longest) <= 64
