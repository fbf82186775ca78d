"""The series kernels against sympy, an oracle that shares no code with
biriordan: reciprocals and compositions of random rational functions over Q
against sympy.series, compositional inverses against the reversion of
sympy's ring series, both on both sides (the bounded-above expansion of f(x)
is the expansion of f(1/y) in y = 1/x), and one block of a Riordan matrix.
Pending quotients over Q and GF(7), their reciprocals read through a cut,
their negations and negative-column blocks go against the truncated
products and inversions of sympy's ring series.  Every coefficient the
library certifies must be sympy's."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import (  # noqa: E402
    rs_mul,
    rs_pow,
    rs_series_inversion,
    rs_series_reversion,
)

from biriordan.field import PrimeFieldElement  # noqa: E402
from biriordan.riordan import riordan  # noqa: E402
from biriordan.series import (  # noqa: E402
    LaurentSeries,
    Side,
    _window,
    compose,
    compositional_inverse,
    mul,
    neg,
    parse,
    recip,
)
from biriordan.window import extract  # noqa: E402

X, Y = sympy.symbols("x y")
_, RX, RY = sympy.polys.rings.ring("x, y", sympy.QQ)


def random_poly(rng: random.Random, degree: int) -> dict:
    """{k: c} for a polynomial of the given degree with a nonzero constant."""
    terms = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(degree + 1)}
    terms[0] = terms[0] or Fraction(1)
    terms[degree] = terms[degree] or Fraction(-2, 3)
    return terms


def expr(terms: dict, var=X):
    return sum(sympy.Rational(c.numerator, c.denominator) * var**k for k, c in terms.items())


def exact(terms: dict, side: Side = Side.BELOW) -> LaurentSeries:
    # the polynomial in x, or in 1/x when above
    sign = -1 if side is Side.ABOVE else 1
    return LaurentSeries.from_terms({sign * k: c for k, c in terms.items()})


def expansion(f, var, top: int) -> dict:
    """{k: [var^k] f} for k < top, by sympy.series at 0 (one quotient of
    polynomials expands several times faster than a nested expression)."""
    g = sympy.series(sympy.cancel(f), var, 0, top).removeO()
    terms = (t.as_coeff_exponent(var) for t in sympy.Add.make_args(sympy.expand(g)))
    return {int(k): Fraction(int(c.p), int(c.q)) for c, k in terms if c}


def assert_certified(s: LaurentSeries, f) -> None:
    """Each coefficient s knows equals that of sympy's expansion of f (an
    expression in x) on s's side."""
    assert s.lo <= s.hi
    if s.side is Side.ABOVE:
        want = {-k: c for k, c in expansion(f.subs(X, 1 / Y), Y, 1 - s.lo).items()}
    else:
        want = expansion(f, X, s.hi + 1)
    for e in range(s.lo, s.hi + 1):
        assert s[e] == want.get(e, 0), (e, s, f)


def quotient(rng, side, prec, shift=0):
    """(series, expression) of x^shift p(x)/q(x), expanded on side, with x
    read as 1/x in p and q when above."""
    p, q = random_poly(rng, rng.randint(0, 2)), random_poly(rng, rng.randint(1, 2))
    var = 1 / X if side is Side.ABOVE else X
    s = mul(mul(exact(p, side), LaurentSeries.from_terms({shift: 1})),
            recip(exact(q, side), side, prec))
    return s, X**shift * expr(p, var) / expr(q, var)


def reversion(w: dict, top: int) -> dict:
    """{k: [y^k] r} for k < top, r the compositional inverse of the series
    w = {k: [x^k] w} of order 1, by sympy's ring series."""
    r = rs_series_reversion(sum(RX**k * c for k, c in w.items() if k < top), RX, top, RY)
    return {k: Fraction(int(c.numerator), int(c.denominator)) for (_, k), c in r.terms()}


@pytest.mark.parametrize("side", [Side.BELOW, Side.ABOVE])
def test_reciprocal_composition_and_inverse_match_sympy(side):
    rng = random.Random(91 if side is Side.BELOW else 92)
    for _ in range(2):
        prec = rng.choice([4, 6, 8, 10])
        q = random_poly(rng, rng.randint(1, 3))
        assert_certified(recip(exact(q, side), side, prec),
                         1 / expr(q, 1 / X if side is Side.ABOVE else X))
        # omega of order 1 on its side: x p(x)/q(x), or x p(1/x)/q(1/x)
        chi, chi_f = quotient(rng, side, prec)
        omega, omega_f = quotient(rng, side, prec, 1)
        assert_certified(compose(chi, omega, prec), chi_f.subs(X, omega_f))
        psi = compositional_inverse(omega, prec)
        top = psi.hi - psi.lo + 3
        if side is Side.BELOW:
            want = reversion(expansion(omega_f, X, top), top)
        else:
            # with W(y) = 1/omega(1/y) and P its inverse, psi(x) = 1/P(1/x)
            p = reversion(expansion(1 / omega_f.subs(X, 1 / Y), Y, top), top)
            want = {-k: c for k, c in expansion(1 / expr(p, Y), Y, top).items()}
        assert all(psi[e] == want.get(e, 0) for e in range(psi.lo, psi.hi + 1)), psi


def test_a_riordan_block_matches_sympy():
    rng = random.Random(93)
    alpha, alpha_f = quotient(rng, Side.BELOW, 8)
    omega, omega_f = quotient(rng, Side.BELOW, 8, 1)
    block = extract(riordan(alpha, omega, Side.BELOW, 8), (0, 5), (0, 3))
    for j in range(4):
        want = expansion(alpha_f * omega_f**j, X, 6)
        assert [row[j] for row in block.entries] == [want.get(i, 0) for i in range(6)]


# -- against sympy's ring series, over Q and GF(7) ------------------------------------


def ring_poly(rng, p: int, degree: int) -> dict:
    """{k: int} of a polynomial of the degree over Q (p = 0) or GF(p), its
    constant nonzero."""
    top = p - 1 if p else 4
    terms = {k: rng.randint(-top, top) for k in range(degree + 1)}
    for k in (0, degree):
        terms[k] = (terms[k] % p if p else terms[k]) or 1
    return terms


def library_quotient(num: dict, den: dict, shift: int, p: int, side: Side,
                     prec: int) -> LaurentSeries:
    """The library's pending x^shift N/D on side, x read as 1/x above: parsed
    over Q, a product with a reciprocal over GF(p)."""
    sign = -1 if side is Side.ABOVE else 1
    if not p:
        num, den = (" + ".join(f"{c}x^{sign * k}" for k, c in t.items()) for t in (num, den))
        return parse(f"x^{sign * shift}*({num})/({den})", side, prec)
    f = lambda terms: LaurentSeries.from_terms(  # noqa: E731
        {sign * k: PrimeFieldElement(c, p) for k, c in terms.items()})
    return mul(f({k + shift: c for k, c in num.items()}), recip(f(den), side, prec))


def ring_expansion(x, num: dict, den: dict, top: int):
    """N/D through x^(top-1) in sympy's ring of x."""
    n, d = (sum(c * x**k for k, c in t.items()) for t in (num, den))
    return rs_mul(n, rs_series_inversion(d, x, top), x, top)


def scalar(c, p: int):
    # the library's scalar of a coefficient of sympy's ring
    return PrimeFieldElement(int(c), p) if p else Fraction(int(c.numerator), int(c.denominator))


def assert_ring_certified(s: LaurentSeries, series, shift: int, p: int, top: int) -> None:
    """s's window lies inside what x^shift times the ring series through
    x^(top-1) knows (x read as 1/x above), and each coefficient s knows is
    that series' term."""
    sign = -1 if s.side is Side.ABOVE else 1
    assert (s.hi if sign > 0 else -s.lo) < shift + top, s
    want = {sign * (k + shift): c for (k,), c in series.terms()}
    for e in range(s.lo, s.hi + 1):
        assert s[e] == (scalar(want[e], p) if e in want else 0), (e, s)


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("side", [Side.BELOW, Side.ABOVE])
def test_pending_quotients_match_sympys_ring_series(p, side):
    # q = x^shift N/D, pending: its reciprocal read through a cut first (one
    # head division), then whole; neg q; and a block of the columns -c..-1
    # of R(q, x No/Do), which read 1/omega through the block's rows
    _, x = sympy.polys.rings.ring("x", sympy.GF(p) if p else sympy.QQ)
    rng = random.Random(95 + p + (side is Side.ABOVE))
    sign = -1 if side is Side.ABOVE else 1
    for _ in range(25):
        prec, shift = rng.randint(6, 20), rng.randint(-2, 2)
        top = prec + 2
        num, den = ring_poly(rng, p, rng.randint(0, 2)), ring_poly(rng, p, rng.randint(1, 2))
        q = library_quotient(num, den, shift, p, side, prec)
        assert q._pending
        series = ring_expansion(x, num, den, top)
        assert_ring_certified(neg(q), -series, shift, p, top)
        r = recip(q, side, prec)
        inverse = ring_expansion(x, den, num, top)
        (xs, d), _ = _window(r, rng.randint(1, prec - 1), side is Side.ABOVE)
        assert r._pending
        assert [Fraction(c, d) if not p else PrimeFieldElement(c, p) for c in xs] == \
            [scalar(inverse.coeff(x**i), p) for i in range(len(xs))]
        assert_ring_certified(r, inverse, -shift, p, top)
        assert_ring_certified(q, series, shift, p, top)
        no, do = ring_poly(rng, p, rng.randint(0, 2)), ring_poly(rng, p, rng.randint(1, 2))
        c = rng.randint(1, 4)
        last = shift - c + prec - 1  # the last row column -c knows
        rows = (-last, c + 1 - shift) if sign < 0 else (shift - c - 1, last)
        m = riordan(q, library_quotient(no, do, 1, p, side, prec), side, prec)
        block = extract(m, rows, (-c, -1)).entries
        step = ring_expansion(x, do, no, top)  # x / omega
        for j in range(-c, 0):
            col = rs_mul(series, rs_pow(step, -j, x, top), x, top)
            want = {sign * (k + shift + j): v for (k,), v in col.terms()}
            got = [row[j + c] for row in block]
            assert got == [scalar(want[e], p) if e in want else 0
                           for e in range(rows[0], rows[1] + 1)], (j, got)
