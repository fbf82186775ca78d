"""The series kernels against sympy, an oracle that shares no code with
biriordan: reciprocals and compositions of random rational functions over Q
against sympy.series, compositional inverses against the reversion of
sympy's ring series, both on both sides (the bounded-above expansion of f(x)
is the expansion of f(1/y) in y = 1/x), and one block of a Riordan matrix.
Every coefficient the library certifies must be sympy's."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_series_reversion  # noqa: E402

from biriordan.riordan import riordan  # noqa: E402
from biriordan.series import (  # noqa: E402
    LaurentSeries,
    Side,
    compose,
    compositional_inverse,
    mul,
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
