"""Properties over drawn series: one rule per route to a power of omega.

Column j of R(alpha, omega) is the image of x^j, so `column` and `apply`
must agree on every matrix, and the exponent budget of `power` must hold on
every route that reaches omega^j.  `extract` and `compose` walk the powers
of omega (`series.powers`), so a block must hold the entries of each
`column` in turn, and a composition with an exact chi must be the sum of
its terms.  The columns of a walk equal alpha times each power by repeated
squaring.  A compositional inverse composes back to x, and inverts back to
omega, on the windows it certifies.  Skipped when hypothesis is not
installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from biriordan.field import PrimeFieldElement  # noqa: E402
from biriordan.riordan import apply, riordan  # noqa: E402
from biriordan.series import (  # noqa: E402
    LaurentSeries,
    Side,
    add,
    compose,
    compositional_inverse,
    eq_to_precision,
    monomial,
    mul,
    power,
    substitute_reciprocal,
)
from biriordan.window import extract  # noqa: E402
from test_dense_kernels import ref_columns  # noqa: E402

_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _series(draw, side):
    """An exact polynomial (side None) or a series known on a short window of
    the given side; the window sits anywhere in [-3, 7]."""
    lo = draw(st.integers(-3, 3))
    count = draw(st.integers(1, 5))
    terms = {lo + i: draw(_COEFF) for i in range(count)}
    if side is None:
        return LaurentSeries.from_terms(terms)
    return LaurentSeries.truncated(terms, side, lo, lo + count - 1)


@st.composite
def _matrix(draw):
    side = draw(st.sampled_from([Side.BELOW, Side.ABOVE]))
    alpha = draw(_series(draw(st.sampled_from([None, side]))))
    omega = draw(_series(draw(st.sampled_from([None, side]))))
    assume(not omega.is_zero())
    if alpha.exact and omega.exact:
        given_side = draw(st.sampled_from([None, Side.FINITE, side]))
    else:
        given_side = draw(st.sampled_from([None, side]))
    precision = draw(st.sampled_from([None, 1, 3, 8]))
    return riordan(alpha, omega, given_side, precision)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def _raised(call):
    """(type, message) of what call() raises, or None with its value."""
    try:
        return None, call()
    except Exception as exc:
        return (type(exc), str(exc)), None


@settings(max_examples=300, deadline=None)
@given(m=_matrix(), j=st.integers(-4, 4))
def test_column_is_the_image_of_a_monomial(m, j):
    assert _outcome(lambda: m.column(j)) == _outcome(lambda: apply(m, monomial(1, j)))


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from([None, Side.BELOW, Side.ABOVE]).flatmap(_series),
       j=st.integers(10_001, 10**9), sign=st.sampled_from([1, -1]))
def test_exponent_budget_holds_on_every_route(base, j, sign):
    assume(len(base.coeffs) > 1)
    j *= sign
    for call in (lambda: power(base, j),
                 lambda: compose(monomial(1, j), base),
                 lambda: riordan(LaurentSeries.one(), base).column(j)):
        with pytest.raises(ValueError, match="at most 10000"):
            call()


_COLS = st.one_of(
    st.tuples(st.integers(-6, 4), st.integers(0, 6)),
    st.tuples(st.sampled_from([-10_003, -10_001, 9_998, 9_999]), st.integers(0, 3)),
).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=300, deadline=None)
@given(m=_matrix(), cols=_COLS, row_lo=st.integers(-8, 8), rows=st.integers(0, 5))
def test_extract_holds_each_column_in_turn(m, cols, row_lo, rows):
    # the 9998th power of an exact omega of several terms has about 40000
    # coefficients of thousands of bits: too slow to draw often
    assume(cols[0] < 9_000 or not m.omega.exact or len(m.omega.coeffs) == 1)
    rows = (row_lo, row_lo + rows)

    def by_columns():
        # every column first, in ascending j; then the entries row by row
        columns = {j: m.column(j) for j in range(cols[0], cols[1] + 1)}
        return [[columns[j][i] for j in sorted(columns)]
                for i in range(rows[0], rows[1] + 1)]

    got_exc, got = _raised(lambda: extract(m, rows, cols))
    want_exc, want = _raised(by_columns)
    assert got_exc == want_exc
    if got_exc is None:
        assert [list(r) for r in got.entries] == want


@settings(max_examples=300, deadline=None)
@given(omega=st.sampled_from([None, Side.BELOW, Side.ABOVE]).flatmap(_series),
       chi=st.dictionaries(st.integers(-6, 9), _COEFF, max_size=4),
       side=st.sampled_from([Side.BELOW, Side.ABOVE]),
       precision=st.sampled_from([None, 1, 4]))
def test_exact_chi_composes_term_by_term(omega, chi, side, precision):
    assume(not omega.is_zero())
    chi = LaurentSeries.from_terms(chi)
    work = side if omega.exact else omega.side

    def by_terms():
        total = LaurentSeries.zero()
        for e in sorted(chi.coeffs):
            term = mul(monomial(chi.coeffs[e]), power(omega, e, work, precision))
            total = term if e == min(chi.coeffs) else add(total, term)
        return total

    assert _raised(lambda: compose(chi, omega, precision, side)) == _raised(by_terms)


@settings(max_examples=300, deadline=None)
@given(m=_matrix(), js=st.lists(st.integers(-7, 9), min_size=1, max_size=7))
def test_columns_equal_alpha_times_repeated_squaring(m, js):
    assert _raised(lambda: m.columns(js)) == _raised(
        lambda: ref_columns(m.alpha, m.omega, js, m.side, m.precision))


@st.composite
def _invertible(draw):
    """A series of order +1 or -1 on its side, over Q or GF(7): exact, or
    known on a window of the side it is bounded on."""
    p = draw(st.sampled_from([0, 7]))
    coeff = _COEFF if not p else st.integers(0, 6).map(lambda n: PrimeFieldElement(n, 7))
    order = draw(st.sampled_from([1, -1]))
    count = draw(st.integers(1, 30))
    terms = {order + i: draw(coeff) for i in range(1, count)}
    terms[order] = draw(coeff.filter(bool))
    if draw(st.booleans()):
        omega = LaurentSeries.from_terms(terms)
    else:
        omega = LaurentSeries.truncated(terms, Side.BELOW, order, order + count - 1)
    # the bounded-above side: the order is the greatest exponent there
    return substitute_reciprocal(omega) if draw(st.booleans()) else omega


@settings(max_examples=300, deadline=None)
@given(omega=_invertible(), precision=st.sampled_from([None, 1, 2, 9, 17, 40]))
def test_inverse_round_trips(omega, precision):
    inv = compositional_inverse(omega, precision)
    c = next(iter(omega.coeffs.values()))
    x = monomial(c / c, 1)  # x over omega's field
    back = compose(omega, inv, precision)
    assert back.known(1) and eq_to_precision(back, x)
    assert eq_to_precision(compositional_inverse(inv, precision), omega)
