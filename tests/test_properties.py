"""Properties over drawn series: one rule per route to a power of omega.

Column j of R(alpha, omega) is the image of x^j, so `column` and `apply`
must agree on every matrix, and the exponent budget of `power` must hold on
every route that reaches omega^j.  Skipped when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from biriordan.riordan import apply, riordan  # noqa: E402
from biriordan.series import (  # noqa: E402
    LaurentSeries,
    Side,
    compose,
    monomial,
    power,
)

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
