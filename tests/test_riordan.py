"""Implicit matrices: construction, classification, products, inverses, J."""

from __future__ import annotations

from fractions import Fraction

import pytest

from biriordan.errors import (
    CompositionUndefinedError,
    NotInvertibleError,
    PrecisionError,
    SideMismatchError,
    UndefinedProductError,
    ZeroSeriesError,
)
from biriordan.riordan import (
    EchelonClass,
    RiordanMatrix,
    apply,
    classify,
    format_class_set,
    identity,
    inverse,
    j_conjugate,
    j_matrix,
    lagrange,
    matmul,
    product_cell,
    riordan,
    toeplitz,
)
from biriordan.series import (
    LaurentSeries,
    Side,
    compose,
    eq_to_precision,
    mul,
    parse,
    recip,
    substitute_reciprocal,
)
from biriordan.window import (
    apply_guard,
    extract,
    oracle_apply,
    oracle_matmul,
    product_guard,
    vector_from_series,
)
from conftest import make_rng, random_truncated

_P = 12


def _rep(cls: EchelonClass) -> RiordanMatrix:
    """A matrix whose classification is exactly {cls}."""
    if cls is EchelonClass.L_PLUS:
        return lagrange(parse("x/(1-x)", Side.BELOW, _P), precision=_P)
    if cls is EchelonClass.L_MINUS:
        return lagrange(parse("x^-1/(1-x)", Side.BELOW, _P), precision=_P)
    if cls is EchelonClass.U_PLUS:
        return lagrange(parse("x^2/(x-1)", Side.ABOVE, _P), precision=_P)
    return lagrange(substitute_reciprocal(parse("x/(1-x)", Side.BELOW, _P)),
                    precision=_P)


# -- construction -----------------------------------------------------------------


def test_toeplitz_entries_are_shifted_coefficients():
    a = parse("1 + 2x + 3x^2")
    m = toeplitz(a)
    for i in range(-2, 4):
        for j in range(-2, 4):
            assert m.entry(i, j) == a.coeffs.get(i - j, Fraction(0))


def test_column_is_alpha_times_omega_power():
    alpha = parse("1+x")
    omega = parse("x/(1-x)", precision=_P)
    m = riordan(alpha, omega, precision=_P)
    col = m.column(3)
    want = mul(alpha, mul(omega, mul(omega, omega)))
    assert eq_to_precision(col, want)


def test_identity_and_j_entries():
    assert identity().entry(2, 2) == 1
    assert identity().entry(2, 1) == 0
    j = j_matrix()
    assert j.entry(-3, 3) == 1
    assert j.entry(3, 3) == 0


def test_zero_omega_rejected():
    with pytest.raises(ZeroSeriesError):
        riordan(parse("1"), LaurentSeries.zero())


def test_conflicting_sides_rejected():
    below = parse("1/(1-x)", Side.BELOW, _P)
    above = parse("1/(1-x)", Side.ABOVE, _P)
    with pytest.raises(SideMismatchError):
        riordan(below, above)
    with pytest.raises(SideMismatchError):
        riordan(above, parse("x"), Side.BELOW)


def test_entry_beyond_window_raises():
    m = lagrange(parse("x/(1-x)", precision=4), precision=4)
    with pytest.raises(PrecisionError):
        m.entry(10, 1)


def test_matrix_equality_and_hash():
    a = lagrange(parse("x^2"))
    b = lagrange(parse("x^2"))
    assert a == b and hash(a) == hash(b)
    assert a != lagrange(parse("x^3"))


# -- classification ----------------------------------------------------------------


def test_classify_singletons():
    for cls in EchelonClass:
        assert classify(_rep(cls)) == frozenset({cls})


def test_classify_finite_omega_spans_both_sides():
    assert classify(j_matrix()) == frozenset(
        {EchelonClass.L_MINUS, EchelonClass.U_MINUS})
    assert classify(identity()) == frozenset(
        {EchelonClass.L_PLUS, EchelonClass.U_PLUS})
    assert classify(lagrange(parse("x^2 + x^3"))) == frozenset(
        {EchelonClass.L_PLUS, EchelonClass.U_PLUS})


def test_classify_order_zero_contributes_nothing():
    omega = LaurentSeries.truncated({0: 2, 1: 1}, Side.BELOW, 0, _P)
    assert classify(lagrange(omega, precision=_P)) == frozenset()
    assert classify(lagrange(parse("2+x"))) == frozenset({EchelonClass.U_PLUS})


def test_format_class_set_fixed_order():
    assert format_class_set(frozenset()) == "none"
    assert format_class_set({EchelonClass.U_MINUS, EchelonClass.L_PLUS}) == "L+, U-"
    assert format_class_set(classify(identity())) == "L+, U+"


# -- products ----------------------------------------------------------------------

_DEFINED = {
    (EchelonClass.L_PLUS, EchelonClass.L_PLUS): EchelonClass.L_PLUS,
    (EchelonClass.L_PLUS, EchelonClass.L_MINUS): EchelonClass.L_MINUS,
    (EchelonClass.L_MINUS, EchelonClass.U_PLUS): EchelonClass.L_MINUS,
    (EchelonClass.L_MINUS, EchelonClass.U_MINUS): EchelonClass.L_PLUS,
    (EchelonClass.U_PLUS, EchelonClass.U_PLUS): EchelonClass.U_PLUS,
    (EchelonClass.U_PLUS, EchelonClass.U_MINUS): EchelonClass.U_MINUS,
    (EchelonClass.U_MINUS, EchelonClass.L_PLUS): EchelonClass.U_MINUS,
    (EchelonClass.U_MINUS, EchelonClass.L_MINUS): EchelonClass.U_PLUS,
}


def test_defined_cells_produce_predicted_class():
    for (cm, cn), out in _DEFINED.items():
        prod = matmul(_rep(cm), _rep(cn))
        assert out in classify(prod), (cm, cn)


def test_undefined_cells_raise():
    for cm in EchelonClass:
        for cn in EchelonClass:
            if (cm, cn) in _DEFINED:
                continue
            with pytest.raises(UndefinedProductError) as exc:
                matmul(_rep(cm), _rep(cn))
            assert str(cm) in str(exc.value) and str(cn) in str(exc.value)


def test_unclassifiable_factor_names_none():
    omega = LaurentSeries.truncated({0: 2, 1: 1}, Side.BELOW, 0, _P)
    hollow = lagrange(omega, precision=_P)
    with pytest.raises(UndefinedProductError) as exc:
        matmul(hollow, identity())
    assert "none" in str(exc.value)


def test_matmul_agrees_with_window_oracle():
    cases = [
        (EchelonClass.L_PLUS, EchelonClass.L_PLUS, (0, 5), (0, 5)),
        (EchelonClass.U_MINUS, EchelonClass.L_MINUS, (-5, 0), (0, 5)),
    ]
    for cm, cn, rows, cols in cases:
        m, n = _rep(cm), _rep(cn)
        prod = matmul(m, n)
        guard = product_guard(m, n, rows, cols)
        want = oracle_matmul(extract(m, rows, guard), extract(n, guard, cols), guard)
        assert extract(prod, rows, cols) == want


def test_toeplitz_product_is_series_product():
    a = parse("1+x", precision=_P)
    b = parse("1/(1-x)", Side.BELOW, _P)
    prod = matmul(toeplitz(a, precision=_P), toeplitz(b, precision=_P))
    assert eq_to_precision(prod.alpha, mul(a, b))
    assert eq_to_precision(prod.omega, parse("x"))


def test_lagrange_product_swaps_composition_order():
    omega = parse("x/(1-x)", precision=_P)
    chi = parse("x+x^2", precision=_P)
    prod = matmul(lagrange(omega, precision=_P), lagrange(chi, precision=_P))
    assert eq_to_precision(prod.omega, compose(chi, omega, _P))


def test_monomial_lagrange_product():
    prod = matmul(lagrange(parse("x^2")), lagrange(parse("x^3")))
    assert prod.omega == parse("x^6")
    assert prod.alpha == parse("1")


# -- apply -------------------------------------------------------------------------


def test_apply_toeplitz_is_multiplication():
    alpha = parse("1 - x")
    chi = parse("1/(1-x)", precision=_P)
    got = apply(toeplitz(alpha, precision=_P), chi)
    assert eq_to_precision(got, LaurentSeries.one())


def test_apply_lagrange_is_composition():
    omega = parse("x/(1-x)", precision=_P)
    chi = parse("x + x^3")
    got = apply(lagrange(omega, precision=_P), chi)
    assert eq_to_precision(got, compose(chi, omega, _P))


def test_apply_finite_vector_is_exact():
    m = riordan(parse("(1-x)^3"), parse("x/(1-x)", precision=8), precision=8)
    got = apply(m, parse("1 + 4x + 6x^2 + 4x^3"))
    for k in range(4):
        assert got[k] == 1


# -- inverse -----------------------------------------------------------------------


def test_toeplitz_inverse():
    m = toeplitz(parse("1-x"), precision=_P)
    minv = inverse(m)
    assert eq_to_precision(minv.alpha, parse("1/(1-x)", precision=_P))
    prod = matmul(m, minv)
    assert extract(prod, (0, 5), (0, 5)) == extract(identity(), (0, 5), (0, 5))


def test_lagrange_inverse_round_trip():
    m = lagrange(parse("x/(1-x)", precision=_P), precision=_P)
    minv = inverse(m)
    assert eq_to_precision(minv.omega, parse("x/(1+x)", precision=_P))
    prod = matmul(m, minv)
    assert extract(prod, (0, 6), (0, 6)) == extract(identity(), (0, 6), (0, 6))


def test_general_inverse_round_trip():
    rng = make_rng(19)
    for _ in range(5):
        alpha = random_truncated(rng, Side.BELOW, 0, count=_P)
        omega = random_truncated(rng, Side.BELOW, 1, count=_P)
        m = riordan(alpha, omega, precision=_P)
        prod = matmul(m, inverse(m))
        assert extract(prod, (0, 4), (0, 4)) == extract(identity(), (0, 4), (0, 4))


def test_inverse_zero_alpha_rejected():
    with pytest.raises(NotInvertibleError):
        inverse(riordan(LaurentSeries.zero(), parse("x")))


def test_inverse_needs_invertible_omega():
    with pytest.raises(NotInvertibleError):
        inverse(lagrange(parse("x^2")))


def test_inverse_of_an_exact_pair_on_either_side():
    block = (-3, 3)
    for omega in ("x", "2x", "x^-1", "-3x^-1", "x+x^2", "x+x^-1"):
        for side in (Side.BELOW, Side.ABOVE):
            m = riordan(parse("1+x"), parse(omega), side, _P)
            if (omega, side) == ("x+x^2", Side.ABOVE):
                # omega has order 2 on the stored side
                with pytest.raises(NotInvertibleError):
                    inverse(m)
                continue
            prod = matmul(m, inverse(m))
            assert extract(prod, block, block) == extract(identity(), block, block)
    # alpha o winv = 1 + x^(+-1) is exact: its reciprocal expands on the
    # matrix's side for omega of order +1, on the other side for order -1
    got = inverse(riordan(parse("1+x"), parse("x"), Side.ABOVE, 4)).alpha
    assert got == recip(parse("1+x"), Side.ABOVE, 4)
    got = inverse(riordan(parse("1+x"), parse("x^-1"), Side.BELOW, 4)).alpha
    assert got == recip(parse("1+x^-1"), Side.ABOVE, 4)


# -- J conjugation -----------------------------------------------------------------


def test_j_matrix_squares_to_identity():
    prod = matmul(j_matrix(), j_matrix())
    assert prod.alpha == parse("1")
    assert prod.omega == parse("x")


def test_j_conjugate_components():
    m = _rep(EchelonClass.L_PLUS)
    left = j_conjugate(m, "left")
    assert eq_to_precision(left.alpha, substitute_reciprocal(m.alpha))
    assert eq_to_precision(left.omega, substitute_reciprocal(m.omega))
    right = j_conjugate(m, "right")
    assert eq_to_precision(right.alpha, m.alpha)
    # multiplying J on the right replaces omega by its reciprocal
    assert eq_to_precision(right.omega, recip(m.omega, Side.BELOW, _P))


def test_j_conjugate_class_diagram():
    m = _rep(EchelonClass.L_PLUS)
    assert classify(j_conjugate(m, "left")) == {EchelonClass.U_MINUS}
    assert classify(j_conjugate(m, "right")) == {EchelonClass.L_MINUS}
    assert classify(j_conjugate(m, "both")) == {EchelonClass.U_PLUS}


def test_j_conjugate_both_is_involution():
    m = _rep(EchelonClass.L_PLUS)
    back = j_conjugate(j_conjugate(m, "both"), "both")
    assert eq_to_precision(back.alpha, m.alpha)
    assert eq_to_precision(back.omega, m.omega)


def test_j_conjugate_matches_explicit_products():
    m = _rep(EchelonClass.L_PLUS)
    j = j_matrix()
    left = j_conjugate(m, "left")
    direct = matmul(j, m)
    rows, cols = (-6, 0), (0, 5)
    assert extract(left, rows, cols) == extract(direct, rows, cols)
    right = j_conjugate(m, "right")
    direct = matmul(m, j)
    rows, cols = (0, 5), (-6, 0)
    assert extract(right, rows, cols) == extract(direct, rows, cols)


def test_j_conjugate_of_an_exact_omega_reflects_the_columns():
    # entry (i, j) of the right reflection is m_(i, -j), of both m_(-i, -j):
    # the reciprocal of an exact omega expands on the side the columns use
    rows, cols = (-4, 4), (-3, 3)
    for side in (Side.BELOW, Side.ABOVE):
        m = riordan(parse("2 - x^2"), parse("1 + x"), side, _P)
        w = extract(m, rows, cols)
        right = extract(j_conjugate(m, "right"), rows, cols)
        both = extract(j_conjugate(m, "both"), rows, cols)
        for i in range(rows[0], rows[1] + 1):
            for j in range(cols[0], cols[1] + 1):
                assert right.entry(i, j) == w.entry(i, -j)
                assert both.entry(i, j) == w.entry(-i, -j)


def test_j_conjugate_rejects_unknown_side():
    with pytest.raises(ValueError):
        j_conjugate(identity(), "up")


def test_a_matrix_stores_the_side_its_columns_expand_on():
    one, omega = LaurentSeries.one(), parse("1+x")
    assert riordan(one, omega).side is Side.BELOW
    assert riordan(one, omega, Side.FINITE) == riordan(one, omega, Side.BELOW)
    above = riordan(one, omega, Side.ABOVE)
    assert above.side is Side.ABOVE
    assert above.column(-1) == recip(omega, Side.ABOVE, 16)
    assert apply(above, LaurentSeries.from_terms({-1: 1})) == compose(
        LaurentSeries.from_terms({-1: 1}), omega, 16, Side.ABOVE)
    assert riordan(one, parse("1/(1-x)", Side.ABOVE, 4)).side is Side.ABOVE


def test_matrix_columns_obey_the_exponent_budget_and_precision():
    one = LaurentSeries.one()
    with pytest.raises(ValueError, match="at most 10000"):
        riordan(one, parse("1+x")).column(10**8)
    assert riordan(one, parse("-x")).column(10**8) == LaurentSeries.from_terms(
        {10**8: 1})
    for precision in (0, -3):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            riordan(one, parse("1+x"), precision=precision).column(-1)


def test_upper_cell_product_with_a_finite_omega_of_both_sides():
    # omega = x^-1 + x^2 is L- and U+; an inexact bounded-above alpha leaves
    # m only U+, so m * n takes the (U+, U+) cell and composes on the
    # bounded-above side (which raised SideMismatchError when the
    # composition expanded 1/omega below)
    above = Side.ABOVE
    m = riordan(parse("1/(1-x^-1)", above, 6), parse("x^-1+x^2"))
    n = riordan(LaurentSeries.one(), parse("x/(1-x^-1)", above, 6))
    assert product_cell(m, n) == (EchelonClass.U_PLUS, EchelonClass.U_PLUS)
    p = matmul(m, n)
    assert p.side is above and classify(p) == {EchelonClass.U_PLUS}
    rows, cols = (-1, 4), (0, 2)
    guard = product_guard(m, n, rows, cols)
    want = oracle_matmul(extract(m, rows, guard), extract(n, guard, cols), guard)
    assert extract(p, rows, cols) == want
    # and m * chi is the sum of m's columns, which expand on m's side
    chi = parse("1/(1-x^-1)", above, 6)
    got = apply(m, chi)
    assert got.side is above and (got.lo, got.hi) == (-5, 0)
    guard = apply_guard(m, chi, (-5, 0))
    want = oracle_apply(extract(m, (-5, 0), guard), vector_from_series(chi, *guard), guard)
    assert [got[i] for i in range(-5, 1)] == list(want.values)


def test_apply_reads_negative_powers_of_omega_on_the_stored_side():
    # column -1 of R(1, x+x^2) stored above is x^-2 - x^-3 + ..., so a chi
    # with a term at x^-1 meets a two-sided sum there; and 1/(x^-1+1) has
    # order 0 above, so no bounded-above chi composes with it above
    above, below = Side.ABOVE, Side.BELOW
    m = riordan(LaurentSeries.one(), parse("x+x^2"), above, 6)
    assert m.column(-1).side is above
    for chi in (parse("x^-1/(1-x)", below, 6),
                LaurentSeries.truncated({-1: 1, 0: 1, 1: 1}, below, -1, 1)):
        with pytest.raises(CompositionUndefinedError):
            apply(m, chi)
    with pytest.raises(CompositionUndefinedError):
        apply(riordan(LaurentSeries.one(), parse("x^-1+1"), above, 6),
              parse("1/(1-x^-1)", above, 6))
    # without a negative power of omega, every column holds on both sides
    got = apply(m, parse("1/(1-x)", below, 6))
    assert got == compose(parse("1/(1-x)", below, 6), parse("x+x^2"), 6)
    assert got.side is below and got[0] == 1 and got[1] == 1
