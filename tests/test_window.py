"""Finite windows, guard certification, and the brute-force product oracles."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from biriordan.errors import GuardViolationError, PrecisionError
from biriordan.field import PrimeField, PrimeFieldElement
from biriordan.riordan import (
    _SHAPE,
    EchelonClass,
    apply,
    identity,
    j_matrix,
    lagrange,
    matmul,
    product_cell,
    riordan,
    toeplitz,
)
from biriordan.series import LaurentSeries, Side, mul, parse, recip
from biriordan.window import (
    MatrixWindow,
    VectorWindow,
    apply_guard,
    extract,
    oracle_apply,
    oracle_matmul,
    product_guard,
    render,
    vector_from_series,
    window_from_json,
)
from conftest import make_rng, random_truncated

_P = 12


# -- window containers -------------------------------------------------------------


def test_window_accessors():
    w = MatrixWindow(-1, 2, ((1, 2), (3, 4), (5, 6)))
    assert (w.row_hi, w.col_hi) == (1, 3)
    assert w.entry(-1, 2) == 1
    assert w.entry(1, 3) == 6
    sub = w.sub((0, 1), (3, 3))
    assert sub.entries == ((4,), (6,))
    with pytest.raises(ValueError):
        w.sub((0, 2), (2, 3))


def test_vector_window_accessors():
    v = VectorWindow(-2, (7, 8, 9))
    assert v.hi == 0
    assert v.entry(-2) == 7 and v.entry(0) == 9


def test_extract_matches_entry():
    m = riordan(parse("1+x"), parse("x/(1-x)", precision=_P), precision=_P)
    w = extract(m, (0, 4), (0, 3))
    for i in range(0, 5):
        for j in range(0, 4):
            assert w.entry(i, j) == m.entry(i, j)


def test_extract_refuses_unknown_entries():
    m = lagrange(parse("x/(1-x)", precision=3), precision=3)
    with pytest.raises(PrecisionError):
        extract(m, (0, 10), (0, 2))


def test_extract_rejects_empty_ranges():
    with pytest.raises(ValueError):
        extract(identity(), (2, 1), (0, 0))


def test_vector_from_series():
    chi = parse("1/(1-x)", precision=6)
    v = vector_from_series(chi, 0, 5)
    assert v.values == tuple(Fraction(1) for _ in range(6))
    with pytest.raises(PrecisionError):
        vector_from_series(chi, 0, 10)


# -- rendering ---------------------------------------------------------------------


def test_render_brackets_origin():
    w = extract(j_matrix(), (-2, 2), (-2, 2))
    lines = render(w).splitlines()
    assert len(lines) == 5
    assert "[1]" in lines[2]
    assert lines[0].endswith("1")
    assert all(not line.endswith(" ") for line in lines)


def test_render_single_cell():
    assert render(extract(identity(), (0, 0), (0, 0))) == "[1]"


def test_render_json_round_trip():
    m = toeplitz(parse("1 - 1/2x"), precision=_P)
    w = extract(m, (0, 3), (0, 3))
    again = window_from_json(render(w, "json"))
    assert again == w


def test_render_rejects_unknown_format():
    w = extract(identity(), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        render(w, "yaml")


def test_window_from_json_validates_shape():
    with pytest.raises(ValueError):
        window_from_json({"row_lo": 0, "col_lo": 0, "entries": [["1"], ["1", "2"]]})
    with pytest.raises(ValueError):
        window_from_json({"row_lo": 0, "col_lo": 0, "entries": []})


# -- guards ------------------------------------------------------------------------


def test_product_guard_toeplitz():
    a = random_truncated(make_rng(1), Side.BELOW, -2, count=_P)
    b = random_truncated(make_rng(2), Side.BELOW, 1, count=_P)
    m, n = toeplitz(a, precision=_P), toeplitz(b, precision=_P)
    guard = product_guard(m, n, (0, 3), (0, 3))
    lo, hi = guard
    assert lo <= hi
    # inner index must reach high enough to cover row 3 against order -2
    assert hi >= 3 + 2


def test_product_guard_refuses_doubly_infinite_sums():
    m = lagrange(parse("x/(1-x)", Side.BELOW, _P), precision=_P)
    n = lagrange(parse("x^2/(x-1)", Side.ABOVE, _P), precision=_P)
    with pytest.raises(GuardViolationError):
        product_guard(m, n, (0, 3), (0, 3))


def test_empty_per_entry_ranges_certify_zero():
    # columns of the x^3-shifted Toeplitz matrix vanish above row k+3, so
    # entries with i < j+3 are certified zero; a block made only of such
    # entries yields the empty-hull guard convention (lo, lo-1)
    m = toeplitz(parse("x^3 * 1/(1-x)", precision=_P), precision=_P)
    n = toeplitz(parse("1+x"), precision=_P)
    assert product_guard(m, n, (0, 2), (0, 2)) == (0, -1)
    # a taller block mixes dead and live entries; the oracle reproduces the
    # zeros of the dead region
    rows, cols = (0, 5), (0, 2)
    guard = product_guard(m, n, rows, cols)
    got = oracle_matmul(extract(m, rows, guard), extract(n, guard, cols), guard)
    direct = extract(toeplitz(mul(parse("x^3 * 1/(1-x)", precision=_P),
                                  parse("1+x")), precision=_P), rows, cols)
    assert got == direct
    assert all(got.entry(i, j) == 0
               for i in range(0, 6) for j in range(0, 3) if i < j + 3)


def test_a_zero_alpha_on_the_left_certifies_every_row_dead():
    # every row of R(0, omega) is zero, so no summand of the product is
    # live and the guard is the empty hull, whatever the right factor
    m = riordan(LaurentSeries.zero(), parse("x/(1-x)", precision=_P), precision=_P)
    for n in (identity(), lagrange(parse("x^-1/(1-x)", Side.BELOW, _P), precision=_P)):
        assert product_guard(m, n, (-3, 3), (-2, 2)) == (0, -1)


def test_oracle_matmul_matches_matmul():
    rng = make_rng(3)
    for _ in range(10):
        a = random_truncated(rng, Side.BELOW, rng.randint(-3, 3), count=_P)
        b = random_truncated(rng, Side.BELOW, rng.randint(-3, 3), count=_P)
        m, n = toeplitz(a, precision=_P), toeplitz(b, precision=_P)
        base = a.order() + b.order()
        rows = (base, base + 3)
        cols = (0, 3)
        guard = product_guard(m, n, rows, cols)
        got = oracle_matmul(extract(m, rows, guard), extract(n, guard, cols), guard)
        direct = extract(toeplitz(mul(a, b), precision=_P), rows, cols)
        assert got == direct
        assert extract(matmul(m, n), rows, cols) == direct


def test_oracle_matmul_validates_inner_ranges():
    m = toeplitz(parse("1+x"))
    a = extract(m, (0, 2), (0, 3))
    b = extract(m, (1, 4), (0, 2))
    with pytest.raises(ValueError):
        oracle_matmul(a, b, (0, 3))


def test_oracle_matmul_requires_guard_coverage():
    m = toeplitz(parse("1+x"))
    a = extract(m, (0, 2), (0, 3))
    b = extract(m, (0, 3), (0, 2))
    with pytest.raises(GuardViolationError):
        oracle_matmul(a, b, (-1, 3))


def test_apply_guard_and_oracle():
    m = toeplitz(parse("1-x"), precision=8)
    chi = parse("1/(1-x)", precision=8)
    guard = apply_guard(m, chi, (0, 5))
    v = oracle_apply(extract(m, (0, 5), guard),
                     vector_from_series(chi, *guard), guard)
    assert v.values == (1, 0, 0, 0, 0, 0)


def test_apply_guard_refuses_opposite_sides():
    m = toeplitz(parse("1/(1-x)", Side.BELOW, _P), precision=_P)
    chi = parse("1/(1-x)", Side.ABOVE, _P)
    with pytest.raises(GuardViolationError):
        apply_guard(m, chi, (0, 3))


def test_guard_handles_negative_order_columns():
    m = lagrange(parse("x^-1/(1-x)", Side.BELOW, _P), precision=_P)  # L-
    n = lagrange(parse("x^-1", Side.BELOW, _P), precision=_P)        # J-like
    guard = product_guard(m, n, (0, 3), (-3, 0))
    got = oracle_matmul(extract(m, (0, 3), guard),
                        extract(n, guard, (-3, 0)), guard)
    assert got == extract(matmul(m, n), (0, 3), (-3, 0))


# -- the oracles against their triple loops ----------------------------------------


def _ref_entry(acc):
    # an entry is a Fraction unless it is a nonzero residue: a sum of none,
    # or one that cancels, reads Fraction(0), as a gap of extract does
    return Fraction(acc) if type(acc) is int else acc or Fraction(0)


def ref_oracle_matmul(a, b, guard):
    """The triple loop that adds, from the int 0, the products of the
    nonzero entries, where oracle_matmul sums integer products over common
    denominators when every entry is rational."""
    if a.col_lo != b.row_lo or a.col_hi != b.row_hi:
        raise ValueError("inner index ranges of the factors differ")
    g_lo, g_hi = guard
    if g_lo <= g_hi and (g_lo < a.col_lo or g_hi > a.col_hi):
        raise GuardViolationError(
            f"windows cover [{a.col_lo}, {a.col_hi}] but the certified "
            f"summation range is [{g_lo}, {g_hi}]"
        )
    grid = []
    for row in a.entries:
        out = []
        for j in range(b.col_lo, b.col_hi + 1):
            acc = 0
            for k in range(g_lo, g_hi + 1):
                x, y = row[k - a.col_lo], b.entry(k, j)
                if x and y:
                    acc = acc + x * y
            out.append(_ref_entry(acc))
        grid.append(tuple(out))
    return MatrixWindow(a.row_lo, b.col_lo, tuple(grid))


def ref_oracle_apply(a, v, guard):
    """The double loop of ref_oracle_matmul for one column."""
    if a.col_lo != v.lo or a.col_hi != v.hi:
        raise ValueError("inner index ranges of matrix and vector differ")
    g_lo, g_hi = guard
    if g_lo <= g_hi and (g_lo < v.lo or g_hi > v.hi):
        raise GuardViolationError(
            f"windows cover [{v.lo}, {v.hi}] but the certified summation "
            f"range is [{g_lo}, {g_hi}]"
        )
    out = []
    for row in a.entries:
        acc = 0
        for k in range(g_lo, g_hi + 1):
            x, y = row[k - a.col_lo], v.entry(k)
            if x and y:
                acc = acc + x * y
        out.append(_ref_entry(acc))
    return VectorWindow(a.row_lo, tuple(out))


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _entry(rng, kind):
    if kind == "q":
        big = rng.random() < 0.1
        num = rng.randint(-10**20, 10**20) if big else rng.randint(-6, 6)
        return Fraction(num, rng.randint(1, 12))
    if kind == "int":
        return rng.randint(-5, 5)
    return PrimeField(7)(rng.randrange(7))


def _block(rng, row_lo, col_lo, rows, cols, kinds):
    return MatrixWindow(row_lo, col_lo, tuple(
        tuple(_entry(rng, rng.choice(kinds)) for _ in range(cols)) for _ in range(rows)))


def test_oracles_match_the_triple_loop():
    rng = make_rng(21)
    for _ in range(300):
        kinds = rng.choice([("q",), ("q",), ("q", "int"), ("int",), ("gf",), ("q", "gf")])
        inner_lo, inner = rng.randint(-4, 4), rng.randint(1, 6)
        a = _block(rng, rng.randint(-3, 3), inner_lo, rng.randint(1, 4), inner, kinds)
        b = _block(rng, inner_lo, rng.randint(-3, 3), inner, rng.randint(1, 4), kinds)
        v = VectorWindow(inner_lo, b.entries[0] if rng.random() < 0.5 else
                         tuple(row[0] for row in b.entries))
        g_lo = rng.randint(inner_lo - 1, inner_lo + inner)
        guard = rng.choice([(g_lo, rng.randint(g_lo - 2, inner_lo + inner)), (0, -1),
                            (inner_lo, inner_lo + inner - 1)])
        if rng.random() < 0.1:  # mismatched inner ranges
            b = _block(rng, inner_lo + 1, 0, inner, 2, kinds)
            v = VectorWindow(inner_lo - 1, v.values)
        got = _outcome(lambda: oracle_matmul(a, b, guard))
        assert got == _outcome(lambda: ref_oracle_matmul(a, b, guard))
        if isinstance(got, MatrixWindow):
            assert [type(x) for row in got.entries for x in row] == [
                type(x) for row in ref_oracle_matmul(a, b, guard).entries for x in row]
        got = _outcome(lambda: oracle_apply(a, v, guard))
        assert got == _outcome(lambda: ref_oracle_apply(a, v, guard))


def test_oracle_with_an_empty_guard_gives_fraction_zeros():
    gf7 = PrimeField(7)
    for entry in (Fraction(3, 4), 2, gf7(3)):
        a = MatrixWindow(0, 0, ((entry, entry),))
        got = oracle_matmul(a, MatrixWindow(0, 0, ((entry,), (entry,))), (1, 0))
        assert got.entries == ((Fraction(0),),)
        assert type(got.entries[0][0]) is Fraction
        vec = oracle_apply(a, VectorWindow(0, (entry, entry)), (1, 0))
        assert vec.values == (Fraction(0),) and type(vec.values[0]) is Fraction


# -- the oracles over GF(p) -----------------------------------------------------------


def _gf_series(rng, p, side, order, count=_P):
    """An inexact series over GF(p) on side: a nonzero residue at its order
    and count coefficients known from it, gaps among them."""
    step = 1 if side is Side.BELOW else -1
    terms = {order + step * i: PrimeFieldElement(rng.randrange(p) * (rng.random() < 0.7), p)
             for i in range(1, count)}
    terms[order] = PrimeFieldElement(rng.randrange(1, p), p)
    return LaurentSeries.truncated(terms, side, *sorted((order, order + step * (count - 1))))


def _gf_matrix(rng, p, cls):
    side, sign = _SHAPE[cls]
    omega = _gf_series(rng, p, side, sign * rng.randint(1, 2))
    return riordan(_gf_series(rng, p, side, rng.randint(-2, 2)), omega, precision=_P)


def _agree(guard, oracle, direct) -> bool:
    """oracle() == direct() wherever both know the block; False when one
    of them does not, or the guard is empty (extract takes no empty range)."""
    if guard[0] > guard[1]:
        return False
    try:
        got, want = oracle(), direct()
    except PrecisionError:  # an entry outside the windows the series know
        return False
    assert got == want
    return True


def test_oracles_over_gf_p_match_matmul_and_apply_in_every_cell():
    # residues sum from the int 0, and a gap of extract (Fraction(0)) adds
    # nothing, so a GF(p) block is as certain as a rational one
    rng = make_rng(20)
    compared = {"matmul": 0, "apply": 0}
    for p in (7, 2**31 - 1):
        for _ in range(10):
            for cm in EchelonClass:
                for cn in EchelonClass:
                    m, n = _gf_matrix(rng, p, cm), _gf_matrix(rng, p, cn)
                    if product_cell(m, n) != (cm, cn):
                        continue
                    r, c = rng.randint(-4, 4), rng.randint(-4, 4)
                    rows, cols = (r, r + rng.randint(0, 3)), (c, c + rng.randint(0, 3))
                    guard = product_guard(m, n, rows, cols)
                    compared["matmul"] += _agree(
                        guard,
                        lambda: oracle_matmul(extract(m, rows, guard),
                                              extract(n, guard, cols), guard),
                        lambda: extract(matmul(m, n), rows, cols))
                    chi = _gf_series(rng, p, _SHAPE[cn][0], rng.randint(-2, 2))
                    try:
                        guard = apply_guard(m, chi, rows)
                    except GuardViolationError:
                        continue
                    compared["apply"] += _agree(
                        guard,
                        lambda: oracle_apply(extract(m, rows, guard),
                                             vector_from_series(chi, *guard), guard),
                        lambda: vector_from_series(apply(m, chi), *rows))
    assert compared["matmul"] >= 60 and compared["apply"] >= 60, compared


def test_an_int_sum_of_a_block_of_two_kinds_is_a_fraction():
    # ints beside residues leave the common-denominator path, and a sum of
    # int products alone is the Fraction every other rational entry is
    gf7 = PrimeField(7)
    got = oracle_matmul(MatrixWindow(0, 0, ((2, gf7(1)),)),
                        MatrixWindow(0, 0, ((3,), (0,))), (0, 1))
    assert got.entries == ((Fraction(6),),) and type(got.entries[0][0]) is Fraction
    vec = oracle_apply(MatrixWindow(0, 0, ((2, gf7(1)),)), VectorWindow(0, (3, 0)), (0, 1))
    assert vec.values == (Fraction(6),) and type(vec.values[0]) is Fraction


# -- extract against the full columns ---------------------------------------------------


def _scalar(rng, field, nonzero=False):
    c = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if field == "q"
         else PrimeFieldElement(rng.randrange(field), field))
    return _scalar(rng, field, nonzero) if nonzero and not c else c


def _any_series(rng, field, side):
    """Over the field: an exact polynomial, monomial or sparse pair, or an
    inexact series on side (gaps, no known term, or a rational function
    expanded far past any block's rows)."""
    kind = rng.choice(("exact", "monomial", "sparse", "inexact", "inexact",
                       "unknown", "rational"))
    step = 1 if side is Side.BELOW else -1
    if kind == "exact":
        lo = rng.randint(-3, 3)
        terms = {e: _scalar(rng, field) for e in range(lo, lo + rng.randint(1, 5))}
        return LaurentSeries.from_terms({**terms, lo: _scalar(rng, field, True)})
    if kind == "monomial":
        return LaurentSeries.from_terms({rng.randint(-2, 2): _scalar(rng, field, True)})
    if kind == "sparse":
        return LaurentSeries.from_terms({rng.choice((0, 1)): _scalar(rng, field, True),
                                         60: _scalar(rng, field, True)})
    if kind == "rational":
        poly = LaurentSeries.from_terms({step * e: _scalar(rng, field, e == 0)
                                         for e in range(3)})
        shift = LaurentSeries.from_terms({step * rng.randint(-1, 1): _scalar(rng, field, True)})
        return mul(shift, recip(poly, side, rng.choice((40, 150))))
    order, count = rng.randint(-3, 3), rng.randint(1, 9)
    window = sorted((order, order + step * (count - 1)))
    if kind == "unknown":
        return LaurentSeries.truncated({}, side, *window)
    terms = {order + step * i: _scalar(rng, field) for i in range(count)}
    return LaurentSeries.truncated({**terms, order: _scalar(rng, field, True)}, side, *window)


def _typed(call):
    try:
        grid = call()
    except Exception as exc:
        return type(exc), str(exc)
    return [[(type(x), x) for x in row] for row in grid]


def _read(m, rows, cols):
    # the full columns, read entry by entry in row-major order
    js = range(cols[0], cols[1] + 1)
    columns = m.columns(js)
    return [[columns[j][i] for j in js] for i in range(rows[0], rows[1] + 1)]


def test_extract_reads_what_the_full_columns_hold():
    # extract walks each column only as far as its rows and reads it once;
    # the reference reads the full columns of a fresh copy entry by entry,
    # row by row, so the first unknown entry raises its own message
    rng = make_rng(21)
    seen = {"values": 0, "PrecisionError": 0}
    fields = ("q", 7, 2**31 - 1)
    for _ in range(300):
        field = rng.choice(fields)
        side = rng.choice((Side.BELOW, Side.ABOVE))
        # now and then omega over another field, which a column's first
        # product refuses even where its cut holds no term
        other = rng.choice(fields) if rng.random() < 0.1 else field
        m = riordan(_any_series(rng, field, side), _any_series(rng, other, side),
                    side, rng.choice((None, 3, 12, 150)))
        for _ in range(3):
            r, c = rng.randint(-20, 20), rng.randint(-8, 8)
            rows, cols = (r, r + rng.randint(0, 10)), (c, c + rng.randint(0, 7))
            want = _typed(lambda: _read(pickle.loads(pickle.dumps(m)), rows, cols))
            for _ in range(2):  # the second block reads the kept columns
                assert _typed(lambda: extract(m, rows, cols).entries) == want
            # a cut column is never read as a full one
            assert _typed(lambda: _read(m, rows, cols)) == want
            kind = want[0].__name__ if isinstance(want, tuple) else "values"
            seen[kind] = seen.get(kind, 0) + 1
    assert seen["values"] >= 300 and seen["PrecisionError"] >= 100, seen
