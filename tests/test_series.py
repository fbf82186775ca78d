"""Laurent series arithmetic: windows, parsing, composition, reversion."""

from __future__ import annotations

import copy
import math
import pickle
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from biriordan.errors import (
    CompositionUndefinedError,
    NotInvertibleError,
    OrderIndeterminateError,
    ParseError,
    PrecisionError,
    SideIndeterminateError,
    SideMismatchError,
    ZeroSeriesError,
)
from biriordan import dense, field
from biriordan.field import PrimeField, PrimeFieldElement
from biriordan.riordan import riordan
from biriordan.series import (
    LaurentSeries,
    Side,
    add,
    compose,
    compositional_inverse,
    eq_to_precision,
    format_series,
    monomial,
    mul,
    neg,
    parse,
    power,
    recip,
    substitute_reciprocal,
)
from conftest import (
    convolve_dicts,
    make_rng,
    random_polynomial,
    random_rational,
    random_truncated,
)


# -- construction and basic structure ---------------------------------------------


def test_from_terms_drops_zeros_and_is_exact():
    a = LaurentSeries.from_terms({-1: 2, 0: 0, 3: Fraction(1, 2)})
    assert a.exact
    assert a.side is Side.FINITE
    assert a.support() == [-1, 3]
    assert a.lo == -1 and a.hi == 3


def test_int_coefficients_become_fractions():
    a = LaurentSeries.from_terms({0: 1})
    assert isinstance(a[0], Fraction)
    b = LaurentSeries.truncated({2: 3}, Side.BELOW, 2, 5)
    assert isinstance(b[2], Fraction)


def test_truncated_tightens_lower_bound_to_support():
    a = LaurentSeries.truncated({3: 1, 5: 2}, Side.BELOW, 1, 6)
    assert (a.lo, a.hi) == (3, 6)
    assert not a.exact


def test_truncated_empty_support_keeps_window_empty():
    a = LaurentSeries.truncated({}, Side.BELOW, 0, 4)
    assert (a.lo, a.hi) == (5, 4)
    assert a.known(3) and not a.known(5)


def test_exactness_is_the_finite_side():
    with pytest.raises(ValueError, match="bounded below or above"):
        LaurentSeries.truncated({0: 1}, Side.FINITE, 0, 3)
    with pytest.raises(ValueError, match="bounded below or above"):
        LaurentSeries.from_json_dict(
            {"side": "finite", "exact": False, "lo": 0, "hi": 3, "terms": [[0, "1"]]})
    for a in (LaurentSeries.from_terms({-1: 2, 3: 1}), LaurentSeries.zero(),
              LaurentSeries.truncated({3: 1}, Side.BELOW, 1, 6),
              LaurentSeries.truncated({}, Side.ABOVE, -4, 0)):
        assert a.exact == (a.side is Side.FINITE)
        assert LaurentSeries.from_json_dict(a.to_json_dict()) == a


def test_zero_and_one():
    assert LaurentSeries.zero().is_zero()
    assert not LaurentSeries.one().is_zero()
    assert LaurentSeries.one()[0] == 1


def test_immutability():
    a = LaurentSeries.from_terms({0: 1})
    with pytest.raises(AttributeError):
        a.lo = 5


def test_structural_equality_and_hash():
    a = LaurentSeries.truncated({1: 1}, Side.BELOW, 1, 4)
    b = LaurentSeries.truncated({1: 1}, Side.BELOW, 1, 4)
    c = LaurentSeries.truncated({1: 1}, Side.BELOW, 1, 5)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != LaurentSeries.from_terms({1: 1})


def test_getitem_outside_window_raises():
    a = LaurentSeries.truncated({0: 1}, Side.BELOW, 0, 3)
    assert a[3] == 0
    with pytest.raises(PrecisionError):
        a[4]
    above = LaurentSeries.truncated({0: 1}, Side.ABOVE, -3, 0)
    assert above[-3] == 0
    with pytest.raises(PrecisionError):
        above[-4]


def test_order_conventions():
    p = LaurentSeries.from_terms({-2: 1, 3: 1})
    assert p.order() == -2
    assert p.order(Side.BELOW) == -2
    assert p.order(Side.ABOVE) == 3
    assert LaurentSeries.zero().order() is None
    below = LaurentSeries.truncated({2: 5}, Side.BELOW, 2, 9)
    assert below.order() == 2
    with pytest.raises(SideMismatchError):
        below.order(Side.ABOVE)
    empty = LaurentSeries.truncated({}, Side.BELOW, 0, 4)
    with pytest.raises(OrderIndeterminateError):
        empty.order()


def test_json_round_trip():
    rng = make_rng(7)
    for _ in range(20):
        a = random_truncated(rng, Side.ABOVE, rng.randint(-4, 4))
        assert LaurentSeries.from_json_dict(a.to_json_dict()) == a
    p = random_polynomial(rng, -3, 3)
    assert LaurentSeries.from_json_dict(p.to_json_dict()) == p


# -- addition ----------------------------------------------------------------------


def test_add_exact():
    a = parse("1+2x")
    b = parse("3x - x^2")
    assert add(a, b) == parse("1 + 5x - x^2")


def test_add_intersects_known_regions():
    a = LaurentSeries.truncated({0: 1, 5: 1}, Side.BELOW, 0, 8)
    b = LaurentSeries.truncated({0: 2}, Side.BELOW, 0, 5)
    s = add(a, b)
    assert (s.lo, s.hi) == (0, 5)
    assert s[0] == 3 and s[5] == 1


def test_add_exact_plus_inexact_keeps_window():
    a = parse("x^-3")
    b = LaurentSeries.truncated({1: 1}, Side.BELOW, 1, 6)
    s = add(a, b)
    assert s.side is Side.BELOW
    assert (s.lo, s.hi) == (-3, 6)


def test_add_opposite_infinite_sides_rejected():
    below = LaurentSeries.truncated({0: 1}, Side.BELOW, 0, 5)
    above = LaurentSeries.truncated({0: 1}, Side.ABOVE, -5, 0)
    with pytest.raises(SideIndeterminateError):
        add(below, above)


def test_neg_is_involution():
    a = random_truncated(make_rng(3), Side.BELOW, -2)
    assert neg(neg(a)) == a


# -- multiplication ----------------------------------------------------------------


def test_mul_exact_matches_convolution():
    rng = make_rng(11)
    for _ in range(25):
        a = random_polynomial(rng, -3, 3)
        b = random_polynomial(rng, -2, 4)
        want = convolve_dicts(a.coeffs, b.coeffs)
        assert mul(a, b).coeffs == want


def test_mul_window_rule_below():
    a = LaurentSeries.truncated({1: 1}, Side.BELOW, 1, 8)   # 8 known from order
    b = LaurentSeries.truncated({-2: 1}, Side.BELOW, -2, 2)  # 5 known from order
    p = mul(a, b)
    assert (p.lo, p.hi) == (-1, 3)
    assert p.count_from_order() == 5


def test_mul_by_exact_keeps_count():
    a = LaurentSeries.truncated({0: 1, 1: 1}, Side.BELOW, 0, 9)
    shift = monomial(1, 5)
    p = mul(a, shift)
    assert (p.lo, p.hi) == (5, 14)


def test_mul_zero_annihilates():
    a = random_truncated(make_rng(5), Side.ABOVE, 3)
    assert mul(a, LaurentSeries.zero()).is_zero()


def test_mul_commutes_on_windows():
    rng = make_rng(13)
    for _ in range(10):
        a = random_truncated(rng, Side.BELOW, rng.randint(-3, 3), count=8)
        b = random_truncated(rng, Side.BELOW, rng.randint(-3, 3), count=8)
        assert mul(a, b) == mul(b, a)


# -- the dict products that series multiplication replaced, kept as references


def _terms_field(terms: dict) -> int:
    # the field of a nonempty dict of one field's scalars: its first value's
    return getattr(next(iter(terms.values())), "p", 0)


def _convolve(ca: dict, cb: dict, hi: int | None = None) -> dict:
    """Product of coefficient dicts, keeping exponents <= hi (None: unbounded).

    Terms that cannot reach the window are dropped first.  Dense enough
    supports are multiplied as one packed integer; anything else goes
    through the term-by-term loop."""
    if not (ca and cb):
        return {}
    if hi is not None:
        a_min, b_min = min(ca), min(cb)
        ca = {e: c for e, c in ca.items() if e + b_min <= hi}
        cb = {e: c for e, c in cb.items() if e + a_min <= hi}
        if not (ca and cb):
            return {}
    # a one-term factor is a shift and a scale of the other (inside the
    # window, as the other's terms beyond it are dropped above), and the
    # exact 1 only shifts it
    if len(ca) == 1:
        (i, ci), = ca.items()
        if ci == 1:
            return {i + j: cj for j, cj in cb.items()}
        return {i + j: ci * cj for j, cj in cb.items()}
    if len(cb) == 1:
        (j, cj), = cb.items()
        if cj == 1:
            return {i + j: ci for i, ci in ca.items()}
        return {i + j: ci * cj for i, ci in ca.items()}
    # a handful of term pairs, or a support mostly made of gaps, is cheaper
    # term by term
    if len(ca) * len(cb) > 8 and all(dense.worth_packing(max(c) - min(c), len(c))
                                     for c in (ca, cb)):
        return _convolve_packed(ca, cb, hi)
    return _convolve_terms(ca, cb, hi)


def _convolve_terms(ca: dict, cb: dict, hi: int | None) -> dict:
    # over Q, integer products over one denominator, as window.oracle_matmul
    q = bool(ca and cb) and _terms_field(ca) == 0
    if q:
        dens = [math.lcm(*[c.denominator for c in d.values()]) for d in (ca, cb)]
        ca, cb = [{e: c.numerator * (den // c.denominator) for e, c in d.items()}
                  for d, den in zip((ca, cb), dens)]
    out: dict = {}
    for i, ci in ca.items():
        for j, cj in cb.items():
            k = i + j
            if hi is None or k <= hi:
                out[k] = out.get(k, 0) + ci * cj
    if q:
        den = dens[0] * dens[1]
        return {k: Fraction(x, den) if den != 1 else Fraction(x) for k, x in out.items()}
    return out


def _convolve_packed(ca: dict, cb: dict, hi: int | None) -> dict:
    """The product of two coefficient dicts as one packed product, whatever
    their size."""
    p = _terms_field(ca)
    (la, ha), (lb, hb) = [(min(c), max(c)) for c in (ca, cb)]
    n = ha + hb - la - lb + 1 if hi is None else max(hi - la - lb + 1, 0)
    xs, den = dense.mul(dense.from_coeffs(ca, la, ha - la + 1, p),
                        dense.from_coeffs(cb, lb, hb - lb + 1, p), n, p)
    return dense.to_coeffs(xs, den, la + lb, p)


def mul_through(ca: dict, cb: dict, hi: int | None) -> LaurentSeries:
    """Library mul of the series of ca and cb, known through x^hi (exact when
    hi is None): ca's terms that cannot reach x^hi are dropped, and the rest
    is known through hi - min(cb)."""
    b = LaurentSeries.from_terms(cb)
    if hi is None:
        return mul(LaurentSeries.from_terms(ca), b)
    top = hi - min(cb)
    a = LaurentSeries.truncated({e: c for e, c in ca.items() if e <= top}, Side.BELOW,
                                min(ca), top)
    return mul(a, b)


def _kernel_operand(rng, kind, lo, hi):
    # a dense-ish dict with gaps; kind is "q" or a prime
    coeffs = {}
    for e in range(lo, hi + 1):
        if rng.random() < 0.25:
            continue
        if kind == "q":
            big = rng.random() < 0.3
            num = rng.randint(-10**40, 10**40) if big else rng.randint(-6, 6)
            den = rng.randint(1, 10**30) if big else rng.randint(1, 4)
            coeffs[e] = Fraction(num, den)
        else:
            coeffs[e] = PrimeField(kind)(rng.randrange(kind))
    return {e: c for e, c in coeffs.items() if c}


def test_packed_kernel_matches_term_loop():
    rng = make_rng(41)
    checked = 0
    for _ in range(300):
        kind = rng.choice(["q", 2**31 - 1, 7])
        a0, b0 = rng.randint(-12, 6), rng.randint(-12, 6)
        ca = _kernel_operand(rng, kind, a0, a0 + rng.randint(0, 30))
        cb = _kernel_operand(rng, kind, b0, b0 + rng.randint(0, 30))
        if not (ca and cb):
            continue
        rng.choice([None, rng.randint(-24, 30)])  # the former lo, kept for the draws
        hi = rng.choice([None, rng.randint(-24, 60)])
        want = {e: c for e, c in _convolve_terms(ca, cb, hi).items() if c}
        got = _convolve_packed(ca, cb, hi)
        assert got == want
        assert all(type(c) is type(next(iter(ca.values()))) for c in got.values())
        assert {e: c for e, c in _convolve(ca, cb, hi).items() if c} == want
        # the library product, on the same window
        got = mul_through(ca, cb, hi)
        assert got.coeffs == want
        assert got.exact if hi is None else got.hi == hi
        assert all(type(c) is type(next(iter(ca.values()))) for c in got.coeffs.values())
        checked += 1
    assert checked > 250


def test_packed_kernel_cancellation_and_canonical_fractions():
    # (1 - x)(1 + x + ... + x^9) = 1 - x^10: the middle terms cancel exactly
    a = {0: Fraction(10**30, 7), 1: Fraction(-10**30, 7)}
    b = {e: Fraction(7, 10**30) for e in range(10)}
    for got in (_convolve_packed(a, b, None), mul_through(a, b, None).coeffs):
        assert got == {0: Fraction(1), 10: Fraction(-1)}
        assert all(c.denominator == 1 for c in got.values())
    assert mul(LaurentSeries.from_terms(a), LaurentSeries.from_terms(b)) == \
        LaurentSeries.from_terms({0: 1, 10: -1})


def test_sparse_product_stays_exact_and_fast():
    a = parse("1 + x^100000000")
    b = parse("2 - x^100000000")
    start = time.perf_counter()
    p = mul(a, b)
    assert time.perf_counter() - start < 0.5
    assert p == LaurentSeries.from_terms({0: 2, 100000000: 1, 200000000: -1})


def test_mixed_fields_still_raise_type_error():
    gf7 = PrimeField(7)
    q = LaurentSeries.from_terms({e: Fraction(e + 1, 2) for e in range(6)})
    g = LaurentSeries.from_terms({e: gf7(e + 1) for e in range(6)})
    with pytest.raises(TypeError):
        mul(q, g)
    with pytest.raises(TypeError):
        LaurentSeries.from_terms({0: Fraction(1), 1: gf7(1)})


def test_a_series_holds_one_field_of_exact_scalars():
    gf7, gf11 = PrimeField(7), PrimeField(11)
    with pytest.raises(TypeError, match="float"):
        LaurentSeries.from_terms({0: 0.1, 1: 1})
    builds = [LaurentSeries.from_terms,
              lambda t: LaurentSeries.truncated(t, Side.BELOW, -1, 3),
              lambda t: LaurentSeries.truncated(t, Side.ABOVE, -3, 1)]
    for bad in (0.5, Decimal(1), "1", 0.0):
        for build in builds:
            with pytest.raises(TypeError, match=type(bad).__name__):
                build({0: 1, 1: bad})
        with pytest.raises(TypeError, match=type(bad).__name__):
            monomial(bad, 3)
    two_primes = "PrimeFieldElement mod 7 and PrimeFieldElement mod 11"
    for terms, names in [({0: Fraction(1), 1: gf7(1)}, "Fraction and PrimeFieldElement mod 7"),
                         ({0: gf7(1), 1: 2}, "int and PrimeFieldElement mod 7"),
                         ({0: gf7(1), 1: gf11(1)}, two_primes),
                         ({0: gf7(1), 1: gf11(0)}, two_primes)]:
        for build in builds:
            with pytest.raises(TypeError, match="more than one field: " + names):
                build(terms)
    # a rational zero lies in every field
    a = LaurentSeries.from_terms({0: gf7(3), 1: Fraction(0), 2: 0, 3: gf7(1)})
    assert a.coeffs == {0: gf7(3), 3: gf7(1)}
    assert mul(a, a) == LaurentSeries.from_terms({0: gf7(2), 3: gf7(6), 6: gf7(1)})
    with pytest.raises(TypeError, match="bool"):  # an int subclass, but no scalar
        LaurentSeries.from_terms({0: True})


def test_operations_on_two_fields_raise_what_their_scalars_raise():
    gf7, gf11 = PrimeField(7), PrimeField(11)
    q = parse("1 + 2x - x^3")
    g7 = LaurentSeries.from_terms({0: gf7(1), 1: gf7(2), 3: gf7(6)})
    g11 = LaurentSeries.truncated({1: gf11(1), 2: gf11(5)}, Side.BELOW, 1, 6)
    omega = LaurentSeries.from_terms({1: gf7(1), 2: gf7(1)})
    for a, b, exc in [(q, g7, TypeError), (g7, q, TypeError), (g7, g11, ValueError),
                      (g11, g7, ValueError), (g11, omega, ValueError)]:
        for call in (add, mul, lambda x, y: compose(x, y, 6)):
            with pytest.raises(exc):
                call(a, b)
    with pytest.raises(ValueError, match="mixed prime fields"):
        add(g7, g11)
    with pytest.raises(TypeError, match="'Fraction' and 'PrimeFieldElement'"):
        mul(q, g7)


def test_compose_over_gf_p_with_an_inner_series_of_no_known_term():
    # chi decides the field of the sum; the power 0 of an omega with no term
    # is the 1 of Q, [1] over 1, which lies in every field
    gf7 = PrimeField(7)
    chi = LaurentSeries.from_terms({0: gf7(2), 1: gf7(-1), 2: gf7(-1)})
    got = compose(chi, LaurentSeries.truncated({}, Side.BELOW, 3, 2))
    assert got == LaurentSeries.truncated({0: gf7(2)}, Side.BELOW, 0, 2)
    assert format_series(got) == "2 + O(x^3)" and type(got[0]) is PrimeFieldElement


def test_a_modulus_is_checked_once_per_prime(monkeypatch):
    with pytest.raises(ValueError, match="4 is not prime"):
        LaurentSeries.from_terms({0: PrimeFieldElement(1, 4), 1: PrimeFieldElement(3, 4)})
    with pytest.raises(TypeError, match="a prime modulus is an int, not float"):
        monomial(PrimeFieldElement(1, 7.0))
    calls = []
    real = field._is_prime
    monkeypatch.setattr(field, "_PRIMES", set())
    monkeypatch.setattr(field, "_is_prime", lambda n: calls.append(n) or real(n))
    p = 2**31 - 1
    a = LaurentSeries.from_terms({e: PrimeFieldElement(e + 1, p) for e in range(40)})
    # the reciprocal's 40 coefficients are built as elements, then checked again
    b = LaurentSeries.from_terms(recip(a, Side.BELOW, 40).coeffs)
    one = mul(a, b)  # 1 + O(x^40)
    assert one[0] == 1 and not any(one[e] for e in range(1, 40))
    assert calls == [p]


def test_copy_and_pickle_rebuild_each_kind_of_series(monkeypatch):
    built = []
    real = dense.to_coeffs
    monkeypatch.setattr(dense, "to_coeffs", lambda *args: built.append(1) or real(*args))
    kernel = recip(parse("1 - x - x^2"), Side.BELOW, 20)
    assert kernel._form is not None and not built  # only the working form so far
    values = [parse("2x^-1 + 1/3 - x^4"),
              parse("1/(1-2x)", precision=7),
              parse("1/(1-2x)", Side.ABOVE, 7),
              kernel,
              LaurentSeries.truncated({}, Side.BELOW, 3, 7),
              LaurentSeries.truncated({}, Side.ABOVE, -2, 5),
              LaurentSeries.from_terms({0: PrimeField(7)(3), 2: PrimeField(7)(1)})]
    for s in values:
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s
            assert (twin.side, twin.exact, twin.lo, twin.hi) == (s.side, s.exact, s.lo, s.hi)
            assert twin.coeffs == s.coeffs
            assert format_series(twin) == format_series(s)
    m = riordan(parse("1 + x"), parse("x/(1-x)", precision=8), Side.BELOW, 8)
    assert copy.deepcopy(m) == m == pickle.loads(pickle.dumps(m))

    class Forged:  # an unpickled value passes the door too
        def __reduce__(self):
            return LaurentSeries, (Side.FINITE, {0: 0.5}, 0, -1)

    with pytest.raises(TypeError, match="float"):
        pickle.loads(pickle.dumps(Forged()))


# -- reciprocal and powers ---------------------------------------------------------


def test_recip_geometric():
    g = recip(parse("1-x"), Side.BELOW, 6)
    assert (g.lo, g.hi) == (0, 5)
    assert all(g[k] == 1 for k in range(6))


def test_recip_same_polynomial_other_side():
    h = recip(parse("x-1"), Side.ABOVE, 4)
    assert (h.lo, h.hi) == (-4, -1)
    assert all(h[-k] == 1 for k in range(1, 5))


def test_recip_monomial_stays_exact():
    m = recip(monomial(Fraction(2), 3))
    assert m.exact
    assert m == monomial(Fraction(1, 2), -3)


def test_recip_is_inverse_on_window():
    rng = make_rng(17)
    for _ in range(15):
        a = random_truncated(rng, Side.BELOW, rng.randint(-3, 3))
        assert eq_to_precision(mul(a, recip(a)), LaurentSeries.one())
    for _ in range(15):
        a = random_truncated(rng, Side.ABOVE, rng.randint(-3, 3))
        assert eq_to_precision(mul(a, recip(a)), LaurentSeries.one())


def test_recip_of_zero_rejected():
    with pytest.raises(ZeroSeriesError):
        recip(LaurentSeries.zero())
    # a window with no visible nonzero coefficient has no computable order
    with pytest.raises(OrderIndeterminateError):
        recip(LaurentSeries.truncated({}, Side.BELOW, 0, 5))


def test_power_matches_repeated_mul():
    a = parse("1+x", precision=12)
    direct = LaurentSeries.one()
    for j in range(5):
        assert power(a, j) == direct
        direct = mul(direct, a)


def test_power_negative_exponent():
    p = power(parse("1+x"), -1, Side.BELOW, 5)
    assert [p[k] for k in range(5)] == [1, -1, 1, -1, 1]
    assert power(monomial(2, 1), -3) == monomial(Fraction(1, 8), -3)


def test_power_zero_gives_one():
    assert power(parse("x^2 + x^5"), 0) == LaurentSeries.one()


def test_substitute_reciprocal_flips_side():
    a = LaurentSeries.truncated({1: 2, 3: 4}, Side.BELOW, 1, 6)
    b = substitute_reciprocal(a)
    assert b.side is Side.ABOVE
    assert (b.lo, b.hi) == (-6, -1)
    assert b[-1] == 2 and b[-3] == 4
    assert substitute_reciprocal(b) == a


def test_works_over_prime_field():
    gf7 = PrimeField(7)
    a = LaurentSeries.from_terms({0: gf7(1), 1: gf7(3)})
    g = recip(a, Side.BELOW, 5)
    assert eq_to_precision(mul(a, g), LaurentSeries.from_terms({0: gf7(1)}))


# -- parsing and formatting --------------------------------------------------------


def test_sum_and_negation_of_kernel_output_keep_the_dense_form(monkeypatch):
    built = []
    real = dense.to_coeffs
    monkeypatch.setattr(dense, "to_coeffs", lambda *args: built.append(1) or real(*args))
    below = add(parse("1/(1-x)", precision=64), parse("1/(1-2x)", precision=64))
    above = add(parse("1/(1-x)", Side.ABOVE, 64), neg(parse("-1/(1-2x)", Side.ABOVE, 64)))
    assert not built and below._form and above._form
    assert below == LaurentSeries.truncated(
        {k: 1 + Fraction(2) ** k for k in range(64)}, Side.BELOW, 0, 63)
    assert above == LaurentSeries.truncated(
        {-k: -1 - Fraction(1, 2) ** k for k in range(1, 65)}, Side.ABOVE, -64, -1)


def test_parse_canonical_examples():
    assert format_series(parse("1/(1-x)", precision=4)) == "1 + x + x^2 + x^3 + O(x^4)"
    assert format_series(parse("6x")) == "6x"
    assert format_series(parse("-x")) == "-x"
    assert format_series(parse("3/4x^2")) == "3/4x^2"
    assert format_series(parse("x^-1")) == "x^-1"
    assert format_series(parse("0")) == "0"


def test_parse_tight_fraction_is_coefficient():
    assert parse("3/4x^2") == LaurentSeries.from_terms({2: Fraction(3, 4)})
    # with whitespace the slash is division: 3 / (4x^2) = (3/4) x^-2
    spaced = parse("3 / 4x^2", precision=6)
    assert spaced == monomial(Fraction(3, 4), -2)


def test_parse_products_and_parentheses():
    assert parse("(1+x)*(1-x)") == parse("1 - x^2")
    assert parse("2*x*(1+x)^2") == parse("2x + 4x^2 + 2x^3")
    assert parse("x^2 * x^-5") == monomial(1, -3)
    assert parse("-(1+x)") == parse("-1 - x")


def test_parse_division_depends_on_side():
    below = parse("1/(1-x)", Side.BELOW, 5)
    assert below.side is Side.BELOW and below[3] == 1
    above = parse("1/(1-x)", Side.ABOVE, 5)
    assert above.side is Side.ABOVE
    assert above[-1] == -1 and above[-4] == -1


def test_format_marker_placement():
    a = parse("1/(1-x)", precision=4)
    assert format_series(a).endswith("+ O(x^4)")
    b = parse("1/(1-x)", Side.ABOVE, 3)
    assert format_series(b).endswith("+ O(x^-4)")
    c = LaurentSeries.truncated({}, Side.BELOW, 1, 0)
    assert format_series(c) == "O(x)"


def test_parse_errors_carry_position():
    for text in ["1++x", "x^", "(1+x", "3/0", ""]:
        with pytest.raises(ParseError):
            parse(text)
    try:
        parse("1+ +x")
    except ParseError as exc:
        assert "position" in str(exc)


def test_parse_reads_only_the_digits_int_reads():
    # '²' passes str.isdigit but not int(): a character like any other
    for text, message in [("x^²", "expected integer exponent (at position 2)"),
                          ("2²x", "unexpected '²' (at position 1)"),
                          ("²", "unexpected '²' (at position 0)")]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message
    # other decimal digits are digits: fullwidth 3 and Arabic-Indic 2
    assert parse("\uff13x^\u0662") == monomial(3, 2)


def test_parse_nesting_is_bounded():
    assert parse("(" * 100 + "1-x" + ")" * 100) == parse("1-x")
    assert parse("-" * 3000 + "x") == parse("x")
    with pytest.raises(ParseError):
        parse("(" * 2000 + "x" + ")" * 2000)


def test_format_random_round_trip():
    rng = make_rng(23)
    for _ in range(25):
        a = random_truncated(rng, Side.BELOW, rng.randint(-4, 4), count=6)
        # the term part of the rendering reparses to the same coefficients
        text = format_series(a)
        head, _, marker = text.rpartition("+ O")
        assert marker
        again = parse(head.strip() or "0", Side.BELOW, 16)
        assert again.coeffs == a.coeffs


# -- composition -------------------------------------------------------------------


def test_compose_below_below():
    chi = parse("1/(1-x)", precision=8)
    omega = parse("x/(1-x)", precision=8)
    got = compose(chi, omega, 8)
    # 1/(1 - x/(1-x)) = (1-x)/(1-2x): coefficients 1, 1, 2, 4, 8, ...
    want = mul(parse("1-x"), recip(parse("1-2x"), Side.BELOW, 10))
    assert eq_to_precision(got, want)
    assert got.side is Side.BELOW


def test_compose_below_with_above_inner():
    chi = parse("1/(1-x)", precision=6)
    got = compose(chi, monomial(1, -1), 6)
    assert got.side is Side.ABOVE
    assert all(got[-k] == 1 for k in range(6))


def test_compose_above_with_below_inner():
    chi = parse("1/(1-x)", Side.ABOVE, 6)
    got = compose(chi, monomial(1, -1), 6)
    assert got.side is Side.BELOW
    assert all(got[k] == chi[-k] for k in range(1, 6))


def test_compose_above_above():
    chi = parse("1/(1-x)", Side.ABOVE, 8)
    omega = parse("x+1", Side.ABOVE, 8)
    got = compose(chi, omega, 8, Side.ABOVE)
    # 1/(1-(x+1)) = -1/x expanded above
    assert got.side is Side.ABOVE
    assert got[-1] == -1
    assert all(got[-k] == 0 for k in range(2, 6))


def test_compose_finite_outer_matches_direct_expansion():
    rng = make_rng(31)
    for _ in range(10):
        chi = random_polynomial(rng, 0, 3)
        omega = random_polynomial(rng, 1, 3)
        if omega.is_zero():
            continue
        direct = LaurentSeries.zero()
        acc = LaurentSeries.one()
        for e in range(0, 4):
            direct = add(direct, mul(monomial(chi[e]), acc))
            acc = mul(acc, omega)
        assert compose(chi, omega) == direct


def test_compose_finite_outer_negative_powers_need_side():
    chi = parse("x^-1")
    omega = parse("1+x")
    below = compose(chi, omega, 5, Side.BELOW)
    assert below.side is Side.BELOW and below[0] == 1 and below[1] == -1
    above = compose(chi, omega, 5, Side.ABOVE)
    assert above.side is Side.ABOVE and above[-1] == 1


def test_compose_rejects_order_zero_inner():
    chi = parse("1/(1-x)", precision=5)
    with pytest.raises(CompositionUndefinedError):
        compose(chi, parse("2+x"))
    with pytest.raises(CompositionUndefinedError):
        compose(chi, LaurentSeries.zero())


def test_compose_with_an_inner_series_of_no_known_term_has_no_order():
    # on either side of chi and of omega, before any reciprocal of omega
    for side in (Side.BELOW, Side.ABOVE):
        omega = LaurentSeries.truncated({}, side, 0, 5)
        for chi_side in (Side.BELOW, Side.ABOVE):
            chi = parse("1/(1-x)", chi_side, 5)
            with pytest.raises(OrderIndeterminateError,
                               match="^inner series has indeterminate order$"):
                compose(chi, omega, 5, side)


def test_compose_window_matches_term_cap():
    chi = LaurentSeries.truncated({0: 1, 1: 1, 2: 1}, Side.BELOW, 0, 2)
    omega = parse("x/(1-x)", precision=10)
    got = compose(chi, omega, 10)
    # only three known outer coefficients: results certified to x^2
    assert got.hi == 2


def test_compose_associativity_spot_check():
    chi = parse("1/(1-x)", precision=10)
    omega = parse("x/(1-x)", precision=10)
    tau = parse("x+x^2", precision=10)
    left = compose(compose(chi, omega, 10), tau, 10)
    right = compose(chi, compose(omega, tau, 10), 10)
    assert eq_to_precision(left, right)


# -- compositional inverse ---------------------------------------------------------


def test_reversion_classic_pair():
    omega = parse("x/(1-x)", precision=8)
    inv = compositional_inverse(omega, 8)
    want = parse("x/(1+x)", precision=8)
    assert eq_to_precision(inv, want)


def test_reversion_catalan_counts():
    inv = compositional_inverse(parse("x - x^2"), 7)
    catalan = [1, 1, 2, 5, 14, 42]
    for n, c in enumerate(catalan, start=1):
        assert inv[n] == c


def test_reversion_round_trips():
    rng = make_rng(41)
    for _ in range(8):
        coeffs = {1: random_rational_nonzero(rng)}
        for e in range(2, 10):
            coeffs[e] = Fraction(rng.randint(-4, 4))
        omega = LaurentSeries.truncated(coeffs, Side.BELOW, 1, 9)
        inv = compositional_inverse(omega)
        assert eq_to_precision(compose(omega, inv, 9), monomial(1, 1))
        assert eq_to_precision(compose(inv, omega, 9), monomial(1, 1))


def random_rational_nonzero(rng):
    from conftest import random_rational

    return random_rational(rng, allow_zero=False)


def test_inverse_of_order_minus_one_below():
    omega = parse("1/x + 1", precision=10)  # order -1 below
    inv = compositional_inverse(omega, 10)
    assert inv.side is Side.ABOVE
    assert eq_to_precision(compose(omega, inv, 8), monomial(1, 1))


def test_inverse_of_affine_above():
    omega = parse("2+x")  # above order 1
    inv = compositional_inverse(omega, 8)
    assert eq_to_precision(compose(omega, inv, 8, Side.ABOVE), monomial(1, 1))


def test_inverse_rejects_wrong_orders():
    for text, side in [("2+x", Side.BELOW), ("x^2", Side.BELOW), ("x^-2", Side.ABOVE)]:
        omega = parse(text, side, 8)
        if text == "2+x":
            forced = LaurentSeries.truncated(dict(omega.coeffs), Side.BELOW, 0, 8)
            with pytest.raises(NotInvertibleError):
                compositional_inverse(forced)
        else:
            forced = LaurentSeries.truncated(dict(omega.coeffs), side,
                                             omega.lo, omega.hi)
            with pytest.raises(NotInvertibleError):
                compositional_inverse(forced)
    with pytest.raises(ZeroSeriesError):
        compositional_inverse(LaurentSeries.zero())


def test_inverse_of_a_series_of_no_known_term_has_no_order():
    # a window of zeros fixes no order on its side, so no case applies
    with pytest.raises(OrderIndeterminateError,
                       match="compositional inverse needs a computable order"):
        compositional_inverse(LaurentSeries.truncated({}, Side.BELOW, 0, 5))


# -- agreement predicate -----------------------------------------------------------


def test_eq_to_precision_compares_shared_window():
    a = LaurentSeries.truncated({0: 1, 1: 1, 6: 9}, Side.BELOW, 0, 9)
    b = LaurentSeries.truncated({0: 1, 1: 1}, Side.BELOW, 0, 4)
    # the coefficient at x^6 lies outside the shared window and is ignored
    assert eq_to_precision(a, b)
    c = LaurentSeries.truncated({0: 1, 1: 2}, Side.BELOW, 0, 4)
    assert not eq_to_precision(a, c)


# -- J-equivariance ----------------------------------------------------------------
#
# J = substitute_reciprocal is the flip x -> 1/x.  Each bounded-above result
# must equal the flip of the matching bounded-below computation, window and
# side included (== compares side, lo, hi and coefficients).

J = substitute_reciprocal


def _exact_with_ends(rng, lo, hi):
    # exact Laurent polynomial whose lowest and highest terms are lo and hi
    coeffs = {e: random_rational(rng) for e in range(lo, hi + 1)}
    coeffs[lo] = random_rational(rng, allow_zero=False)
    coeffs[hi] = random_rational(rng, allow_zero=False)
    return LaurentSeries.from_terms(coeffs)


def _below_or_exact(rng, exact_share=0.3):
    if rng.random() < exact_share:
        return random_polynomial(rng, rng.randint(-3, 1), rng.randint(1, 3))
    return random_truncated(rng, Side.BELOW, rng.randint(-3, 3),
                            count=rng.randint(1, 8))


def _outer(rng):
    # an inexact bounded-below outer series, negative orders included
    return random_truncated(rng, Side.BELOW, rng.randint(-2, 2),
                            count=rng.randint(1, 6))


def _inner(rng, side, order):
    # an inner series of the given order on `side`, exact or inexact
    if rng.random() < 0.3:
        other = order + rng.randint(0, 2) if side is Side.BELOW \
            else order - rng.randint(0, 2)
        return _exact_with_ends(rng, min(order, other), max(order, other))
    return random_truncated(rng, side, order, count=rng.randint(1, 6))


def test_add_mul_recip_above_are_flips_of_below():
    rng = make_rng(71)
    for _ in range(60):
        a, b = J(_below_or_exact(rng)), J(_below_or_exact(rng))
        if a.exact and b.exact:
            continue
        assert add(a, b) == J(add(J(a), J(b)))
        assert add(b, a) == J(add(J(b), J(a)))
        assert mul(a, b) == J(mul(J(a), J(b)))
        assert mul(b, a) == J(mul(J(b), J(a)))
        for c in (a, b):
            if not c.is_zero() and (c.exact or c.coeffs):
                assert recip(c, Side.ABOVE, 7) == J(recip(J(c), Side.BELOW, 7))


def test_compose_cases_are_flips_of_the_kernel_case():
    rng = make_rng(72)
    for _ in range(25):
        chi = _outer(rng)
        # bounded-below outer: chi(omega) is the flip of chi(J omega)
        omega = _inner(rng, Side.BELOW, rng.randint(1, 2))
        assert compose(chi, omega, 6) == J(compose(chi, J(omega), 6, Side.ABOVE))
        omega = _inner(rng, Side.ABOVE, -rng.randint(1, 2))
        assert compose(chi, omega, 6, Side.ABOVE) == J(compose(chi, J(omega), 6))
        # bounded-above outer: chi(omega) = (J chi)(1/omega)
        chi = J(chi)
        omega = _inner(rng, Side.BELOW, -rng.randint(1, 2))
        assert compose(chi, omega, 6) == compose(
            J(chi), recip(omega, Side.BELOW, 6), 6)
        omega = _inner(rng, Side.ABOVE, rng.randint(1, 2))
        if omega.exact and omega.lo <= -1:
            continue
        assert compose(chi, omega, 6, Side.ABOVE) == compose(
            J(chi), recip(omega, Side.ABOVE, 6), 6)


def test_compositional_inverse_above_is_flip_of_below():
    rng = make_rng(73)
    for _ in range(25):
        for order in (1, -1):
            if rng.random() < 0.3:
                # the lowest exponent keeps the bounded-below order off +-1
                low = rng.choice([0, -2, -3]) if order == 1 else rng.randint(-4, -2)
                omega = _exact_with_ends(rng, low, order)
            else:
                omega = random_truncated(rng, Side.ABOVE, order,
                                         count=rng.randint(2, 6))
            got = compositional_inverse(omega, 6)
            assert got == recip(compositional_inverse(J(omega), 6), None, 6)


def test_power_owns_the_exponent_budget():
    with pytest.raises(ValueError, match="at most 10000"):
        power(parse("1+x"), 10001)
    with pytest.raises(ValueError, match="at most 10000"):
        power(parse("1+x"), -10001)
    # inexact bases of several known terms obey the same rule, on every route
    with pytest.raises(ValueError, match="at most 10000"):
        compose(monomial(1, 30000), parse("x/(1-x)"))
    assert power(parse("1+x"), 3) == parse("1+3x+3x^2+x^3")
    assert power(parse("-x"), 30001) == monomial(-1, 30001)


def test_monomial_powers_obey_the_bit_budget_on_every_route():
    # 4 and 1/4 have 3 bits, so (4x)^j has more than 2j bits: 524288 is
    # refused, 524287 is the largest exponent taken
    for base in (monomial(4, 1), monomial(Fraction(1, 4), 1)):
        for call in (lambda: power(base, 524_288),
                     lambda: power(base, -524_288),
                     lambda: compose(monomial(1, 524_288), base),
                     lambda: base ** 524_288,
                     lambda: parse(f"({format_series(base)})^-524288")):
            with pytest.raises(ValueError, match="more than 1048576 bits"):
                call()
    assert power(monomial(4, 1), 524_287) == monomial(1 << 1_048_574, 524_287)
    # a unit coefficient and a coefficient in GF(p) take any exponent
    assert power(monomial(-1, 1), -10**8) == monomial(1, -10**8)
    gf7 = PrimeField(7)
    assert power(monomial(gf7(3), 0), 10**8) == monomial(gf7(pow(3, 10**8, 7)), 0)


def test_precision_below_one_is_a_value_error():
    for precision in (0, -3):
        for call in (lambda: recip(parse("1+x"), precision=precision),
                     lambda: power(parse("1+x"), -2, precision=precision),
                     lambda: compositional_inverse(parse("x+x^2"), precision),
                     lambda: compose(monomial(1, -1), parse("1+x"), precision)):
            with pytest.raises(ValueError, match="precision must be at least 1"):
                call()
        with pytest.raises(ValueError, match="precision must be at least 1"):
            parse("1/(1-x)", precision=precision)


def test_composition_budget_is_on_the_dense_length():
    # chi known through x^1 on omega of order 50000: 2 x 50000 dense
    # coefficients, at the limit; through x^2 it would take 150000
    omega = parse("x^50000+x^50001")
    assert compose(parse("1/(1-x)", precision=2), omega) == LaurentSeries.truncated(
        {0: 1, 50000: 1, 50001: 1}, Side.BELOW, 0, 99999)
    with pytest.raises(ValueError, match="150000 dense coefficients, more than 100000"):
        compose(parse("1/(1-x)", precision=3), omega)


def test_bounded_above_chi_expands_one_over_a_finite_omega_on_the_given_side():
    # x^-1 + x^2 has order -1 below and 2 above, so 1/omega has an expansion
    # of nonzero order on either side; `side` picks it, bounded below by default
    chi, omega = parse("1/(1-x^-1)", Side.ABOVE, 6), parse("x^-1+x^2")
    below = parse("1+x+x^2+x^3-x^5")
    assert compose(chi, omega, 6) == compose(chi, omega, 6, Side.BELOW)
    assert eq_to_precision(compose(chi, omega, 6), below)
    above = compose(chi, omega, 6, Side.ABOVE)
    assert above.side is Side.ABOVE and above.lo == -7
    assert eq_to_precision(above, substitute_reciprocal(
        parse("1+x^2+x^4-x^5+x^6-2x^7")))
    assert above == substitute_reciprocal(
        compose(chi, substitute_reciprocal(omega), 6, Side.BELOW))
