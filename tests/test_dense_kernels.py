"""The dense kernels against the scalar loops they replaced.

`recip`, `_compose_kernel`, `_reversion` and `power` run on the dense
working form of `biriordan.dense` (long division for short divisors and
Newton iteration otherwise, Paterson and Stockmeyer's composition and
baby-step giant-step Lagrange inversion over packed integer products, and
Miller's recurrence for exact bases over Q), and so do the walks over the
powers of omega behind matrix columns and compositions with an exact chi.
The functions prefixed `ref_` below are the earlier versions, kept here as
references: the O(n^2) reciprocal recurrence, the compose loop accumulating
chi_k * omega^k with `mul`/`add` (for an inexact chi over its window, and
for an exact chi over its support), reversion by back-substitution,
powering by repeated squaring, matrix columns as alpha times each power,
and the packed kernels they were replaced by first: Newton iteration for
every divisor, Horner's rule and Lagrange inversion with one product per
coefficient.  The inverse of a ratio by its equation (`dense.invert`) is
checked against Lagrange's scheme, the route it replaced.  Results must be
equal with `==`, which compares side, exactness, window and every
coefficient.
"""

from __future__ import annotations

import functools
import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from biriordan import dense, series
from biriordan.field import PrimeField, PrimeFieldElement, field_of
from biriordan.riordan import apply, j_conjugate, lagrange, riordan
from biriordan.series import (
    DEFAULT_PRECISION,
    MAX_EXPONENT,
    LaurentSeries,
    Side,
    _compose_kernel,
    _known_count,
    _reversion,
    add,
    compose,
    compositional_inverse,
    monomial,
    mul,
    parse,
    power,
    powers,
    recip,
    substitute_reciprocal,
)
from biriordan.window import extract
from conftest import convolve_dicts
from test_series import _convolve, mul_through

FIELDS = ("q", 7, 2**31 - 1)


# -- the references ------------------------------------------------------------------


def ref_recip(a: LaurentSeries, precision: int | None) -> LaurentSeries:
    """Bounded-below reciprocal of a non-monomial series, term by term."""
    m = a.order(Side.BELOW)
    count = a.count_from_order()
    if count is None:
        count = precision if precision is not None else DEFAULT_PRECISION
    u = [a.coeffs.get(m + i, 0) for i in range(count)]
    v = [1 / u[0]]
    for k in range(1, count):
        s = 0
        for i in range(1, k + 1):
            if u[i]:
                s = s + u[i] * v[k - i]
        v.append(-(s / u[0]))
    terms = {-m + i: v[i] for i in range(count)}
    return LaurentSeries.truncated(terms, Side.BELOW, -m, -m + count - 1)


def ref_power(a: LaurentSeries, j: int, precision: int | None) -> LaurentSeries:
    if j >= 0 or (a.exact and len(a.coeffs) == 1):
        return power(a, j, Side.BELOW, precision)
    return power(ref_recip(a, precision), -j)


def ref_binary_power(a: LaurentSeries, j: int, side=None,
                     precision: int | None = None) -> LaurentSeries:
    """a ** j by repeated squaring, after recip for j < 0 (j != 0)."""
    base = a if j > 0 else recip(a, side, precision)
    n = abs(j)
    result = None
    sq = base
    while n:
        if n & 1:
            result = sq if result is None else mul(result, sq)
        n >>= 1
        if n:
            sq = mul(sq, sq)
    return result


def ref_compose_kernel(chi: LaurentSeries, omega: LaurentSeries,
                       precision: int | None) -> LaurentSeries:
    """chi bounded below, omega of order w >= 1: sum of chi_k * omega^k with
    mul/add, whose known regions intersect to the binding window."""
    w = omega.lo
    m = chi.lo
    chi_cap = (chi.hi + 1) * w - 1
    acc = None
    cur = ref_power(omega, m, precision)
    for k in range(m, chi.hi + 1):
        c = chi.coeffs.get(k)
        if c:
            term = mul(monomial(c), cur)
            acc = term if acc is None else add(acc, term)
        if k < chi.hi:
            cur = mul(cur, omega)
    if acc is None:
        return LaurentSeries.truncated({}, Side.BELOW, m * w, chi_cap)
    cap = chi_cap if acc.exact else min(chi_cap, acc.hi)
    terms = {e: c for e, c in acc.coeffs.items() if e <= cap}
    return LaurentSeries.truncated(terms, Side.BELOW, m * w, cap)


def ref_power_at(a: LaurentSeries, j: int, side=None,
                 precision: int | None = None) -> LaurentSeries:
    """a ** j by repeated squaring, after the exponent budget of power."""
    if abs(j) > MAX_EXPONENT and len(a.coeffs) > 1:
        raise ValueError(f"exponent must be at most {MAX_EXPONENT} in absolute value")
    if j == 0:
        return power(a, 0)
    return ref_binary_power(a, j, side, precision)


def ref_columns(alpha: LaurentSeries, omega: LaurentSeries, js, side,
                precision: int | None) -> dict:
    """Column j as alpha times its own power of omega, in ascending j."""
    return {j: mul(alpha, ref_power_at(omega, j, side, precision))
            for j in sorted(set(js))}


def ref_compose_exact(chi: LaurentSeries, omega: LaurentSeries,
                      precision: int | None = None, side=None) -> LaurentSeries:
    """chi exact and nonzero: the sum of chi_k * omega^k with mul/add over
    chi's support in ascending k, each power expanded on the side compose
    expands it on."""
    work = omega.side if omega.side is not Side.FINITE else (side or Side.BELOW)
    result = None
    for e in sorted(chi.coeffs):
        term = mul(monomial(chi.coeffs[e]), ref_power_at(omega, e, work, precision))
        result = term if result is None else add(result, term)
    return result


def ref_reversion(omega: LaurentSeries, precision: int | None) -> LaurentSeries:
    """omega of order exactly 1, inverted coefficient by coefficient:
    inv[n] = -(sum over k < n of inv[k] [x^n] omega^k) / w1^n."""
    if omega.exact and len(omega.coeffs) == 1:
        return monomial(1 / omega.coeffs[1], 1)
    if omega.exact:
        cap = precision if precision is not None else DEFAULT_PRECISION
    else:
        cap = omega.hi
    w = {e: c for e, c in omega.coeffs.items() if e <= cap}
    w1 = w[1]
    inv = {1: 1 / w1}
    sums: dict = {}
    cur = w
    w1n = w1
    for n in range(2, cap + 1):
        c = inv[n - 1]
        if c:
            for e, t in cur.items():
                if e >= n and t:
                    sums[e] = sums.get(e, 0) + c * t
        w1n = w1n * w1
        inv[n] = -(sums.get(n, 0) / w1n)
        if n < cap:
            cur = _convolve(cur, w, hi=cap)
    return LaurentSeries.truncated(inv, Side.BELOW, 1, cap)


def ref_newton(u: tuple, n: int, p: int) -> tuple:
    """dense.recip by Newton iteration for every divisor: when v is right to
    k coefficients, u*v = 1 + x^k*e and v - x^k*(v*e) is right to 2k."""
    xs, den = u
    if p:
        v = ([pow(xs[0], -1, p)], 1)
    else:
        v = ([den], xs[0]) if xs[0] > 0 else ([-den], -xs[0])
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        ex, ed = dense.mul(u, v, k2, p)
        vx, vd = dense.mul(v, (ex[k:], ed), k2 - k, p)
        v = dense.join(v, ([-x for x in vx], vd), p)
        k = k2
    return v


def ref_newton_recip(a: LaurentSeries, precision: int | None) -> LaurentSeries:
    """The bounded-below reciprocal of a non-monomial series by ref_newton."""
    m = a.order(Side.BELOW)
    count = _known_count(a, precision)
    p = field_of([a.coeffs[e] for e in sorted(a.coeffs) if e < m + count])
    xs, den = ref_newton(dense.from_coeffs(a.coeffs, m, count, p), count, p)
    return LaurentSeries.truncated(dense.to_coeffs(xs, den, -m, p), Side.BELOW,
                                   -m, -m + count - 1)


def ref_horner_compose_kernel(chi: LaurentSeries, omega: LaurentSeries,
                              precision: int | None) -> LaurentSeries:
    """_compose_kernel with the sum by Horner's rule: one packed product per
    coefficient of chi, each truncated to what still reaches x^cap."""
    w = omega.lo
    m = chi.lo
    cap = (chi.hi + 1) * w - 1
    if not chi.coeffs:
        return LaurentSeries.truncated({}, Side.BELOW, m * w, cap)
    head = power(omega, m, Side.BELOW, precision)
    if not head.exact:
        cap = min(cap, head.hi)
    elif not omega.exact:
        later = [k for k in chi.coeffs if k > 0]
        if later:
            cap = min(cap, omega.hi + (min(later) - 1) * w)
    n = cap - m * w + 1
    top = min(chi.hi, m + (n - 1) // w)
    p = field_of([*omega.coeffs.values(),
                  *[chi.coeffs[k] for k in sorted(chi.coeffs)]])
    if omega.exact and len(omega.coeffs) == 1:
        c, ck = omega.coeffs[w], head.coeffs[m * w]
        terms = {}
        for k in range(m, top + 1):
            if k in chi.coeffs:
                terms[k * w] = chi.coeffs[k] * ck
            ck = ck * c
        return LaurentSeries.truncated(terms, Side.BELOW, m * w, cap)
    cs, dc = dense.from_coeffs(chi.coeffs, m, top - m + 1, p)
    tail = dense.from_coeffs(omega.coeffs, w, n - w, p)
    acc = ([cs[-1]], dc)
    for k in range(top - 1, m - 1, -1):
        prod = dense.mul(acc, tail, n - (k + 1 - m) * w, p)
        acc = dense.join(([cs[k - m]] + [0] * (w - 1), dc), prod, p)
    xs, den = dense.mul(dense.from_coeffs(head.coeffs, m * w, n, p), acc, n, p)
    return LaurentSeries.truncated(dense.to_coeffs(xs, den, m * w, p),
                                   Side.BELOW, m * w, cap)


def ref_lagrange_reversion(omega: LaurentSeries,
                           precision: int | None) -> LaurentSeries:
    """_reversion with one packed product per coefficient: with psi =
    x/omega, [x^n] omega^-1 = [x^(n-1)] psi^(n-1) (psi - x psi'), each
    q = psi^(n-1) (psi - x psi') the previous one times psi."""
    if omega.exact and len(omega.coeffs) == 1:
        return monomial(1 / omega.coeffs[1], 1)
    cap = _known_count(omega, precision)
    p = field_of(
        [omega.coeffs[e] for e in sorted(omega.coeffs) if e <= cap])
    psi = ref_newton(dense.from_coeffs(omega.coeffs, 1, cap, p), cap, p)
    q = ([(1 - i) * x for i, x in enumerate(psi[0])], psi[1])
    inv = {}
    for n in range(1, cap + 1):
        x, den = q[0][n - 1], q[1]
        inv[n] = PrimeFieldElement(x, p) if p else Fraction(x, den)
        if n < cap:
            q = dense.mul(q, psi, cap, p)
    return LaurentSeries.truncated(inv, Side.BELOW, 1, cap)


# -- random operands -------------------------------------------------------------------


def scalar(rng: random.Random, field):
    if field == "q":
        num = rng.randint(-6, 6) if rng.random() < 0.9 else rng.randint(-10**15, 10**15)
        return Fraction(num, rng.randint(1, 5))
    # PrimeField tests primality by trial division: build each field once
    return prime_field(field)(rng.randrange(field))


prime_field = functools.cache(PrimeField)


def nonzero(rng: random.Random, field):
    while True:
        c = scalar(rng, field)
        if c:
            return c


def below(rng: random.Random, field, order: int, count: int,
          exact: bool = False) -> LaurentSeries:
    """A series of the given order with `count` coefficients from it (some
    zero); exact, or known exactly on that window."""
    terms = {order + i: scalar(rng, field) for i in range(1, count)}
    terms[order] = nonzero(rng, field)
    if exact:
        return LaurentSeries.from_terms(terms)
    return LaurentSeries.truncated(terms, Side.BELOW, order, order + count - 1)


def outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def same(got_fn, want_fn):
    """Both calls return equal series, or raise the same exception."""
    try:
        want = want_fn()
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            got_fn()
        assert str(info.value) == str(exc)
        return None
    got = got_fn()
    assert got == want
    return got


# -- reciprocal ---------------------------------------------------------------------


def test_recip_matches_recurrence_over_each_field():
    rng = random.Random(101)
    for _ in range(150):
        field = rng.choice(FIELDS)
        exact = rng.random() < 0.4
        a = below(rng, field, rng.randint(-4, 4), rng.randint(2, 24), exact)
        prec = rng.choice([None, 1, 2, 7, 16, 25])
        if a.exact and len(a.coeffs) == 1:
            continue
        same(lambda: recip(a, Side.BELOW, prec), lambda: ref_recip(a, prec))


def test_recip_above_and_negative_orders_match_through_the_flip():
    rng = random.Random(102)
    for _ in range(40):
        field = rng.choice(FIELDS)
        a = below(rng, field, rng.randint(-5, -1), rng.randint(2, 20))
        flipped = LaurentSeries.truncated({-e: c for e, c in a.coeffs.items()},
                                          Side.ABOVE, -a.hi, -a.lo)
        want = ref_recip(a, None)
        assert recip(a) == want
        got = recip(flipped)
        assert got.side is Side.ABOVE
        assert {-e: c for e, c in got.coeffs.items()} == want.coeffs
        assert (-got.hi, -got.lo) == (want.lo, want.hi)


def test_recip_fractions_are_canonical_after_cancellation():
    # (1 - x^2) with every coefficient scaled by 10^20/7: the reciprocal is
    # 7/10^20 * (1 + x^2 + x^4 + ...), whose odd terms cancel exactly
    s = Fraction(10**20, 7)
    a = LaurentSeries.from_terms({0: s, 2: -s})
    got = recip(a, Side.BELOW, 9)
    assert got == ref_recip(a, 9)
    assert got.coeffs == {e: 1 / s for e in range(0, 9, 2)}
    assert all(math.gcd(c.numerator, c.denominator) == 1 for c in got.coeffs.values())


def test_recip_of_mixed_fields_raises_what_the_recurrence_raised():
    gf7, gf11 = PrimeField(7), PrimeField(11)
    cases = [
        {0: Fraction(2), 1: gf7(3)},
        {0: gf7(2), 2: Fraction(1, 3)},
        {0: gf7(2), 1: gf11(3)},
    ]
    # a series holds one field: the mixed series is refused when built
    for terms in cases:
        with pytest.raises(TypeError, match="more than one field"):
            LaurentSeries.truncated(terms, Side.BELOW, 0, 4)
    # one known coefficient multiplies nothing, so nothing is raised
    a = LaurentSeries.truncated({0: Fraction(2)}, Side.BELOW, 0, 0)
    assert recip(a) == ref_recip(a, None)


# -- composition ---------------------------------------------------------------------


def test_compose_kernel_matches_mul_add_loop():
    rng = random.Random(103)
    checked = 0
    for _ in range(150):
        field = rng.choice(FIELDS)
        chi = below(rng, field, rng.randint(-3, 3), rng.randint(1, 14))
        w = rng.choice([1, 1, 2, 3])
        kind = rng.random()
        if kind < 0.15:
            omega = monomial(nonzero(rng, field), w)
        else:
            omega = below(rng, field, w, rng.randint(1, 14), exact=kind < 0.45)
        prec = rng.choice([None, 3, 8, 17])
        got = same(lambda: _compose_kernel(chi, omega, prec),
                   lambda: ref_compose_kernel(chi, omega, prec))
        assert compose(chi, omega, prec) == got
        checked += 1
    assert checked == 150


def test_compose_kernel_edge_windows():
    rng = random.Random(104)
    omega = below(rng, "q", 1, 6)
    # chi with no known nonzero coefficient: an empty window starting at x^(m w)
    for chi in (LaurentSeries.truncated({}, Side.BELOW, 3, 7),
                LaurentSeries.truncated({}, Side.BELOW, -2, -1)):
        assert _compose_kernel(chi, omega, 8) == ref_compose_kernel(chi, omega, 8)
    # m = 0 with an inexact omega: the first later nonzero term binds
    chi = LaurentSeries.truncated({0: Fraction(3), 4: Fraction(-1, 2)},
                                  Side.BELOW, 0, 9)
    got = _compose_kernel(chi, omega, 8)
    assert got == ref_compose_kernel(chi, omega, 8)
    assert got.hi == omega.hi + 3
    # only chi_0 known nonzero: every term is exact, chi's truncation binds
    chi = LaurentSeries.truncated({0: Fraction(3)}, Side.BELOW, 0, 4)
    assert _compose_kernel(chi, omega, 8) == ref_compose_kernel(chi, omega, 8)
    # negative order over an exact omega: omega^m comes from the reciprocal
    chi = below(rng, "q", -3, 8)
    omega = parse("x + 2x^2 - x^3")
    assert _compose_kernel(chi, omega, 6) == ref_compose_kernel(chi, omega, 6)


def test_compose_cancels_to_canonical_fractions():
    # 1/(1+x) composed with x/(1-x) is 1 - x exactly on the window
    chi = parse("1/(1+x)", precision=10)
    omega = parse("x/(1-x)", precision=10)
    got = compose(chi, omega, 10)
    assert got == ref_compose_kernel(chi, omega, 10)
    assert got.coeffs == {0: Fraction(1), 1: Fraction(-1)}
    assert all(c.denominator == 1 for c in got.coeffs.values())


def test_compose_of_mixed_fields_raises_what_the_loop_raised():
    rng = random.Random(105)
    pairs = [("q", 7), (7, "q"), (7, 11), (2**31 - 1, 7)]
    for chi_field, omega_field in pairs:
        for exact in (False, True):
            chi = below(rng, chi_field, rng.randint(-1, 2), 5)
            omega = below(rng, omega_field, 1, 5, exact)
            with pytest.raises(TypeError if "q" in (chi_field, omega_field)
                               else ValueError):
                _compose_kernel(chi, omega, 6)
            same(lambda: _compose_kernel(chi, omega, 6),
                 lambda: ref_compose_kernel(chi, omega, 6))


# -- reversion -----------------------------------------------------------------------


def test_reversion_matches_back_substitution():
    rng = random.Random(106)
    for _ in range(150):
        field = rng.choice(FIELDS)
        kind = rng.random()
        if kind < 0.1:
            omega = monomial(nonzero(rng, field), 1)
        else:
            omega = below(rng, field, 1, rng.randint(1, 20), exact=kind < 0.4)
        prec = rng.choice([None, 1, 5, 9, 20])
        got = same(lambda: _reversion(omega, prec), lambda: ref_reversion(omega, prec))
        assert compositional_inverse(omega, prec) == got


def test_reversion_in_characteristic_at_most_the_precision():
    # over GF(7) with 20 coefficients, n = 7 and 14 are 0 in the field; the
    # inversion never divides by n
    gf7 = PrimeField(7)
    omega = LaurentSeries.from_terms({1: gf7(3), 2: gf7(1), 5: gf7(6)})
    got = _reversion(omega, 20)
    assert got == ref_reversion(omega, 20)
    assert got.hi == 20


def test_reversion_order_minus_one_and_above_sides_match():
    rng = random.Random(107)
    for _ in range(30):
        field = rng.choice(FIELDS)
        omega = below(rng, field, -1, rng.randint(2, 12))
        want = ref_reversion(ref_recip(omega, None), None)
        got = compositional_inverse(omega)
        assert got.side is Side.ABOVE
        assert {-e: c for e, c in got.coeffs.items()} == want.coeffs
        assert (-got.hi, -got.lo) == (want.lo, want.hi)


# -- powers ------------------------------------------------------------------------


def test_power_matches_repeated_squaring_on_exact_bases():
    # whichever route power takes (Miller's recurrence for exact Q bases of
    # several terms), it must agree with repeated squaring
    rng = random.Random(108)
    for _ in range(300):
        field = "q" if rng.random() < 0.8 else 7
        kind = rng.random()
        if kind < 0.1:
            a = monomial(nonzero(rng, field), rng.randint(-4, 4))
        else:
            a = below(rng, field, rng.randint(-4, 4), rng.randint(2, 12),
                      exact=kind < 0.85)
        j = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 8, 13, 40])
        side = rng.choice([None, Side.BELOW, Side.ABOVE, Side.FINITE])
        prec = rng.choice([None, 1, 4, 9, 30])
        assert outcome(lambda: power(a, j, side, prec)) == outcome(
            lambda: ref_binary_power(a, j, side, prec))


def test_power_by_miller_on_large_exponents_and_sparse_bases():
    cases = [
        (parse("1+x"), 300),
        (parse("3 - 2x + 5x^2 + 7x^3"), 60),
        (LaurentSeries.from_terms({0: Fraction(1, 2), 1: Fraction(10**15)}), 25),
        (parse("x^-2 + 3/7x + x^3"), 9),
        (parse("1 + x^40 + x^90"), 7),  # a span of gaps
        (LaurentSeries.from_terms({0: Fraction(-4, 9), 1: Fraction(10**18, 7),
                                   2: Fraction(-1, 3)}), 17),
    ]
    for a, n in cases:
        for j in (n, -n, 2, -2, -1):
            for side in (Side.BELOW, Side.ABOVE):
                for prec in (None, 1, 7, 40):
                    assert power(a, j, side, prec) == ref_binary_power(a, j, side, prec)


def test_power_edge_bases():
    gf7 = PrimeField(7)
    # GF(7) past n = 7 keeps repeated squaring: Miller's division by n fails
    a = LaurentSeries.from_terms({0: gf7(3), 1: gf7(1), 2: gf7(5)})
    for j in (7, 8, 15, -7, -15):
        assert power(a, j, None, 20) == ref_binary_power(a, j, None, 20)
    # the zero series, an empty window and monomials
    zero = LaurentSeries.zero()
    assert power(zero, 3) == ref_binary_power(zero, 3)
    empty = LaurentSeries.truncated({}, Side.BELOW, 2, 6)
    assert power(empty, 4) == ref_binary_power(empty, 4)
    for j in (-3, 3):
        assert outcome(lambda: power(empty, j)) == outcome(
            lambda: ref_binary_power(empty, j))
        mono = monomial(Fraction(-2, 3), 5)
        assert power(mono, j) == ref_binary_power(mono, j)
    # precision below 1 is refused by the recurrence as by recip
    assert outcome(lambda: power(parse("1+x"), -3, None, 0)) == outcome(
        lambda: ref_binary_power(parse("1+x"), -3, None, 0))


def test_powers_walk_matches_power_per_exponent():
    rng = random.Random(109)
    for _ in range(120):
        field = "q" if rng.random() < 0.7 else 7
        kind = rng.random()
        if kind < 0.15:
            a = monomial(nonzero(rng, field), rng.randint(-3, 3))
        else:
            a = below(rng, field, rng.randint(-3, 3), rng.randint(1, 6),
                      exact=kind < 0.6)
        if not a.exact and rng.random() < 0.3:
            a = LaurentSeries.truncated({-e: c for e, c in a.coeffs.items()},
                                        Side.ABOVE, -a.hi, -a.lo)
        exps = {rng.randint(-9, 12) for _ in range(rng.randint(1, 6))}
        side = rng.choice([None, Side.BELOW, Side.ABOVE])
        prec = rng.choice([None, 1, 5])
        walked = {}
        try:
            for j, pw in powers(a, exps, side, prec):
                walked[j] = pw
        except Exception as exc:  # the first exponent to raise, raises
            walked["raised"] = (type(exc), str(exc))
        want = {}
        for j in sorted(exps):
            want[j] = outcome(lambda: ref_binary_power(a, j, side, prec) if j
                              else power(a, 0))
            if isinstance(want[j], tuple):
                want["raised"] = want.pop(j)
                break
        assert walked == want


def test_compose_kernel_substitutes_a_monomial_omega():
    rng = random.Random(110)
    for _ in range(80):
        field = rng.choice(FIELDS)
        chi = below(rng, field, rng.randint(-4, 4), rng.randint(1, 10))
        omega = monomial(nonzero(rng, field), rng.randint(1, 5))
        prec = rng.choice([None, 2, 9])
        assert _compose_kernel(chi, omega, prec) == ref_compose_kernel(chi, omega, prec)
    # a huge exponent allocates nothing per exponent in between
    chi = parse("1/(1-x)", precision=3)
    got = _compose_kernel(chi, monomial(Fraction(2), 10**8), 3)
    assert got.coeffs == {0: 1, 10**8: 2, 2 * 10**8: 4}
    assert (got.lo, got.hi) == (0, 3 * 10**8 - 1)


# -- one-term factors ------------------------------------------------------------------


def test_one_term_factor_is_a_shift_and_a_scale():
    rng = random.Random(111)
    for _ in range(200):
        field = rng.choice(FIELDS)
        e = rng.randint(-5, 5)
        one = {e: nonzero(rng, field)}
        other = {rng.randint(-8, 40): scalar(rng, field)
                 for _ in range(rng.randint(1, 30))}
        other = {k: c for k, c in other.items() if c} or {0: nonzero(rng, field)}
        hi = rng.choice([None, e + min(other) - 1, e + min(other),
                         e + max(other) - 3, 100])
        want = {k: c for k, c in convolve_dicts(one, other).items()
                if hi is None or k <= hi}
        assert _convolve(one, other, hi) == want
        assert _convolve(other, one, hi) == want
        # the library product, on the same window
        assert mul_through(one, other, hi).coeffs == want
        assert mul_through(other, one, hi).coeffs == want


def test_one_term_factor_keeps_the_window_of_mul():
    rng = random.Random(112)
    for _ in range(150):
        field = rng.choice(FIELDS)
        lo = rng.randint(-4, 4)
        if rng.random() < 0.5:
            one = monomial(nonzero(rng, field), lo)
        else:
            one = LaurentSeries.truncated({lo: nonzero(rng, field)}, Side.BELOW,
                                          lo, lo + rng.randint(0, 12))
        other = below(rng, field, rng.randint(-4, 4), rng.randint(2, 30),
                      exact=rng.random() < 0.4)
        for a, b in ((one, other), (other, one)):
            got = mul(a, b)
            caps = [s.hi + t.lo for s, t in ((a, b), (b, a)) if not s.exact]
            hi = min(caps) if caps else None
            want = convolve_dicts(a.coeffs, b.coeffs)
            assert got.coeffs == {k: c for k, c in want.items() if hi is None or k <= hi}
            if hi is None:
                assert got.exact
            else:
                assert (got.side, got.lo, got.hi) == (Side.BELOW, a.lo + b.lo, hi)
            # the bounded-above side, through the flip
            assert mul(substitute_reciprocal(a), substitute_reciprocal(b)) == \
                substitute_reciprocal(got)


def test_packed_product_by_one_term_is_a_scale():
    rng = random.Random(120)
    for _ in range(100):
        xs = [rng.randint(-10**20, 10**20) for _ in range(rng.randint(1, 30))]
        c = rng.choice([0, 1, -1, rng.randint(-10**9, 10**9)])
        n = rng.randint(1, 40)
        want = [0] * min(n, len(xs))
        for i, x in enumerate(xs[:n]):
            want[i] += c * x
        assert dense.product([c], xs, n) == dense.product(xs, [c], n) == want


def schoolbook(xa: list, xb: list, n: int) -> list:
    """The first n coefficients of xa * xb, one product per pair of terms."""
    out = [0] * min(n, len(xa) + len(xb) - 1) if n > 0 and xa and xb else []
    for i, x in enumerate(xa[:len(out)]):
        for j, y in enumerate(xb[:len(out) - i], i):
            out[j] += x * y
    return out


def slot_bits(xa: list, xb: list, n: int) -> int:
    """The bits dense.product sizes its slots to for two lists of at least
    two terms each, cut to n."""
    xa, xb = xa[:n], xb[:n]
    return (max(map(abs, xa)).bit_length() + max(map(abs, xb)).bit_length()
            + min(len(xa), len(xb)).bit_length() + 1)


def test_packed_products_match_the_schoolbook_at_every_slot_edge():
    # machine words of 1, 2, 4 and 8 bytes up to 64 bits, 8 and a high part
    # of 1, 2, 4 or 8 up to 128 bits for entries below 2^63, bytes beyond
    rng = random.Random(125)
    p = 2**31 - 1
    cases = []
    # full same-sign lists of m = 2^k - 1 terms: the middle coefficient
    # needs every bit of its slot, so a slot one bit short would overflow
    for bits in (64, 65, 128, 129):
        for k in (2, 3, 4):
            rest = bits - k - 1
            for ea, eb in ((rest - rest // 2, rest // 2), (rest - 40, 40)):
                if max(ea, eb) > 63 or min(ea, eb) < 8:
                    continue
                m = 2**k - 1
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    xa, xb = [sa * (2**ea - 1)] * m, [sb * (2**eb - 1)] * m
                    assert slot_bits(xa, xb, 2 * m) == bits
                    want = schoolbook(xa, xb, 2 * m - 1)
                    assert max(map(abs, want)).bit_length() == bits - 1
                    cases.append((xa, xb, 2 * m - 1))
                    xa = [sa * (2**ea - 1)] + [rng.randint(-2**ea + 1, 2**ea - 1)
                                               for _ in range(m - 1)]
                    cases.append((xa, xb, 2 * m - 1))
    # the entries at the edge of a word, each beside small and edge entries
    edges = (2**63 - 1, -(2**63 - 1), -2**63, 2**63, 2**64, -2**64)
    for e in edges:
        for other in ((1,), (-1, 2), (3, -5, 7), edges, (2**62, -1, 0, 0)):
            for la in (1, 2, 5):
                xa = [e] + [rng.choice((0, 1, -1, e)) for _ in range(la - 1)]
                cases.append((xa, list(other), len(xa) + len(other) - 1))
                cases.append((list(other), xa[::-1], len(xa) + len(other) - 1))
    # GF(2^31-1) residues at every length from 2 to 130, the largest first
    for length in range(2, 131):
        xa = [p - 1] + [rng.randrange(p) for _ in range(length - 1)]
        xb = [rng.randrange(p) for _ in range(length - 1)] + [p - 1]
        cases.append((xa, xb, 2 * length - 1))
    # every word and the bytes, narrow to wide: bits of 8 to 140, counts of
    # 2 to 300, with words wider than the byte slot on either side of their
    # limit on the product's bytes
    for e in (1, 3, 6, 7, 10, 12, 15, 20, 28, 30, 40, 50, 56, 62, 63, 64, 66):
        for length in (2, 9, 64, 65, 150, 300):
            if e > 40 and length > 65:
                continue
            xa = [rng.randint(-2**e + 1, 2**e - 1) for _ in range(length)]
            xb = [rng.randint(-2**e + 1, 2**e - 1) for _ in range(rng.randint(2, length))]
            cases.append((xa, xb, len(xa) + len(xb) - 1))
    # n below, at and above len(xa) + len(xb) - 1, n <= 0, one-term factors
    # and zero tails
    for xa, xb, n in list(cases[::7]):
        for cut in (n - 1, n // 2, 2, 1, n + 1, n + 10, 0, -3):
            cases.append((xa, xb, cut))
        cases.append((xa[:1], xb, n))
        cases.append((xa + [0] * 5, xb + [0] * 3, n + 8))
        cases.append((xa + [0] * 5, xb, n))
        cases.append(([0] * len(xa), xb, n))
    for xa, xb, n in cases:
        want = schoolbook(xa, xb, n)
        assert dense.product(xa, xb, n) == want, (xa[:3], xb[:3], n)
        assert dense.product(xb, xa, n) == want


def test_products_at_many_counts_keep_no_memory():
    # a product leaves nothing behind whose size grows with its count, such
    # as a struct format per count: products at 300 distinct counts from 100
    # to 6000, each third on the narrow words, the wide words or the bytes,
    # retain less than 1 MiB at every 25th product.  struct keeps up to 100
    # formats and empties its cache when it is full, so a check at the end
    # alone could fall just after it was emptied.  The operands are one term
    # and zeros, so the tracing costs little
    rng = random.Random(126)
    one = [1] + [0] * 5999
    factors = [one, [2**62] + [0] * 5999, [2**64] + [0] * 5999]
    counts = rng.sample(range(100, 6001), 300)
    dense.product(one, one, 100)  # struct's first use, before the counts
    gc.collect()
    tracemalloc.start()
    try:
        start, kept = tracemalloc.get_traced_memory()[0], 0
        for i, count in enumerate(counts, 1):
            x = factors[i % 3]
            assert dense.product(x, one, count) == [x[0]] + [0] * (count - 1)
            if i % 25 == 0:
                gc.collect()
                kept = max(kept, tracemalloc.get_traced_memory()[0] - start)
    finally:
        tracemalloc.stop()
    assert kept < 2**20


# -- the power walk behind columns and compositions --------------------------------------


def walk_operand(rng: random.Random, field, kind: str, side: Side) -> LaurentSeries:
    """An exact, inexact, one-coefficient, monomial or sparse series."""
    if kind == "monomial":
        s = monomial(nonzero(rng, field), rng.choice([-2, -1, 1, 2]))
    elif kind == "sparse":
        s = LaurentSeries.from_terms({0: nonzero(rng, field), 1000: nonzero(rng, field)})
    elif kind == "one":
        o = rng.randint(-2, 2)
        s = LaurentSeries.truncated({o: nonzero(rng, field)}, Side.BELOW, o, o)
    else:
        s = below(rng, field, rng.choice([-2, -1, 1, 2]), rng.randint(2, 6),
                  exact=kind == "exact")
    if side is Side.ABOVE and not s.exact:
        s = LaurentSeries.truncated({-e: c for e, c in s.coeffs.items()},
                                    Side.ABOVE, -s.hi, -s.lo)
    return s


KINDS = ("exact", "inexact", "one", "monomial", "sparse")


def test_columns_match_alpha_times_each_power():
    rng = random.Random(113)
    for _ in range(250):
        field = rng.choice(["q", "q", 7])
        side = rng.choice([Side.BELOW, Side.ABOVE])
        alpha = walk_operand(rng, field, rng.choice(KINDS), side)
        omega = walk_operand(rng, field, rng.choice(KINDS), side)
        prec = rng.choice([None, 1, 4])
        m = riordan(alpha, omega, side, prec)
        lo = rng.randint(-6, 3)
        js = range(lo, lo + rng.randint(1, 7))
        want = outcome(lambda: ref_columns(alpha, omega, js, m.side, prec))
        assert outcome(lambda: m.columns(js)) == want
        if not isinstance(want, tuple):
            assert all(m.column(j) == want[j] for j in js)
            rows = (rng.randint(-8, 8), rng.randint(-8, 8))
            rows = (min(rows), max(rows))
            # entry by entry, row by row: the first unknown one raises
            assert outcome(lambda: extract(m, rows, (js[0], js[-1])).entries) == outcome(
                lambda: tuple(tuple(want[j][i] for j in js)
                              for i in range(rows[0], rows[1] + 1)))


def test_columns_raise_the_exponent_budget_at_the_same_column():
    omega = LaurentSeries.truncated({1: Fraction(2), 2: Fraction(-1, 3)},
                                    Side.BELOW, 1, 3)
    for side in (Side.BELOW, Side.ABOVE):
        w = omega if side is Side.BELOW else LaurentSeries.truncated(
            {-e: c for e, c in omega.coeffs.items()}, Side.ABOVE, -3, -1)
        m = riordan(parse("1+x"), w, side, 3)
        for js in (range(9_997, 10_003), range(-10_002, -9_998), [-10_001, 2, 10_001]):
            with pytest.raises(ValueError, match="at most 10000"):
                m.columns(js)
            # the walk yields every column below the first exponent to raise
            walked = []
            with pytest.raises(ValueError, match="at most 10000"):
                for j, pw in powers(w, js, side, 3):
                    walked.append(j)
                    assert pw == ref_binary_power(w, j, side, 3)
            first_raising = min(k for k in js if abs(k) > 10_000)
            assert walked == [j for j in sorted(js) if j < first_raising]
        want = ref_columns(parse("1+x"), w, range(9_995, 10_001), side, 3)
        assert m.columns(range(9_995, 10_001)) == want


def test_walk_packs_no_sparse_power(monkeypatch):
    # x + x^60 passes the density test but its powers from the square on do
    # not (j + 1 terms over a span of 59 j): from there each product is the
    # term loop over sparse forms, and no power is read as a list
    packed = []
    real = series._view

    def spy(s, flip=False):
        value = real(s, flip)
        if type(value[0]) is list:
            packed.append(value[0])
        return value

    monkeypatch.setattr(series, "_view", spy)
    gf7 = PrimeField(7)
    for one, omega in ((Fraction(1), parse("x + x^60")),
                       (gf7(1), LaurentSeries.from_terms({1: gf7(3), 60: gf7(2)})),
                       (Fraction(1), LaurentSeries.truncated(
                           {1: Fraction(1), 60: Fraction(-2)}, Side.BELOW, 1, 400))):
        alpha = LaurentSeries.from_terms({0: one, 1: 2 * one})
        chi = LaurentSeries.from_terms({e: (e + 2) * one for e in range(-2, 7)})
        for w in (omega, substitute_reciprocal(omega)):
            side = Side.BELOW if w.lo > 0 else Side.ABOVE
            js = range(-3, 9)
            assert riordan(alpha, w, side, 4).columns(js) == \
                ref_columns(alpha, w, js, side, 4)
            assert compose(chi, w, 4, side) == ref_compose_exact(chi, w, 4, side)
    assert packed
    for xs in packed:
        assert len(xs) - 1 < 4 * sum(1 for x in xs if x) + 64


def test_a_sparse_walk_builds_no_dict(monkeypatch):
    # the powers of x + x^60 are sparse forms: walked to 64 columns near
    # j = 3000 and read entry by entry, none of them builds its dict
    built = []
    real = dense.to_coeffs
    monkeypatch.setattr(dense, "to_coeffs", lambda *args: built.append(args[2:]) or real(*args))
    gf7 = PrimeField(7)
    for one in (Fraction(1), gf7(1)):
        omega = LaurentSeries.from_terms({1: one, 60: one})
        m = riordan(LaurentSeries.from_terms({0: one}), omega)
        block = extract(m, (2996, 2999), (2937, 3000))
        assert not built
        # [x^i] (x + x^60)^j is C(j, k) for i = j + 59 k, else 0
        for i, row in zip(range(2996, 3000), block.entries):
            want = [math.comb(j, (i - j) // 59) * one if (i - j) % 59 == 0 and i >= j
                    else 0 for j in range(2937, 3001)]
            assert row == tuple(c or 0 for c in want)


def test_operands_convert_once_and_intermediates_build_no_dict(monkeypatch):
    # a series keeps the working form its kernel returned: each dict series
    # is packed at most once, and no value builds its dict until it is read
    packed, built = [], []
    real_from, real_to = dense.from_coeffs, dense.to_coeffs

    def from_spy(coeffs, *args):
        packed.append(coeffs)
        return real_from(coeffs, *args)

    def to_spy(*args):
        built.append(args)
        return real_to(*args)

    monkeypatch.setattr(dense, "from_coeffs", from_spy)
    monkeypatch.setattr(dense, "to_coeffs", to_spy)
    for chi, omega, side, prec in (("1/(1-2x)", "x/(1-x-x^2)", Side.BELOW, 40),
                                   ("(2-x)/(1+3x^2)", "x-x^2/3", Side.BELOW, 24),
                                   ("1/(1-2x)", "x^-1/(1-x^-1)", Side.ABOVE, 30)):
        packed.clear()
        result = compose(parse(chi, precision=prec), parse(omega, side, prec), prec)
        assert packed and len({id(c) for c in packed}) == len(packed)
        assert not built
        assert result.coeffs and len(built) == 1
        built.clear()
    packed.clear()
    m = riordan(parse("1/(1-x)", precision=32), parse("x/(1-x)", precision=32))
    block = extract(m, (0, 15), (0, 15))
    assert block.entries[15][1] == 15
    assert packed and len({id(c) for c in packed}) == len(packed)
    assert not built


def test_powers_with_a_factor_match_the_factor_times_each_power():
    a, js = parse("1 + x - 2x^2"), [-2, -1, 0, 1, 3]
    for f in (parse("1/(1-x)", precision=4), parse("2 + x"),
              LaurentSeries.truncated({1: Fraction(1), 90: Fraction(3)}, Side.BELOW, 1, 95)):
        for factor in (f, substitute_reciprocal(f)):
            for side in (None, Side.BELOW, Side.ABOVE):
                # a factor on the other side than the negative powers raises
                assert outcome(lambda: list(powers(a, js, side, 4, factor))) == outcome(
                    lambda: [(j, mul(factor, ref_power_at(a, j, side, 4))) for j in js])


def test_exact_chi_compose_matches_mul_add_loop():
    rng = random.Random(114)
    for _ in range(250):
        field = rng.choice(["q", "q", 7])
        side = rng.choice([Side.BELOW, Side.ABOVE])
        omega = walk_operand(rng, field, rng.choice(KINDS), side)
        lo = rng.randint(-5, 4)
        chi = LaurentSeries.from_terms({e: scalar(rng, field)
                                        for e in range(lo, lo + rng.randint(1, 7))})
        if chi.is_zero():
            continue
        prec = rng.choice([None, 1, 5])
        given = side if omega.exact else rng.choice([None, side])
        assert outcome(lambda: compose(chi, omega, prec, given)) == outcome(
            lambda: ref_compose_exact(chi, omega, prec, given))


def test_exact_chi_compose_edge_cases():
    gf7 = PrimeField(7)
    omega = parse("x/(1-x)", precision=6)
    cases = [
        # cancellation: 1 - (1 + O(x^4)) runs empty, (1+x) - 1 is x
        (parse("1 - x"), LaurentSeries.truncated({0: Fraction(1)}, Side.BELOW, 0, 3)),
        (parse("x - 1"), parse("1 + x")),
        # sparse chis and omegas, whose inexact terms bind at different
        # exponents, and a chi over GF(7)
        (parse("1 + x^40"), omega),
        (parse("x + x^100"), omega),
        (parse("2 + x"), parse("1 + x^1000")),
        (parse("1 + x + x^2"), LaurentSeries.truncated(
            {1: Fraction(1), 500: Fraction(2)}, Side.BELOW, 1, 600)),
        (LaurentSeries.from_terms({0: gf7(3), 2: gf7(5)}),
         LaurentSeries.truncated({1: gf7(1), 2: gf7(6)}, Side.BELOW, 1, 4)),
        # an omega with no known coefficient
        (parse("1 + x"), LaurentSeries.truncated({}, Side.BELOW, 1, 3)),
    ]
    for chi, w in cases + [(chi, substitute_reciprocal(w)) for chi, w in cases]:
        for prec in (None, 3):
            for side in (Side.BELOW, Side.ABOVE):
                assert outcome(lambda: compose(chi, w, prec, side)) == outcome(
                    lambda: ref_compose_exact(chi, w, prec, side))


# -- short divisors, baby steps and giant steps ------------------------------------------

# counts around each square s^2, where the baby-step count s = ceil(sqrt(n))
# of the compositions and inversions steps up, and around the length at
# which the reciprocal stops taking long division for every divisor
AROUND_SQUARES = (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 63, 64, 65)


def test_long_division_and_newton_agree_on_the_integer_form():
    rng = random.Random(115)
    for _ in range(300):
        p = rng.choice([0, 7, 2**31 - 1])
        n = rng.randint(1, 90)
        t = rng.randint(1, n)
        xs = [0] * n
        for i in [0, *rng.sample(range(1, n), t - 1)]:
            if p:
                xs[i] = rng.randrange(1, p)
            else:
                xs[i] = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 10**20 + 1])
        u = (xs, 1 if p else rng.choice([1, 6, 10**15]))
        want = ref_newton(u, n, p)
        assert dense._divide(u, n, p) == want
        assert dense.recip(u, n, p) == want


def test_recip_of_short_divisors_matches_newton_and_the_recurrence():
    gf7, gfm = PrimeField(7), PrimeField(2**31 - 1)
    divisors = [
        parse("3-x"), parse("-2+x^5"), parse("1-x^50"), parse("-3 + 2x - 5x^2 + x^3"),
        parse("-7/2 + 1/3x^2"), parse("x^-3 + 4x^9"),
        LaurentSeries.from_terms({0: gf7(3), 1: gf7(6)}),
        LaurentSeries.from_terms({0: gf7(5), 5: gf7(1), 6: gf7(2)}),
        LaurentSeries.from_terms({0: gfm(3), 1: gfm(2**31 - 2)}),
        # inexact divisors with few nonzero known terms
        LaurentSeries.truncated({0: Fraction(-2, 3), 7: Fraction(5)}, Side.BELOW, 0, 40),
        LaurentSeries.truncated({2: gf7(4), 9: gf7(1)}, Side.BELOW, 2, 30),
        LaurentSeries.truncated({-1: gfm(5), 60: gfm(7)}, Side.BELOW, -1, 120),
        LaurentSeries.truncated({1: Fraction(3)}, Side.BELOW, 1, 70),
    ]
    for a in divisors:
        for prec in (1, 2, 7, 8, 64, 65, 200):
            want = ref_newton_recip(a, prec)
            assert recip(a, Side.BELOW, prec) == want
            assert want == ref_recip(a, prec)
            # the bounded-above side, through the flip
            assert recip(substitute_reciprocal(a), Side.ABOVE, prec) == \
                substitute_reciprocal(want)


def test_recip_route_depends_on_term_count_and_length(monkeypatch):
    # long division through 20 nonzero terms among the first n coefficients,
    # or for every divisor when n <= 64; Newton iteration otherwise
    routes = []
    for name in ("_divide", "_newton"):
        def spy(u, n, p, real=getattr(dense, name), name=name):
            routes.append(name)
            return real(u, n, p)
        monkeypatch.setattr(dense, name, spy)
    rng = random.Random(116)
    cases = [(64, 64, "_divide"), (64, 21, "_divide"), (65, 19, "_divide"),
             (65, 20, "_divide"), (65, 21, "_newton"), (100, 21, "_newton"),
             (100, 100, "_newton"), (200, 2, "_divide")]
    for n, t, route in cases:
        for field in FIELDS:
            terms = {e: nonzero(rng, field) for e in [0, *rng.sample(range(1, n), t - 1)]}
            # terms from x^n on are not among the first n coefficients
            terms.update({e: nonzero(rng, field) for e in range(n, n + 5)})
            a = LaurentSeries.from_terms(terms)
            routes.clear()
            got = recip(a, Side.BELOW, n)
            assert routes == [route], (n, t)
            assert got == ref_newton_recip(a, n)


def test_recip_route_depends_on_the_bits_of_the_denominator(monkeypatch):
    # over Q a divisor of more than 20 terms whose n times denominator bits
    # pass 2048 takes Newton iteration even for n <= 64; with at most 20
    # terms, or a denominator of 1 (GF(p)), the route rests on the counts
    routes = []
    for name in ("_divide", "_newton"):
        def spy(u, n, p, real=getattr(dense, name), name=name):
            routes.append(name)
            return real(u, n, p)
        monkeypatch.setattr(dense, name, spy)
    rng = random.Random(123)
    cases = [(32, 32, 64, "_divide"), (32, 32, 65, "_newton"), (64, 21, 32, "_divide"),
             (64, 21, 33, "_newton"), (40, 40, 52, "_newton"), (16, 16, 129, "_divide"),
             (64, 20, 900, "_divide"), (200, 2, 900, "_divide"), (8, 8, 300, "_divide")]
    for n, t, bits, route in cases:
        den = (1 << (bits - 1)) + 1  # a denominator of exactly `bits` bits
        xs = [0] * n
        for e in rng.sample(range(1, n), t - 1):
            xs[e] = rng.randrange(1, 1 << 40)
        xs[0] = 1
        routes.clear()
        got = dense.recip((xs, den), n, 0)
        assert routes == [route], (n, t, bits)
        want = ref_newton_recip(LaurentSeries.from_terms(
            {e: Fraction(x, den) for e, x in enumerate(xs) if x}), n)
        assert dense.to_coeffs(*got, 0, 0) == want.coeffs
        routes.clear()
        dense.recip(([x % 7919 for x in xs], 1), n, 7919)
        assert routes == ["_divide"]


def test_compose_kernel_matches_horner_around_each_square():
    rng = random.Random(117)
    for field in FIELDS:
        for count in AROUND_SQUARES:
            for w, kind in ((1, "inexact"), (1, "exact"), (2, "inexact"),
                            (3, "exact"), (2, "sparse"), (1, "monomial")):
                chi = below(rng, field, rng.randint(-2, 2), count)
                if kind == "monomial":
                    omega = monomial(nonzero(rng, field), w)
                elif kind == "sparse":
                    omega = LaurentSeries.truncated(
                        {w: nonzero(rng, field), w + 40: nonzero(rng, field)},
                        Side.BELOW, w, w + count * w + 50)
                else:
                    omega = below(rng, field, w, count + rng.randint(0, 3),
                                  exact=kind == "exact")
                want = ref_horner_compose_kernel(chi, omega, count)
                assert _compose_kernel(chi, omega, count) == want
                if count <= 26:
                    assert want == ref_compose_kernel(chi, omega, count)
                # omega bounded above of order -w, through the flip
                assert compose(chi, substitute_reciprocal(omega), count, Side.ABOVE) == \
                    substitute_reciprocal(want)


def test_compose_kernel_edge_chis_match_horner():
    rng = random.Random(118)
    for field in FIELDS:
        for count in (1, 4, 9, 16, 65):
            omega = below(rng, field, 1, count + 2)
            exact_omega = below(rng, field, 2, 5, exact=True)
            one = nonzero(rng, field)
            chis = [
                # a single coefficient, and an empty window
                LaurentSeries.truncated({2: one}, Side.BELOW, 2, 2),
                LaurentSeries.truncated({-1: one}, Side.BELOW, -1, count),
                LaurentSeries.truncated({}, Side.BELOW, 1, count),
                # order 0 with an inexact omega: a later nonzero chi_k binds
                LaurentSeries.truncated({0: one, count: one}, Side.BELOW, 0, 2 * count),
                below(rng, field, 0, count),
            ]
            for chi in chis:
                for w in (omega, exact_omega):
                    assert _compose_kernel(chi, w, count) == \
                        ref_horner_compose_kernel(chi, w, count) == \
                        ref_compose_kernel(chi, w, count)


def test_reversion_matches_lagrange_products_around_each_square():
    rng = random.Random(119)
    for field in FIELDS:
        for count in AROUND_SQUARES + (80,):
            for kind in ("exact", "inexact", "sparse"):
                if kind == "sparse":
                    omega = LaurentSeries.from_terms(
                        {1: nonzero(rng, field), 40: nonzero(rng, field)})
                else:
                    omega = below(rng, field, 1, count, exact=kind == "exact")
                want = ref_lagrange_reversion(omega, count)
                assert _reversion(omega, count) == want
                if count <= 26:
                    assert want == ref_reversion(omega, count)
                # order -1 below lands above, and bounded-above inputs go
                # through the flip
                down = below(rng, field, -1, count)
                assert compositional_inverse(down, count) == substitute_reciprocal(
                    ref_lagrange_reversion(ref_newton_recip(down, count), count))
                assert compositional_inverse(substitute_reciprocal(omega), count) == \
                    recip(want, None, count)


def test_reversion_in_characteristic_seven_past_each_square():
    # n = 7, 14, ... are 0 in GF(7): the baby and giant steps never divide
    gf7 = PrimeField(7)
    omega = LaurentSeries.from_terms({1: gf7(3), 2: gf7(1), 5: gf7(6)})
    for prec in (7, 8, 48, 49, 50, 99):
        got = _reversion(omega, prec)
        assert got == ref_lagrange_reversion(omega, prec)
        assert got.hi == prec


def test_order_minus_one_inverse_makes_no_division(monkeypatch):
    # for omega of order -1, Lagrange's psi for r = 1/omega is x omega
    # itself: the inverse divides nowhere, and it equals the route through r
    # on value and window; bounded above of order 1 reaches it through J,
    # and then divides once, to take the reciprocal of what it returns
    rng = random.Random(121)
    cases = []
    for _ in range(60):
        field = rng.choice(FIELDS)
        omega = below(rng, field, -1, rng.randint(1, 14), exact=rng.random() < 0.5)
        prec = rng.choice([None, 4, 9, 32])
        want = substitute_reciprocal(_reversion(recip(omega, Side.BELOW, prec), prec))
        cases.append((omega, prec, want, 0))
        if not omega.exact:
            cases.append((substitute_reciprocal(omega), prec, recip(want, None, prec), 1))
    routes = []
    for name in ("_divide", "_newton"):
        def spy(*args, real=getattr(dense, name), name=name):
            routes.append(name)
            return real(*args)
        monkeypatch.setattr(dense, name, spy)
    for omega, prec, want, divisions in cases:
        routes.clear()
        got = compositional_inverse(omega, prec)
        assert got == want and (got.side, got.lo, got.hi) == (want.side, want.lo, want.hi)
        assert len(routes) == divisions


# -- the inverse of a ratio by its equation --------------------------------------------


def _poly(rng: random.Random, p: int, degree: int) -> tuple:
    """A polynomial form of the given degree with a nonzero constant term:
    over Q integers over a denominator up to 6, the constant negative half
    the time; sometimes with top zeros."""
    if p:
        xs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(degree - 1)]
        xs += [rng.randrange(1, p)] if degree else []
        den = 1
    else:
        xs = [rng.choice([-1, 1]) * rng.randint(1, 9)]
        xs += [rng.randint(-9, 9) for _ in range(degree - 1)]
        xs += [rng.choice([-3, -1, 2, 5])] if degree else []
        den = rng.randint(1, 6)
    return xs + [0] * rng.choice([0, 0, 0, 1, 3]), den


def test_the_equation_matches_lagrange():
    # dense.invert against Lagrange's scheme on psi = B/A, the route it
    # replaced, over Q, GF(7) past its characteristic and GF(2^31-1), for R =
    # max(deg A + 1, deg B) on both sides of the bound
    rng = random.Random(127)
    bound = series._EQUATION_POWERS
    for p in (0, 7, 2**31 - 1):
        for _ in range(120):
            r = rng.randint(1, bound + 3)
            da = rng.randint(0, r - 1)
            db = r if da < r - 1 else rng.randint(0, r)
            a, b = _poly(rng, p, da), _poly(rng, p, db)
            n = rng.randint(1, 40 if p == 7 else 70)
            assert dense.invert(a, b, n, p) == dense.reversion(dense.recip(a, n, p, b), n, p)
    a, b = ([-3, 1, 2], 4), ([5, -1, 0, 7], 3)  # a_0 < 0, dens != 1, at 300
    assert dense.invert(a, b, 300, 0) == dense.reversion(dense.recip(a, 300, 0, b), 300, 0)


def test_inverses_of_ratios_take_the_equation_within_the_bound(monkeypatch):
    # x^(+-1) N/D made by mul and recip carries its ratio; an exact
    # polynomial is one over 1.  Each inverse, on both sides and through the
    # flip, equals that of a copy without the ratio, which takes Lagrange's
    # route; the equation serves R <= _EQUATION_POWERS, Lagrange the rest
    rng = random.Random(128)
    routes = []
    for name in ("invert", "reversion"):
        def spy(*args, real=getattr(dense, name), name=name):
            routes.append(name)
            return real(*args)
        monkeypatch.setattr(dense, name, spy)
    bound, seen = series._EQUATION_POWERS, set()
    for field in FIELDS:
        one = Fraction(1) if field == "q" else prime_field(field)(1)
        for _ in range(40):
            order, side = rng.choice([1, -1]), rng.choice([Side.BELOW, Side.ABOVE])
            prec = rng.choice([16, 33])  # within _fits
            na, nd = rng.randint(0, bound), rng.randint(1, bound + 1)
            step = -1 if side is Side.ABOVE else 1
            num = {step * (order + i): nonzero(rng, field) for i in range(na + 1)}
            den = {step * i: nonzero(rng, field) for i in range(nd + 1)}
            omega = mul(LaurentSeries.from_terms(num),
                        recip(LaurentSeries.from_terms(den), side, prec))
            inner = [scalar(rng, field) for _ in range(na - 1)] + [nonzero(rng, field)] * (na > 0)
            exact = LaurentSeries.from_terms({order + i: c * one for i, c in enumerate(
                [nonzero(rng, field)] + inner)})
            cases = [(omega, (na, nd) if order == 1 else (nd, na))]
            if na:  # a monomial inverts exactly
                cases.append((exact, (na, 0) if order == 1 else (0, na)))
            for w, (deg_a, deg_b) in cases:
                if w.exact:
                    top = w.lo + prec - 1
                    bare = LaurentSeries.truncated(
                        {e: c for e, c in w.coeffs.items() if e <= top}, Side.BELOW, w.lo, top)
                else:
                    assert w._ratio is not None
                    bare = LaurentSeries.truncated(w.coeffs, w.side, w.lo, w.hi)
                want = compositional_inverse(bare, prec)
                routes.clear()
                got = compositional_inverse(w, prec)
                assert got == want and (got.side, got.lo, got.hi) == (want.side, want.lo, want.hi)
                route = "invert" if max(deg_a + 1, deg_b) <= bound else "reversion"
                assert routes == [route]
                seen.add(route)
    assert seen == {"invert", "reversion"}
    # an inexact omega without a ratio and a sparse one with R = 40 keep
    # Lagrange's route
    gf = prime_field(2**31 - 1)
    for omega in (LaurentSeries.truncated({1: gf(3), 2: gf(5)}, Side.BELOW, 1, 30),
                  LaurentSeries.from_terms({1: gf(2), 40: gf(7)})):
        routes.clear()
        compositional_inverse(omega, 80)
        assert routes == ["reversion"]


def test_inverses_of_quotients_make_no_packed_product(monkeypatch):
    made = count_products(monkeypatch)
    for text, prec in (("x/(1-x-x^2)", 2000), ("x-x^2-x^3", 500)):
        omega = parse(text, precision=prec)
        made.clear()
        assert compositional_inverse(omega, prec).hi == prec
        assert made == []


def test_an_inverse_by_lagrange_keeps_its_reciprocal_on_omega(monkeypatch):
    # Lagrange's psi is x times the reciprocal that recip keeps on omega, so
    # the negative columns, m J and compose read it without a second
    # division: an exact omega past _EQUATION_POWERS (R = 8), a quotient
    # past it (R = 9) and an inexact omega without a ratio
    calls = []
    real = dense.recip

    def spy(u, n, p, num=None):
        calls.append(n)
        return real(u, n, p, num)

    fib = parse("x/(1-x-x^2)", precision=40)
    omegas = (parse("x-x^2-x^3+x^8", precision=40), parse("x/(1-x)^9", precision=40),
              LaurentSeries.truncated(fib.coeffs, Side.BELOW, fib.lo, fib.hi))
    monkeypatch.setattr(dense, "recip", spy)
    for omega in omegas:
        got = compositional_inverse(omega, 40)
        assert got == ref_lagrange_reversion(omega, 40)
        calls.clear()
        r = recip(omega, Side.BELOW, 40)
        assert calls == [] and r.count_from_order() == 40


# -- powers kept on the series they walk -----------------------------------------------


def count_products(monkeypatch) -> list:
    """Each packed product dense.product makes from now on, as its n."""
    made = []
    real = dense.product

    def spy(xa, xb, n):
        made.append(n)
        return real(xa, xb, n)

    monkeypatch.setattr(dense, "product", spy)
    return made


def test_a_second_extract_or_apply_reads_the_kept_powers(monkeypatch):
    made = count_products(monkeypatch)
    for field, side in (("q", Side.BELOW), (2**31 - 1, Side.BELOW), ("q", Side.ABOVE)):
        one = Fraction(1) if field == "q" else prime_field(field)(1)

        def poly(terms):  # over the field, in powers of 1/x when above
            flip = -1 if side is Side.ABOVE else 1
            return LaurentSeries.from_terms({flip * e: c * one for e, c in terms.items()})

        omega = mul(poly({1: 1}), recip(poly({0: 1, 1: -1, 2: -1}), side, 24))
        alpha = recip(poly({0: 1, 1: -2}), side, 24)
        m = riordan(alpha, omega, side, 24)
        rows = (0, 11) if side is Side.BELOW else (-11, 0)
        made.clear()
        first = extract(m, rows, (0, 11))
        assert made
        made.clear()
        assert extract(m, rows, (0, 11)) == first
        assert extract(m, rows, (2, 7)) == first.sub(rows, (2, 7))
        assert not made
        # an exact chi walks the same powers of omega (its positive ones; a
        # negative one is a power of the kept 1/omega): a second apply makes
        # only the product by alpha
        chi = LaurentSeries.from_terms({e: (e + 3) * one for e in range(9)})
        first = apply(m, chi)
        made.clear()
        assert apply(m, chi) == first
        assert len(made) == 1


def test_a_second_negative_block_and_the_reflection_read_the_kept_reciprocal(monkeypatch):
    # columns -15..-1 are a walk over the one 1/omega that recip keeps on
    # omega, so a second block reads its kept columns, and so does the block
    # 1..15 of m J = R(alpha, 1/omega), mirrored: neither makes a product
    made = count_products(monkeypatch)
    for field, side in (("q", Side.BELOW), (2**31 - 1, Side.BELOW),
                        ("q", Side.ABOVE), (2**31 - 1, Side.ABOVE)):
        one = Fraction(1) if field == "q" else prime_field(field)(1)
        flip = -1 if side is Side.ABOVE else 1

        def poly(terms):  # over the field, in powers of 1/x when above
            return LaurentSeries.from_terms({flip * e: c * one for e, c in terms.items()})

        # R(1/(1-2x), x/(1-x-x^2))
        omega = mul(poly({1: 1}), recip(poly({0: 1, 1: -1, 2: -1}), side, 32))
        m = riordan(recip(poly({0: 1, 1: -2}), side, 32), omega, side, 32)
        rows = (-15, 16) if side is Side.BELOW else (-16, 15)
        made.clear()
        first = extract(m, rows, (-15, -1))
        assert made
        made.clear()
        assert extract(m, rows, (-15, -1)) == first
        assert not made
        mirror = extract(j_conjugate(m, "right"), rows, (1, 15))
        assert not made
        assert mirror.entries == tuple(row[::-1] for row in first.entries)
        assert recip(omega, side, 32) is recip(omega, side, 32)
    # one reciprocal per series: each new precision replaces the last one
    w = LaurentSeries.from_terms({1: Fraction(1), 2: Fraction(1)})
    for prec in range(1, 1001):
        r = recip(w, Side.BELOW, prec)
    powers_kept, factor, products = w._walked
    assert list(powers_kept[-1].values()) == [(None, r)]
    assert r.count_from_order() == 1000


def test_recip_keeps_its_value_and_raises_as_before():
    # a second call reads the kept value, and the checks come in their old
    # order: a monomial inverts at precision 0, the zero series raises first
    x = LaurentSeries.from_terms({1: Fraction(1)})
    assert [recip(x, None, 0) for _ in range(2)] == [monomial(Fraction(1), -1)] * 2
    assert recip(x, None, 0) is recip(x, Side.ABOVE, 5)
    cases = [
        (LaurentSeries.zero(), None, 0, (series.ZeroSeriesError,
                                         "reciprocal of the zero series")),
        (LaurentSeries.truncated({}, Side.BELOW, 2, 6), None, 4,
         (series.OrderIndeterminateError, "reciprocal needs a computable order")),
        (parse("1/(1-x)", precision=4), Side.ABOVE, 4,
         (series.SideMismatchError, "cannot expand the reciprocal of a below series above")),
        (parse("1+x"), None, 0, (ValueError, "precision must be at least 1")),
    ]
    for a, side, prec, raised in cases:
        assert [outcome(lambda: recip(a, side, prec)) for _ in range(2)] == [raised] * 2
    a = parse("1+x")
    r = recip(a)
    assert r == recip(a, Side.BELOW, DEFAULT_PRECISION)
    assert (r.lo, r.hi) == (0, DEFAULT_PRECISION - 1)
    assert recip(a) is r and recip(a, Side.BELOW, DEFAULT_PRECISION) is r


def test_the_budget_is_checked_on_the_base_of_the_power():
    # 1/a at precision 8 is one term, (2^117 + 1)^-1 + O(x^8), whose 8963rd
    # power passes the bit budget; a has two terms, and 8963 is inside its
    # budget, so every route gives the value Miller's recurrence gives
    a = LaurentSeries.from_terms({0: Fraction(2**117 + 1), 20: Fraction(1)})
    want = power(a, -8963, None, 8)
    assert (want.side, want.lo, want.hi) == (Side.BELOW, 0, 7)
    assert want[0] == Fraction(1, (2**117 + 1) ** 8963)
    assert dict(powers(a, [-8963], None, 8)) == {-8963: want}
    assert riordan(LaurentSeries.one(), a, precision=8).column(-8963) == want
    with pytest.raises(ValueError, match="at most 10000"):
        list(powers(a, [-10001], None, 8))


def test_a_second_apply_of_one_power_makes_only_the_product_by_alpha(monkeypatch):
    # power keeps omega^5 on omega, so a second one-term chi = x^5 reads it,
    # and so does the head omega^m of a composition with an inexact chi of
    # order m.  The expansions are rebuilt without their ratios, so that
    # power squares and the products are packed
    made = count_products(monkeypatch)
    for field in ("q", 2**31 - 1):
        one = Fraction(1) if field == "q" else prime_field(field)(1)
        poly = LaurentSeries.from_terms

        def expansion(s):
            return LaurentSeries.truncated(s.coeffs, s.side, s.lo, s.hi)

        # R(1/(1-2x), x/(1-x-x^2))
        omega = expansion(mul(poly({1: one}),
                              recip(poly({0: one, 1: -one, 2: -one}), Side.BELOW, 24)))
        m = riordan(expansion(recip(poly({0: one, 1: -2 * one}), Side.BELOW, 24)),
                    omega, Side.BELOW, 24)
        for chi in (poly({5: one}),
                    LaurentSeries.truncated({3: one, 4: 2 * one}, Side.BELOW, 3, 20)):
            made.clear()
            first = apply(m, chi)
            cold = len(made)
            made.clear()
            assert apply(m, chi) == first
            assert len(made) == (1 if chi.exact else cold - 2)
        assert power(omega, 5) is power(omega, 5)


def test_kept_powers_equal_those_of_a_fresh_copy():
    # a pickled copy keeps no powers, so its columns are walked afresh
    rng = random.Random(122)
    for _ in range(150):
        field = rng.choice(["q", "q", 7, 2**31 - 1])
        side = rng.choice([Side.BELOW, Side.ABOVE])
        alpha = walk_operand(rng, field, rng.choice(KINDS), side)
        omega = walk_operand(rng, field, rng.choice(KINDS), side)
        m = riordan(alpha, omega, side, rng.choice([None, 3, 6]))
        for _ in range(4):
            lo = rng.randint(-5, 6)
            js = range(lo, lo + rng.randint(1, 6))
            fresh = pickle.loads(pickle.dumps(m))
            assert fresh.omega._walked is None
            assert outcome(lambda: m.columns(js)) == outcome(lambda: fresh.columns(js))
            exps = [rng.randint(-3, 8) for _ in range(3)]
            assert outcome(lambda: list(powers(m.omega, exps, m.side, m.precision))) == \
                outcome(lambda: list(powers(fresh.omega, exps, m.side, m.precision)))


def test_a_raise_inside_a_walk_is_raised_again():
    omega = LaurentSeries.truncated({1: Fraction(2), 2: Fraction(-1, 3)}, Side.BELOW, 1, 5)
    m = riordan(parse("1+x"), omega, Side.BELOW, 3)
    for _ in range(2):  # the exponent budget, past the columns it walked
        with pytest.raises(ValueError, match="at most 10000"):
            m.columns(range(9_998, 10_002))
    assert m.columns(range(9_998, 10_001)) == \
        ref_columns(parse("1+x"), omega, range(9_998, 10_001), Side.BELOW, 3)
    exact = riordan(parse("1+x"), parse("x+x^2"), Side.BELOW, 0)
    messages = [outcome(lambda: exact.columns(range(-2, 3))) for _ in range(2)]
    assert messages[0] == messages[1] == (ValueError, "precision must be at least 1")
    # an entry outside the known window, after the walk succeeded
    w = riordan(LaurentSeries.one(), parse("x/(1-x)", precision=6))
    messages = [outcome(lambda: extract(w, (0, 9), (0, 3))) for _ in range(2)]
    assert messages[0] == messages[1]
    assert messages[0][0] is series.PrecisionError


def test_kept_powers_stay_bounded():
    # a new factor replaces the last one's products, so a thousand matrices
    # over one omega keep the powers of one walk
    w = parse("x/(1-x)", precision=16)
    want = extract(lagrange(w), (0, 7), (0, 7))
    for _ in range(1000):
        assert extract(lagrange(w), (0, 7), (0, 7)) == want
    powers_kept, factor, products = w._walked
    assert set(powers_kept) <= set(range(0, 8))
    assert set(products) == set(range(0, 8))
    assert factor == LaurentSeries.one()


def test_a_block_walks_only_as_far_as_its_rows(monkeypatch):
    # rows 0..63 of R(1, x/(1-x)) read omega^j through x^63 whatever the
    # precision: every product stops there, and a second block reads the
    # kept columns.  [x^i] (x/(1-x))^j is C(i-1, j-1) for 0 < j <= i, and
    # the corner entry is 1
    made = count_products(monkeypatch)
    m = lagrange(parse("x/(1-x)", precision=2000))
    block = extract(m, (0, 63), (0, 63))
    assert made and max(made) <= 64
    assert block.entries == tuple(
        tuple(Fraction(math.comb(i - 1, j - 1) if 0 < j <= i else int(i == j == 0))
              for j in range(64))
        for i in range(64))
    made.clear()
    assert extract(m, (0, 63), (0, 63)) == block
    assert not made
