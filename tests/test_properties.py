"""Properties over drawn series: one rule per route to a power of omega.

Column j of R(alpha, omega) is the image of x^j, so `column` and `apply`
must agree on every matrix, and the exponent budget of `power` must hold on
every route that reaches omega^j.  `extract` and `compose` walk the powers
of omega (`series.powers`), so a block must hold the entries of each
`column` in turn, and a composition with an exact chi must be the sum of
its terms.  The columns of a walk equal alpha times each power by repeated
squaring.  A compositional inverse composes back to x, and inverts back to
omega, on the windows it certifies.  Every operation commutes with the flip
J (x -> 1/x) once its side argument flips too; the inverse of 1/omega
is J of the inverse of omega, and (J m) n = J (m n).  A composition with an
exact omega of two or three terms agrees with the mod-prime reference of
perfbench/oracle.py, and refuses wherever chi reads a negative power of
omega that the reference cannot take on `side`.  A series a kernel returns
in its working form is the series the public constructor builds from its
coefficients, before and after they are first read, and the constructor
builds the slots and the form that the kernel builder builds from the same
value.  Every product the class table defines has certified guards on any
block.  The parser agrees
with the reference parser of test_parser on drawn texts, well formed or not,
and the quotient of two exact values is the numerator times the reciprocal.
On drawn pairs stored on either side, `matmul`, `apply`, `inverse` and
`j_conjugate` agree with the brute-force window oracles over the certified
guards, so each realizes a matrix on its stored side.  Column -j of a matrix
m is column j of m J.  `compositional_inverse` and `inverse` agree with the
mod-prime reference, and `inverse` refuses where it does.  `matmul` is
associative on the entries both groupings compute, and a shorter truncation
of a series never knows a result coefficient the longer one does not.
Skipped when hypothesis is not installed.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from biriordan import dense  # noqa: E402
from biriordan.errors import (  # noqa: E402
    CompositionUndefinedError,
    GuardViolationError,
    NotInvertibleError,
    OrderIndeterminateError,
    PrecisionError,
    UndefinedProductError,
)
from biriordan.field import PrimeFieldElement  # noqa: E402
from biriordan.riordan import (  # noqa: E402
    apply,
    identity,
    inverse,
    j_conjugate,
    j_matrix,
    matmul,
    product_cell,
    riordan,
)
from biriordan.series import (  # noqa: E402
    DEFAULT_PRECISION,
    LaurentSeries,
    Side,
    _packed,
    add,
    compose,
    compositional_inverse,
    eq_to_precision,
    format_series,
    monomial,
    mul,
    parse,
    power,
    recip,
    substitute_reciprocal,
)
from biriordan.window import (  # noqa: E402
    MatrixWindow,
    apply_guard,
    extract,
    oracle_apply,
    oracle_matmul,
    product_guard,
    vector_from_series,
)
from test_dense_kernels import ref_columns  # noqa: E402
from test_parser import outcome, ref_parse  # noqa: E402

# the mod-prime reference of the benchmark, which shares no code with biriordan
_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

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


@st.composite
def _operands(draw, count):
    """count series over one field, Q or GF(7): each exact or known on a
    window of a drawn side, and dense, sparse (too many gaps to pack) or of
    one term."""
    p = draw(st.sampled_from([0, 7]))
    coeff = _COEFF if not p else st.integers(0, 6).map(lambda n: PrimeFieldElement(n, 7))
    out = []
    for _ in range(count):
        shape = draw(st.sampled_from(["dense", "sparse", "one-term"]))
        lo = draw(st.integers(-3, 3))
        n = {"dense": draw(st.integers(2, 5)), "sparse": draw(st.integers(2, 3)),
             "one-term": 1}[shape]
        step = 80 if shape == "sparse" else 1
        terms = {lo + i * step: draw(coeff) for i in range(n)}
        side = draw(st.sampled_from([None, Side.BELOW, Side.ABOVE]))
        if side is None:
            out.append(LaurentSeries.from_terms(terms))
        else:
            hi = lo + (n - 1) * step + draw(st.integers(0, 2))
            out.append(LaurentSeries.truncated(terms, side, lo, hi))
    return out


_SIDES = st.sampled_from([None, Side.BELOW, Side.ABOVE])
_PRECISIONS = st.sampled_from([None, 1, 3, 8])


def _flip_side(side, exact: bool):
    # the side argument on flipped inputs: a given side flips, and so does
    # the bounded-below default of exact inputs
    if side is None:
        return Side.ABOVE if exact else None
    return side.flipped()


def _assert_j_equivariant(call, flipped_call):
    """J of call()'s value equals flipped_call()'s value (a series or a dict
    of series), or both raise the same exception type (the messages name the
    side, so they mirror rather than match)."""
    exc, got = _raised(call)
    exc_j, want = _raised(flipped_call)
    assert (exc and exc[0]) == (exc_j and exc_j[0])
    if exc is None:
        if isinstance(got, dict):
            got = {k: substitute_reciprocal(v) for k, v in got.items()}
        else:
            got = substitute_reciprocal(got)
        assert got == want


@settings(max_examples=200, deadline=None)
@given(ops=_operands(2))
def test_add_and_mul_commute_with_j(ops):
    (a, b), (ja, jb) = ops, [substitute_reciprocal(s) for s in ops]
    _assert_j_equivariant(lambda: add(a, b), lambda: add(ja, jb))
    _assert_j_equivariant(lambda: mul(a, b), lambda: mul(ja, jb))


@settings(max_examples=200, deadline=None)
@given(ops=_operands(1), j=st.integers(-4, 4), side=_SIDES, precision=_PRECISIONS)
def test_recip_and_power_commute_with_j(ops, j, side, precision):
    a, = ops
    ja, js = substitute_reciprocal(a), _flip_side(side, a.exact)
    _assert_j_equivariant(lambda: recip(a, side, precision),
                          lambda: recip(ja, js, precision))
    _assert_j_equivariant(lambda: power(a, j, side, precision),
                          lambda: power(ja, j, js, precision))


@settings(max_examples=300, deadline=None)
@given(ops=_operands(2), side=_SIDES, precision=_PRECISIONS)
@example(ops=[LaurentSeries.truncated({0: 1, -1: 1}, Side.ABOVE, -1, 0),
              LaurentSeries.from_terms({-1: 1, 2: 1})], side=None, precision=None)
def test_compose_commutes_with_j_of_the_inner_series(ops, side, precision):
    # chi(J omega) = J (chi(omega)), chi unflipped: exact of one term or
    # several, or known on a window of either side.  The example: 1/omega
    # has an expansion of nonzero order on both sides, and `side` picks it
    chi, omega = ops
    _assert_j_equivariant(
        lambda: compose(chi, omega, precision, side),
        lambda: compose(chi, substitute_reciprocal(omega), precision,
                        _flip_side(side, omega.exact)))


@settings(max_examples=200, deadline=None)
@given(ops=_operands(2), side=_SIDES, precision=_PRECISIONS,
       js=st.lists(st.integers(-5, 6), min_size=1, max_size=5))
def test_columns_commute_with_j(ops, side, precision, js):
    alpha, omega = ops
    flipped = _flip_side(side, alpha.exact and omega.exact)
    _assert_j_equivariant(
        lambda: riordan(alpha, omega, side, precision).columns(js),
        lambda: riordan(substitute_reciprocal(alpha), substitute_reciprocal(omega),
                        flipped, precision).columns(js))


@settings(max_examples=150, deadline=None)
@given(m=_matrix(), js=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_negative_columns_are_the_columns_of_m_times_j(m, js):
    # column -j of m is column j of m J = R(alpha, 1/omega), 1/omega the one
    # reciprocal on the stored side that the walk of m's negative columns
    # builds: the same series, side and window, or the same exception
    got_exc, got = _raised(lambda: m.columns([-j for j in js]))
    want_exc, want = _raised(lambda: j_conjugate(m, "right").columns(js))
    assert got_exc == want_exc
    if got_exc is None:
        assert got == {-j: column for j, column in want.items()}


@settings(max_examples=150, deadline=None)
@given(omega=_invertible(), precision=st.sampled_from([None, 1, 2, 9]))
def test_compositional_inverse_commutes_with_j(omega, precision):
    # 1/omega is J after omega, so its inverse is omega's inverse before J:
    # J of the inverse of omega.  1/omega expands on the side omega has order
    # +-1 on, below first as compositional_inverse reads an exact omega
    side = omega.side if not omega.exact else \
        Side.BELOW if omega.lo in (1, -1) else Side.ABOVE
    _assert_j_equivariant(
        lambda: compositional_inverse(omega, precision),
        lambda: compositional_inverse(recip(omega, side, precision), precision))


def _pair(m):
    return {"alpha": m.alpha, "omega": m.omega}


@settings(max_examples=150, deadline=None)
@given(m=_matrix(), n=_matrix())
def test_matmul_commutes_with_j_on_the_left(m, n):
    # (J m) n = J (m n), and J times a matrix flips both of its series; the
    # class table has the same defined cells in the rows of m and of J m
    _assert_j_equivariant(lambda: _pair(matmul(m, n)),
                          lambda: _pair(matmul(j_conjugate(m, "left"), n)))


# -- compositions against the mod-prime reference ------------------------------------


@st.composite
def _one_sided(draw):
    """An inexact series on a drawn side: a nonzero coefficient at its order
    in -2..2 and up to five more known past it."""
    side = draw(st.sampled_from([Side.BELOW, Side.ABOVE]))
    order, count = draw(st.integers(-2, 2)), draw(st.integers(1, 6))
    step = 1 if side is Side.BELOW else -1
    terms = {order + step * i: draw(_COEFF) for i in range(1, count)}
    terms[order] = draw(_NONZERO)
    return LaurentSeries.truncated(terms, side, *sorted((order, order + step * (count - 1))))


@st.composite
def _few_terms(draw):
    """An exact series of two or three nonzero terms in x^-3..x^3."""
    exps = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=3, unique=True))
    return LaurentSeries.from_terms({e: draw(_NONZERO) for e in exps})


def _reference(s, side, count):
    """s as an oracle.Ser on side: residues from its order outward, its known
    window, or count coefficients of an exact s (its zeros past the end)."""
    v, step = (s.lo, 1) if side is Side.BELOW else (s.hi, -1)
    n = count if s.exact else s.hi - s.lo + 1
    return oracle.Ser(side.value, v, [oracle.residue(s[v + step * i], oracle.Q61)
                                      for i in range(n)], oracle.Q61)


def _assert_residues_agree(got, want):
    """got agrees with the reference series want mod 2^61-1 on the window
    both certify, which is not empty, and lies on want's side if inexact."""
    assert got.exact or got.side.value == want.side
    lo, hi = want.window
    known = [e for e in range(min(lo, got.lo), max(hi, got.hi) + 1)
             if got.known(e) and want.coeff(e) is not None]
    assert known
    assert [oracle.residue(got[e], oracle.Q61) for e in known] == \
        [want.coeff(e) for e in known]


@settings(max_examples=200, deadline=None)
@given(chi=_one_sided(), omega=_few_terms(), side=_SIDES, precision=st.sampled_from([4, 8]))
@example(chi=LaurentSeries.truncated({-1: 1, 0: 1, 1: 1}, Side.BELOW, -1, 1),
         omega=parse("x+x^2"), side=Side.ABOVE, precision=4)
def test_compose_matches_the_mod_prime_reference(chi, omega, side, precision):
    # omega of two or three terms goes to the reference on `side` (None:
    # below); wherever chi reads a negative power of omega (every bounded-
    # above chi does), the library has no other side to fall back on.  The
    # example is m * chi for m = R(1, x+x^2) stored above
    try:
        got = compose(chi, omega, precision, side)
    except CompositionUndefinedError:
        got = None
    try:
        want = oracle.compose(_reference(chi, chi.side, None),
                              _reference(omega, side or Side.BELOW, 12))
    except ValueError:  # a case the reference does not cover
        assert got is None or not (chi.side is Side.ABOVE or chi.lo < 0)
        return
    assert got is not None and not got.exact
    _assert_residues_agree(got, want)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 7]), st.lists(st.integers(-40, 40), min_size=1, max_size=90),
       st.integers(1, 12), st.integers(-5, 5), st.booleans(), st.booleans())
def test_kernel_output_is_the_series_of_its_coefficients(p, xs, den, base, exact, flip):
    # xs[i] / den at x^(base+i), on the flip when flip; zeros at either end,
    # a common factor of den and xs, and spans mostly made of gaps included
    if p:
        xs, den = [x % p for x in xs], 1
    terms = {(-1 if flip else 1) * (base + i): PrimeFieldElement(x, p) if p else Fraction(x, den)
             for i, x in enumerate(xs)}
    top = base + len(xs) - 1
    if exact:
        public = LaurentSeries.from_terms(terms)
    else:
        public = (LaurentSeries.truncated(terms, Side.ABOVE, -top, -base) if flip
                  else LaurentSeries.truncated(terms, Side.BELOW, base, top))
    read = _packed(list(xs), den, p, base, None if exact else len(xs), flip)
    read.coeffs
    for view in (lambda s: (s.side, s.lo, s.hi, s.exact), lambda s: s.support(),
                 lambda s: [s[e] for e in range(s.lo - 2, s.hi + 3) if s.known(e)],
                 lambda s: s == public and public == s, hash, format_series,
                 lambda s: s.to_json_dict()):
        for s in (_packed(list(xs), den, p, base, None if exact else len(xs), flip), read):
            assert view(s) == view(public)


_FIELDS = st.sampled_from([0, 7, 2**31 - 1])


@st.composite
def _values(draw):
    """(p, terms, side, lo, hi): a coefficient dict over GF(p) (Q for 0),
    zeros among its values, on a run of exponents or spread thin enough to
    be sparse, or empty; exact, or on a window of a side that may reach
    past the terms at either end, and that may be empty when they are."""
    p = draw(_FIELDS)
    coeff = _COEFF if not p else st.integers(0, p - 1).map(lambda n: PrimeFieldElement(n, p))
    start, count = draw(st.integers(-30, 30)), draw(st.integers(0, 8))
    step = draw(st.sampled_from([1, 1, 2, 30]))
    terms = {start + step * i: draw(coeff) for i in range(count)}
    side = draw(st.sampled_from([Side.FINITE, Side.BELOW, Side.ABOVE]))
    if any(terms.values()):
        nonzero = [e for e, c in terms.items() if c]
        lo = min(nonzero) - draw(st.integers(0, 4))
        hi = max(nonzero) + draw(st.integers(0, 4))
    else:
        lo = draw(st.integers(-30, 30))
        hi = lo + draw(st.integers(-4, 6))
    return p, terms, side, lo, hi


@settings(max_examples=400, deadline=None)
@given(_values())
def test_the_constructor_builds_what_the_kernel_builder_builds(value):
    # LaurentSeries(...) tightens the window and picks the form through the
    # kernel builder, so _packed of the sparse form of the same nonzero
    # coefficients (from the known end, on the flip when bounded above)
    # gives the same slots
    p, terms, side, lo, hi = value
    nonzero = {e: c for e, c in terms.items() if c}
    if side is Side.FINITE:
        packed = _packed(*dense.from_terms(nonzero, 0, 1, p), p, 0, None)
    elif side is Side.BELOW:
        packed = _packed(*dense.from_terms(nonzero, lo, 1, p), p, lo, hi - lo + 1)
    else:
        packed = _packed(*dense.from_terms(nonzero, hi, -1, p), p, -hi, hi - lo + 1, True)
    built = LaurentSeries(side, terms, lo, hi)
    assert (built.side, built.lo, built.hi, built._form) == \
        (packed.side, packed.lo, packed.hi, packed._form)


@settings(max_examples=150, deadline=None)
@given(m=_matrix(), n=_matrix(), row_lo=st.integers(-8, 8), col_lo=st.integers(-8, 8),
       rows=st.integers(0, 5), cols=st.integers(0, 5))
def test_every_defined_product_has_certified_guards(m, n, row_lo, col_lo, rows, cols):
    # a cell of the class table bounds every inner sum of the product, so
    # product_guard certifies any block without GuardViolationError.  The
    # converse does not hold, on purpose: an omega of order 0 belongs to no
    # class, and its matrix is refused though its sums are finite (README:
    # "cannot be multiplied")
    try:
        cell = product_cell(m, n)
    except OrderIndeterminateError:  # no class to read, so no cell
        cell = None
    assume(cell is not None)
    lo, hi = product_guard(m, n, (row_lo, row_lo + rows), (col_lo, col_lo + cols))
    assert lo <= hi or (lo, hi) == (0, -1)


# -- parsing -------------------------------------------------------------------------

_GAP = st.sampled_from(["", "", "", " ", "  ", "\t"])


@st.composite
def _atom_text(draw):
    """A literal: an integer, x, a tight fraction, an implicit product."""
    n, q = draw(st.integers(0, 12)), draw(st.integers(0, 5))
    e = draw(st.integers(-3, 4))
    return draw(st.sampled_from([
        str(n), "x", f"{n}/{q}", f"{n}x", f"{n}x^{e}", f"{n}/{q}x^{e}", f"x^{e}",
        f"{n}x^ {e}", f"{n}x ^{e}", f"{n} x", f"{n} /{q}", f"{n}/ {q}"]))


def _compound_text(inner):
    return st.one_of(
        st.tuples(inner, _GAP, st.sampled_from(["+", "-", "*", "/"]), _GAP, inner)
        .map("".join),
        st.tuples(_GAP, inner, _GAP).map(lambda t: "(" + "".join(t) + ")"),
        st.tuples(st.integers(1, 3), _GAP, inner).map(lambda t: "-" * t[0] + t[1] + t[2]),
        st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


@st.composite
def _text(draw):
    """An expression text, maybe with one character inserted or deleted."""
    text = draw(st.recursive(_atom_text(), _compound_text, max_leaves=8))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from("+-*/^()x0 3")) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


@settings(max_examples=250, deadline=None)
@given(text=_text(), side=st.sampled_from([Side.BELOW, Side.ABOVE, Side.FINITE]),
       precision=st.sampled_from([1, 3, 8, 16]))
@example(text="x^3*(1/2)/(2 - 2/3x - 1/2x^2)", side=Side.ABOVE, precision=64)
@example(text="(" * 101 + "x" + ")" * 101, side=Side.BELOW, precision=4)
def test_parse_matches_the_reference_parser(text, side, precision):
    assert outcome(parse, text, side, precision) == outcome(ref_parse, text, side, precision)


_TERMS = st.dictionaries(st.integers(-6, 12), _COEFF.filter(bool), max_size=14)


@settings(max_examples=150, deadline=None)
@given(a=_TERMS, b=_TERMS, side=st.sampled_from([Side.BELOW, Side.ABOVE]),
       precision=st.sampled_from([1, 2, 5, 16, 70]))
@example(a={e: Fraction(e % 5 - 2 or 1) for e in range(30)}, b={0: Fraction(2), 1: Fraction(-1)},
         side=Side.ABOVE, precision=5)
def test_quotient_is_the_numerator_times_the_reciprocal(a, b, side, precision):
    num, den = LaurentSeries.from_terms(a), LaurentSeries.from_terms(b)
    got = _raised(lambda: parse(f"({format_series(num)})/({format_series(den)})",
                                side, precision))
    want = _raised(lambda: mul(num, recip(den, side, precision)))
    assert got == want
    if got[1] is not None:
        assert {e: type(c) for e, c in got[1].coeffs.items()} == \
            {e: type(c) for e, c in want[1].coeffs.items()}


# -- matrices against the window oracles -----------------------------------------------

_BLOCK = (-2, 2)


_NONZERO = st.sampled_from([Fraction(c) for c in (-3, -2, -1, 1, 2, 3)]
                           + [Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _finite_pair(draw):
    """R(alpha, omega) stored on a drawn side: alpha of one to three nonzero
    terms, exact or known six exponents past them on that side; omega of one
    to three terms in x^-3..x^3 and of nonzero order on at least one side."""
    side = draw(st.sampled_from([Side.BELOW, Side.ABOVE]))
    lo, count = draw(st.integers(-2, 2)), draw(st.integers(1, 3))
    terms = {lo + i: draw(_NONZERO) for i in range(count)}
    if draw(st.booleans()):
        alpha = LaurentSeries.from_terms(terms)
    else:
        window = (lo, lo + count + 5) if side is Side.BELOW else (lo - 6, lo + count - 1)
        alpha = LaurentSeries.truncated(terms, side, *window)
    exps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    assume(exps != [0])
    omega = LaurentSeries.from_terms({e: draw(_NONZERO) for e in exps})
    return riordan(alpha, omega, side, draw(st.sampled_from([None, 4, 8])))


_ABOVE_ONE = riordan(LaurentSeries.one(), parse("x^-1+x^2"), Side.ABOVE)


def _oracle_product(m, n):
    """The block _BLOCK of m * n by oracle_matmul over product_guard."""
    guard = product_guard(m, n, _BLOCK, _BLOCK)
    if guard[0] > guard[1]:  # every summand is certified zero
        zero = Fraction(0)
        return MatrixWindow(_BLOCK[0], _BLOCK[0], ((zero,) * 5,) * 5)
    return oracle_matmul(extract(m, _BLOCK, guard), extract(n, guard, _BLOCK), guard)


_REFUSALS = (GuardViolationError, PrecisionError, UndefinedProductError)


@settings(max_examples=150, deadline=None)
@given(m=_finite_pair(), n=_finite_pair())
@example(m=_ABOVE_ONE, n=identity())
def test_matmul_matches_the_oracle(m, n):
    # the example is M * I for a pair whose columns depend on the side: the
    # product must realize M on its stored side, as extract does
    try:
        got = extract(matmul(m, n), _BLOCK, _BLOCK)
        want = _oracle_product(m, n)
    except _REFUSALS:
        return
    assert got == want


@settings(max_examples=150, deadline=None)
@given(m=_finite_pair(), chi=_series(None) | _series(Side.BELOW) | _series(Side.ABOVE))
def test_apply_matches_the_oracle(m, chi):
    try:
        value = apply(m, chi)
        got = [value[i] for i in range(_BLOCK[0], _BLOCK[1] + 1)]
        lo, hi = apply_guard(m, chi, _BLOCK)
        if lo > hi:
            want = [0] * 5
        else:
            want = list(oracle_apply(extract(m, _BLOCK, (lo, hi)),
                                     vector_from_series(chi, lo, hi), (lo, hi)).values)
    except (CompositionUndefinedError, *_REFUSALS):
        return
    assert got == want


@settings(max_examples=300, deadline=None)
@given(m=_finite_pair())
@example(m=riordan(parse("1+x"), parse("x+x^2"), Side.ABOVE))
@example(m=riordan(parse("1+x"), parse("x+x^-2"), Side.BELOW))
def test_inverse_inverts_on_the_stored_side(m):
    # omega has order 2 and -2 on the examples' stored sides, and order +-1
    # on the other: no inverse of the other realization may stand in
    if m.omega.order(m.side) not in (1, -1):
        with pytest.raises(NotInvertibleError):
            inverse(m)
        return
    try:
        got = extract(matmul(m, inverse(m)), _BLOCK, _BLOCK)
    except PrecisionError:
        return
    assert got == extract(identity(), _BLOCK, _BLOCK)


@settings(max_examples=150, deadline=None)
@given(m=_finite_pair())
@example(m=riordan(LaurentSeries.one(), parse("x-x^2"), Side.BELOW))
def test_j_conjugate_is_the_product_with_j(m):
    # left is J * m, right is m * J; the flipped realization of m * J
    # expands 1/omega, so it may know fewer entries
    for side, want in (("left", lambda: _oracle_product(j_matrix(), m)),
                       ("right", lambda: _oracle_product(m, j_matrix()))):
        try:
            want = want()
        except PrecisionError:
            continue
        try:
            got = extract(j_conjugate(m, side), _BLOCK, _BLOCK)
        except PrecisionError:
            assert side == "right"
            continue
        assert got == want


# -- inverses against the mod-prime reference --------------------------------------


@st.composite
def _unit_order(draw):
    """(omega, side): omega of order +1 or -1 on side, either the expansion
    there of x^o (1 + a t) / (1 + b t + c t^2), t = x below and x^-1 above,
    or an exact polynomial of two or three terms led by x^o on that side."""
    side = draw(st.sampled_from([Side.BELOW, Side.ABOVE]))
    order, step = draw(st.sampled_from([1, -1])), 1 if side is Side.BELOW else -1
    if draw(st.booleans()):
        num = LaurentSeries.from_terms({order: draw(_NONZERO), order + step: draw(_COEFF)})
        den = LaurentSeries.from_terms({0: 1, step: draw(_COEFF), 2 * step: draw(_COEFF)})
        return mul(num, recip(den, side, draw(st.integers(2, 12)))), side
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    terms = {order + step * k: draw(_NONZERO) for k in gaps}
    return LaurentSeries.from_terms({order: draw(_NONZERO), **terms}), side


@settings(max_examples=150, deadline=None)
@given(drawn=_unit_order(), precision=st.sampled_from([4, 8, 12]))
def test_compositional_inverse_matches_the_mod_prime_reference(drawn, precision):
    # an exact omega is read below when its least exponent is +-1, else above
    omega, _ = drawn
    side = omega.side if not omega.exact else \
        Side.BELOW if omega.lo in (1, -1) else Side.ABOVE
    _assert_residues_agree(compositional_inverse(omega, precision),
                           oracle.compositional_inverse(_reference(omega, side, precision)))


@settings(max_examples=150, deadline=None)
@given(drawn=_unit_order(), flip=st.booleans(), count=st.integers(1, 3),
       inexact=st.booleans(), precision=st.sampled_from([4, 8, 12]), data=st.data())
def test_inverse_matches_the_mod_prime_reference(drawn, flip, count, inexact, precision,
                                                 data):
    # the pair is stored on omega's drawn side, or on the other one when omega
    # is exact, where its order need not be +-1: the library refuses where
    # the reference, given omega on the stored side, raises
    omega, side = drawn
    if omega.exact and flip:
        side = side.flipped()
    step = 1 if side is Side.BELOW else -1
    order = data.draw(st.integers(-2, 2))
    terms = {order + step * i: data.draw(_NONZERO) for i in range(count)}
    alpha = LaurentSeries.from_terms(terms)
    if inexact or not omega.exact:
        alpha = LaurentSeries.truncated(terms, side, *sorted((order, order + step * 7)))
    try:
        got = inverse(riordan(alpha, omega, side, precision))
    except NotInvertibleError:
        got = None
    try:
        want = oracle.inverse(_reference(alpha, side, precision),
                              _reference(omega, side, precision))
    except ValueError:
        assert got is None
        return
    assert got is not None
    _assert_residues_agree(got.alpha, want[0])
    _assert_residues_agree(got.omega, want[1])


def _reference_pair(m):
    """(alpha, omega) of m as oracle series on its stored side, an exact one
    to the matrix's precision."""
    count = DEFAULT_PRECISION if m.precision is None else m.precision
    return _reference(m.alpha, m.side, count), _reference(m.omega, m.side, count)


@settings(max_examples=150, deadline=None)
@given(m=_finite_pair(), n=_finite_pair())
@example(m=_ABOVE_ONE, n=identity())
def test_matmul_matches_the_mod_prime_reference(m, n):
    # the reference composes each pair on its stored side; where it covers no
    # case, or the class table refuses the product, there is nothing to compare
    try:
        want = oracle.matmul(*_reference_pair(m), *_reference_pair(n))
    except ValueError:
        return
    try:
        got = matmul(m, n)
    except UndefinedProductError:
        return
    _assert_residues_agree(got.alpha, want[0])
    _assert_residues_agree(got.omega, want[1])
    # the block of columns 0..3 on the rows that each column of both certifies
    cols, want_cols = got.columns(range(4)), oracle.columns(*want, 3)
    lo, hi = min(c.window[0] for c in want_cols), max(c.window[1] for c in want_cols)
    rows = [i for i in range(lo, hi + 1) if all(
        cols[j].known(i) and want_cols[j].coeff(i) is not None for j in range(4))]
    assert rows
    block = extract(got, (rows[0], rows[-1]), (0, 3))
    assert [[oracle.residue(x, oracle.Q61) for x in row] for row in block.entries] == \
        [[want_cols[j].coeff(i) for j in range(4)] for i in rows]


# -- associativity and precision monotonicity ----------------------------------------


@settings(max_examples=150, deadline=None)
@given(m=_finite_pair(), n=_finite_pair(), q=_finite_pair())
@example(m=_ABOVE_ONE, n=identity(), q=riordan(parse("1+x"), parse("x-x^2"), Side.ABOVE))
def test_matmul_is_associative_on_the_entries_both_compute(m, n, q):
    try:
        left = matmul(matmul(m, n), q)
        right = matmul(m, matmul(n, q))
    except _REFUSALS + (CompositionUndefinedError,):
        return
    for j in range(_BLOCK[0], _BLOCK[1] + 1):
        (exc, a), (exc_b, b) = _raised(lambda: left.column(j)), _raised(lambda: right.column(j))
        if exc is None and exc_b is None:
            rows = [i for i in range(_BLOCK[0], _BLOCK[1] + 1) if a.known(i) and b.known(i)]
            assert [a[i] for i in rows] == [b[i] for i in rows]


@st.composite
def _truncations(draw):
    """(s, t): two truncations of one series on a drawn side, known from
    the same order outward, t on the shorter window."""
    side = draw(st.sampled_from([Side.BELOW, Side.ABOVE]))
    order, count = draw(st.integers(-2, 2)), draw(st.integers(2, 7))
    step = 1 if side is Side.BELOW else -1
    terms = {order + step * i: draw(_COEFF) for i in range(1, count)}
    terms[order] = draw(_NONZERO)
    shorter = draw(st.integers(1, count - 1))

    def known(n):
        return LaurentSeries.truncated({e: c for e, c in terms.items()
                                        if step * (e - order) < n},
                                       side, *sorted((order, order + step * (n - 1))))

    return known(count), known(shorter)


def _assert_no_wider(call, s, t):
    """call(t) is known only where call(s) is known, and agrees there; a
    refusal on t is allowed wherever s has a value."""
    exc, wide = _raised(lambda: call(s))
    exc_t, narrow = _raised(lambda: call(t))
    if exc_t is not None:
        return
    assert exc is None
    span = range(min(wide.lo, narrow.lo) - 2, max(wide.hi, narrow.hi) + 3)
    assert all(wide.known(e) and wide[e] == narrow[e] for e in span if narrow.known(e))


@settings(max_examples=150, deadline=None)
@given(pair=_truncations(), b=_SIDES.flatmap(_series), precision=_PRECISIONS)
def test_a_shorter_truncation_never_knows_more(pair, b, precision):
    side = pair[0].side
    _assert_no_wider(lambda a: mul(a, b), *pair)
    _assert_no_wider(lambda a: recip(a, side, precision), *pair)
    _assert_no_wider(lambda a: compose(a, b, precision, side), *pair)
    _assert_no_wider(lambda a: compose(b, a, precision, side), *pair)
