"""Formal Laurent series with exact coefficients and tracked known windows.

A value is either an exact Laurent polynomial (finite support, every
coefficient known) or a one-sided series: bounded below (finitely many
negative exponents, an element of K((x))) or bounded above (finitely many
positive exponents, an element of K((1/x))).  Inexact values carry a
contiguous window [lo, hi] of known coefficients; for a bounded-below series
every exponent < lo is known zero, so the known region is (-inf, hi], and
mirrored for bounded-above.  Every operation derives the widest output window
it can certify from its inputs and never reports a coefficient it cannot
prove.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

from .errors import (
    CompositionUndefinedError,
    NotInvertibleError,
    OrderIndeterminateError,
    ParseError,
    PrecisionError,
    SideIndeterminateError,
    SideMismatchError,
    UndefinedProductError,
    ZeroSeriesError,
)
from . import dense
from .field import PrimeFieldElement

DEFAULT_PRECISION = 16
MAX_NESTING = 100  # parenthesis depth the recursive-descent parser accepts
MAX_EXPONENT = 10_000  # largest |j| in a power of a base with several terms
MAX_COMPOSE_LENGTH = 100_000  # most dense coefficients a composition works on
_ZERO = Fraction(0)  # a known gap; Fractions are immutable, so one serves all


class Side(enum.Enum):
    BELOW = "below"      # bounded below: element of K((x))
    ABOVE = "above"      # bounded above: element of K((1/x))
    FINITE = "finite"    # finite support: usable on either side

    def flipped(self) -> "Side":
        if self is Side.BELOW:
            return Side.ABOVE
        if self is Side.ABOVE:
            return Side.BELOW
        return self


class LaurentSeries:
    """Immutable series value; construct via from_terms/truncated/parse."""

    __slots__ = ("side", "coeffs", "lo", "hi", "exact")

    def __init__(self, side: Side, coeffs: dict, lo: int, hi: int):
        # exactness is the finite side; a slot, not a property, as the
        # matrix code reads it in its inner loops
        exact = side is Side.FINITE
        coeffs = {e: (Fraction(c) if isinstance(c, int) else c)
                  for e, c in coeffs.items() if c}
        if exact:
            lo, hi = (min(coeffs), max(coeffs)) if coeffs else (0, -1)
        elif coeffs:
            if min(coeffs) < lo or max(coeffs) > hi:
                raise ValueError("coefficient outside known window")
            # tighten the window against known-zero leading coefficients
            if side is Side.BELOW:
                lo = min(coeffs)
            else:
                hi = max(coeffs)
        elif side is Side.BELOW:
            lo = hi + 1
        else:
            hi = lo - 1
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, terms) -> "LaurentSeries":
        """Exact Laurent polynomial from {exponent: coefficient} or pairs."""
        return cls(Side.FINITE, dict(terms), 0, -1)

    @classmethod
    def truncated(cls, terms, side: Side, lo: int, hi: int) -> "LaurentSeries":
        """Inexact series known exactly on [lo, hi]."""
        if side not in (Side.BELOW, Side.ABOVE):
            raise ValueError("inexact series must be bounded below or above")
        return cls(side, dict(terms), lo, hi)

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls.from_terms({})

    @classmethod
    def one(cls) -> "LaurentSeries":
        return cls.from_terms({0: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.exact and not self.coeffs

    def support(self) -> list:
        return sorted(self.coeffs)

    def known(self, e: int) -> bool:
        """Is the coefficient of x^e determined by this value?"""
        if self.exact:
            return True
        if self.side is Side.BELOW:
            return e <= self.hi
        return e >= self.lo

    def __getitem__(self, e: int):
        if not self.known(e):
            raise PrecisionError(
                f"coefficient of x^{e} lies outside the known window "
                f"[{self.lo}, {self.hi}]"
            )
        return self.coeffs.get(e, _ZERO)

    def order(self, side: Side | None = None):
        """Least (below) or greatest (above) exponent with nonzero coefficient.

        Returns None for the exact zero series.  For finite-support values the
        convention defaults to bounded-below when no side is given.
        """
        if self.is_zero():
            return None
        if side is None:
            side = Side.BELOW if self.side is Side.FINITE else self.side
        if side is Side.FINITE:
            raise ValueError("order needs a one-sided convention")
        if self.side not in (side, Side.FINITE):
            raise SideMismatchError(f"{self.side.value} series has no {side.value} order")
        if not self.coeffs:
            raise OrderIndeterminateError(
                "no nonzero coefficient inside the known window"
            )
        return self.lo if side is Side.BELOW else self.hi

    def count_from_order(self) -> int | None:
        """Number of known coefficients counted from the order; None if exact."""
        if self.exact:
            return None
        return self.hi - self.lo + 1

    # -- structural equality -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.side is other.side
            and self.lo == other.lo
            and self.hi == other.hi
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.side, self.lo, self.hi, tuple(sorted(self.coeffs.items()))))

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __pow__(self, j):
        return power(self, j)

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        return format_series(self)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        tag = "exact" if self.exact else f"[{self.lo},{self.hi}]"
        return f"<LaurentSeries {self.side.value} {tag} {self.to_text()}>"

    def to_json_dict(self) -> dict:
        return {
            "side": self.side.value,
            "exact": self.exact,
            "lo": self.lo,
            "hi": self.hi,
            "terms": [[e, str(self.coeffs[e])] for e in sorted(self.coeffs)],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LaurentSeries":
        terms = {int(e): Fraction(c) for e, c in d["terms"]}
        if d["exact"]:
            return cls.from_terms(terms)
        return cls.truncated(terms, Side(d["side"]), int(d["lo"]), int(d["hi"]))


def monomial(coeff, exp: int = 0) -> LaurentSeries:
    return LaurentSeries.from_terms({exp: coeff})


def _one_like(a: LaurentSeries) -> LaurentSeries:
    # multiplicative identity with coefficients from a's field
    for c in a.coeffs.values():
        return LaurentSeries.from_terms({0: c / c})
    return LaurentSeries.one()


# -- addition ----------------------------------------------------------------


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    if a.exact and b.exact:
        terms = dict(a.coeffs)
        for e, c in b.coeffs.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentSeries.from_terms(terms)
    sides = {s.side for s in (a, b) if not s.exact}
    if len(sides) == 2:
        raise SideIndeterminateError(
            "sum of a bounded-below and a bounded-above series cannot be "
            "certified bounded on either side"
        )
    if sides.pop() is Side.ABOVE:
        return substitute_reciprocal(
            add(substitute_reciprocal(a), substitute_reciprocal(b)))
    hi = min(s.hi for s in (a, b) if not s.exact)
    lo = min(s.lo for s in (a, b) if not (s.exact and not s.coeffs))
    terms: dict = {}
    for s in (a, b):
        for e, c in s.coeffs.items():
            if e <= hi:
                terms[e] = terms.get(e, 0) + c
    return LaurentSeries.truncated(terms, Side.BELOW, lo, hi)


def neg(a: LaurentSeries) -> LaurentSeries:
    terms = {e: -c for e, c in a.coeffs.items()}
    if a.exact:
        return LaurentSeries.from_terms(terms)
    return LaurentSeries.truncated(terms, a.side, a.lo, a.hi)


# -- multiplication -----------------------------------------------------------


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero()
    if a.exact and b.exact:
        return LaurentSeries.from_terms(_convolve(a.coeffs, b.coeffs))
    sides = {s.side for s in (a, b) if not s.exact}
    if len(sides) == 2:
        raise UndefinedProductError(
            "product of a bounded-below and a bounded-above series is "
            "undefined unless one has finite support"
        )
    if sides.pop() is Side.ABOVE:
        return substitute_reciprocal(
            mul(substitute_reciprocal(a), substitute_reciprocal(b)))
    # known through min over inexact factors of (hi + other's support bound)
    caps = []
    if not a.exact:
        caps.append(a.hi + b.lo)
    if not b.exact:
        caps.append(b.hi + a.lo)
    hi = min(caps)
    terms = _convolve(a.coeffs, b.coeffs, hi=hi)
    return LaurentSeries.truncated(terms, Side.BELOW, a.lo + b.lo, hi)


def _convolve(ca: dict, cb: dict, hi: int | None = None) -> dict:
    """Product of coefficient dicts, keeping exponents <= hi (None: unbounded).

    Terms that cannot reach the window are dropped first.  Q and GF(p)
    coefficients on dense enough supports are multiplied as one packed
    integer; anything else goes through the term-by-term loop."""
    if not (ca and cb):
        return {}
    if hi is not None:
        a_min, b_min = min(ca), min(cb)
        ca = {e: c for e, c in ca.items() if e + b_min <= hi}
        cb = {e: c for e, c in cb.items() if e + a_min <= hi}
        if not (ca and cb):
            return {}
    # a one-term factor is a shift and a scale of the other (inside the
    # window, as the other's terms beyond it are dropped above)
    if len(ca) == 1:
        (i, ci), = ca.items()
        return {i + j: ci * cj for j, cj in cb.items()}
    if len(cb) == 1:
        (j, cj), = cb.items()
        return {i + j: ci * cj for i, ci in ca.items()}
    # a handful of term pairs, or a support mostly made of gaps, is cheaper
    # term by term
    if len(ca) * len(cb) > 8 and _dense_enough(ca) and _dense_enough(cb):
        out = _convolve_packed(ca, cb, hi)
        if out is not None:
            return out
    return _convolve_terms(ca, cb, hi)


def _convolve_terms(ca: dict, cb: dict, hi: int | None) -> dict:
    out: dict = {}
    for i, ci in ca.items():
        for j, cj in cb.items():
            k = i + j
            if hi is None or k <= hi:
                out[k] = out.get(k, 0) + ci * cj
    return out


def _dense_enough(c: dict) -> bool:
    return _worth_packing(max(c) - min(c), len(c))


def _worth_packing(span: int, terms: int) -> bool:
    # packing costs a slot per exponent in the span, the loop a step per term
    return span < 4 * terms + 64


def _convolve_packed(ca: dict, cb: dict, hi: int | None) -> dict | None:
    """The product of two Q or GF(p) coefficient dicts in the dense working
    form, as one packed integer product (see dense.product); None unless the
    coefficients are all Fraction or all residues mod one prime."""
    p = dense.field_of([*ca.values(), *cb.values()])
    if p is None:
        return None
    a0, b0 = min(ca), min(cb)
    xa, da = dense.from_coeffs(ca, a0, max(ca) - a0 + 1, p)
    xb, db = dense.from_coeffs(cb, b0, max(cb) - b0 + 1, p)
    base = a0 + b0
    count = len(xa) + len(xb) - 1
    if hi is not None:
        count = min(count, hi - base + 1)
    return dense.to_coeffs(dense.product(xa, xb, count), da * db, base, p)


# -- reciprocal and powers -----------------------------------------------------


def recip(a: LaurentSeries, side: Side | None = None,
          precision: int | None = None) -> LaurentSeries:
    """Multiplicative inverse, expanded on the requested side.

    An inexact input of order m with c known coefficients yields order -m with
    the same count c; an exact non-monomial input is expanded to `precision`
    coefficients (monomials invert exactly).
    """
    if a.is_zero():
        raise ZeroSeriesError("reciprocal of the zero series")
    if not a.exact and not a.coeffs:
        raise OrderIndeterminateError("reciprocal needs a computable order")
    if a.exact and len(a.coeffs) == 1:
        (e, c), = a.coeffs.items()
        return monomial(1 / c, -e)
    if side is None:
        side = Side.BELOW if a.side is Side.FINITE else a.side
    if a.side not in (side, Side.FINITE):
        raise SideMismatchError(
            f"cannot expand the reciprocal of a {a.side.value} series {side.value}"
        )
    if side is Side.ABOVE:
        return substitute_reciprocal(
            recip(substitute_reciprocal(a), Side.BELOW, precision)
        )
    m = a.order(Side.BELOW)
    count = _known_count(a, precision)
    p = dense.require_field(
        [a.coeffs[e] for e in sorted(a.coeffs) if e < m + count])
    xs, den = dense.recip(dense.from_coeffs(a.coeffs, m, count, p), count, p)
    return LaurentSeries.truncated(dense.to_coeffs(xs, den, -m, p), Side.BELOW,
                                   -m, -m + count - 1)


def _known_count(a: LaurentSeries, precision: int | None) -> int:
    """Coefficients known from the order: the window of an inexact series,
    `precision` (default DEFAULT_PRECISION) for an exact one."""
    count = a.count_from_order()
    if count is None:
        count = DEFAULT_PRECISION if precision is None else precision
        if count < 1:
            raise ValueError("precision must be at least 1")
    return count


def _check_exponent(a: LaurentSeries, j: int) -> None:
    # the one exponent budget, on every route to a power
    if abs(j) > MAX_EXPONENT and len(a.coeffs) > 1:
        raise ValueError(f"exponent must be at most {MAX_EXPONENT} in absolute value")


def power(a: LaurentSeries, j: int, side: Side | None = None,
          precision: int | None = None) -> LaurentSeries:
    """a ** j for integer j; negative j is expanded on the given side.

    |j| above MAX_EXPONENT is refused on a base of several terms, wherever the
    power arises (an expression, a composition, a matrix column).  An exact
    base over Q of several terms is raised by Miller's recurrence
    (dense.power) where that beats repeated squaring: for every j < 0, and
    for j >= 2 from half its term count on when its support is dense (the
    recurrence walks every exponent of the result).  Any other base is
    squared repeatedly, after recip for j < 0."""
    _check_exponent(a, j)
    if j == 0:
        return _one_like(a)
    terms = len(a.coeffs)
    if (a.exact and terms > 1
            and (j < 0 or j > 1 and 2 * j >= terms and _dense_enough(a.coeffs))
            and dense.field_of(list(a.coeffs.values())) == 0):
        return _miller_power(a, j, side, precision)
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


def _miller_power(a: LaurentSeries, j: int, side: Side | None,
                  precision: int | None) -> LaurentSeries:
    # a exact over Q with several terms: the exact polynomial a^j for j > 0,
    # else the expansion that recip and repeated squaring give, on the same
    # window
    if j < 0 and side is Side.ABOVE:
        return substitute_reciprocal(
            _miller_power(substitute_reciprocal(a), j, Side.BELOW, precision))
    m = min(a.coeffs)
    span = max(a.coeffs) - m + 1
    count = j * (span - 1) + 1 if j > 0 else _known_count(a, precision)
    xs, den = dense.power(dense.from_coeffs(a.coeffs, m, min(span, count), 0), j, count)
    terms = dense.to_coeffs(xs, den, j * m, 0)
    if j > 0:
        return LaurentSeries.from_terms(terms)
    return LaurentSeries.truncated(terms, Side.BELOW, j * m, j * m + count - 1)


def powers(a: LaurentSeries, exponents, side: Side | None = None,
           precision: int | None = None, factor: LaurentSeries | None = None):
    """Yield (j, a ** j) for the distinct exponents in ascending order, each
    power built from the one before it on the same side of 0: upward from
    the first exponent > 0 by power(a, gap), downward from -1 by powers of
    one recip(a, side, precision).  Values, windows and exceptions are those
    of power(a, j, side, precision) taken for each j in turn.  With a factor
    f, yield (j, f * a ** j) instead, the values of mul(f, power(...)): f
    goes into the first power on each side of 0 and each later one is the
    one before it times a power of a (the window rule of mul is
    associative).  Each value leaves the walk's working form once."""
    inputs = (a,) if factor is None else (a, factor)
    form = _form(next((s.side for s in inputs if not s.exact), side), *inputs)
    lifted = None if factor is None else form.lift(factor)
    for j, pw in _walk(a, exponents, side, precision, form, lifted):
        yield j, form.out(pw)


def _walk(a: LaurentSeries, exponents, side: Side | None,
          precision: int | None, form, factor=None):
    # the walk of powers with each power kept in the working form `form`;
    # with a factor (a value in that form), the walk of factor * a^j, which
    # takes the factor into the first power on each side of 0 (the window
    # rule of mul is associative: lo adds up and the fewest known binds).
    # The first power on each side comes as a series, which a form converts
    # only when a product or a sum reads it.
    def first(s):
        return s if factor is None else form.mul(factor, s)

    exps = sorted(set(exponents))
    negative = [j for j in exps if j < 0]
    if negative:
        _check_exponent(a, negative[0])
        r = recip(a, side, precision)
        # power(r, gap) in the working form, converted once per gap
        step = functools.cache(lambda gap: form.lift(power(r, gap)))
        down = []
        prev, pw = 0, None
        for j in reversed(negative):
            pw = first(power(r, -j)) if pw is None else form.mul(pw, step(prev - j))
            down.append(pw)
            prev = j
        yield from zip(negative, reversed(down))
    step = functools.cache(lambda gap: form.lift(power(a, gap)))
    prev = pw = None
    for j in exps[len(negative):]:
        _check_exponent(a, j)
        if j == 0:
            yield j, first(_one_like(a))
            continue
        pw = (first(power(a, j, side, precision)) if pw is None
              else form.mul(pw, step(j - prev)))
        prev = j
        yield j, pw


def _form(side: Side | None, *series: LaurentSeries):
    """The working form of a walk over these series whose one-sided values
    live on `side`: the dense form of the field of their coefficients, which
    packs nothing when they share no field (so what a scalar loop raised is
    raised) or have no known coefficient."""
    values = [c for s in series for c in s.coeffs.values()]
    return _DenseForm(dense.field_of(values) if values else None, side is Side.ABOVE)


def _sum(terms) -> LaurentSeries:
    """The sum of c * v over the pairs (c, v) of a scalar and a series, known
    where every inexact v is known (all are on one side)."""
    acc: dict = {}
    inexact = []
    for c, v in terms:
        # every product of a term before its sum, as mul then add raised
        for e, y in [(e, c * x) for e, x in v.coeffs.items()]:
            acc[e] = acc[e] + y if e in acc else y
        if not v.exact:
            inexact.append(v)
    if not inexact:
        return LaurentSeries.from_terms(acc)
    if inexact[0].side is Side.BELOW:
        hi = min(v.hi for v in inexact)
        acc = {e: c for e, c in acc.items() if e <= hi}
        return LaurentSeries.truncated(acc, Side.BELOW, min(acc, default=hi + 1), hi)
    lo = max(v.lo for v in inexact)
    acc = {e: c for e, c in acc.items() if e >= lo}
    return LaurentSeries.truncated(acc, Side.ABOVE, lo, max(acc, default=lo - 1))


class _DenseForm:
    """The dense working form over GF(p), or Q when p = 0, on the bounded
    below side: a value (xs, den, lo, n) holds the coefficients xs[i] / den
    of x^(lo+i), known through x^(lo+n-1), or exact when n is None (xs then
    spans the support).  A walk on the bounded-above side runs on the flip
    x -> 1/x, taken once as a series comes in and once as it goes out.  A
    series also stands for its own value until a product or a sum reads it,
    so one that is never multiplied is never converted.  Each product and
    sum keeps the rule _convolve applies to each product: a value whose
    span is mostly gaps, or that has no known coefficient, stays a series
    and takes series arithmetic, and so does an inexact series on the other
    side (whose product raises) and every value when p is None."""

    __slots__ = ("p", "flip", "side")

    def __init__(self, p: int, flip: bool):
        self.p = p
        self.flip = flip
        self.side = Side.ABOVE if flip else Side.BELOW

    def fits(self, v) -> bool:
        # the density test on what the form packs: the support of an exact
        # value, the whole window of an inexact one
        if type(v) is LaurentSeries:
            if self.p is None or not v.coeffs or not (v.exact or v.side is self.side):
                return False
            span = max(v.coeffs) - min(v.coeffs) if v.exact else v.hi - v.lo
            return _worth_packing(span, len(v.coeffs))
        xs = v[0]
        return _worth_packing(len(xs) - 1, len(xs) - xs.count(0))

    def lift(self, s: LaurentSeries):
        """s in the dense form, or s itself when it does not fit."""
        return self._enter(s) if self.fits(s) else s

    def _enter(self, s: LaurentSeries) -> tuple:
        lo, hi = (min(s.coeffs), max(s.coeffs)) if s.exact else (s.lo, s.hi)
        xs, den = dense.from_coeffs(s.coeffs, lo, hi - lo + 1, self.p)
        n = None if s.exact else hi - lo + 1
        if self.flip:
            return xs[::-1], den, -hi, n
        return xs, den, lo, n

    def read(self, v) -> tuple:
        # a value that fits, as a tuple
        return self._enter(v) if type(v) is LaurentSeries else v

    def mul(self, u, v):
        if not (self.fits(u) and self.fits(v)):
            return mul(self.out(u), self.out(v))
        # the window rule of mul: exact times exact is exact, else the
        # fewest known coefficients of an inexact factor bind
        (xu, du, lu, nu), (xv, dv, lv, nv) = self.read(u), self.read(v)
        if nu is None and nv is None:
            n, count = None, len(xu) + len(xv) - 1
        else:
            n = count = min(k for k in (nu, nv) if k is not None)
        xs, den = dense.mul((xu, du), (xv, dv), count, self.p)
        return xs, den, lu + lv, n

    def out(self, v) -> LaurentSeries:
        if type(v) is LaurentSeries:
            return v
        xs, den, lo, n = v
        if self.flip:
            xs, lo = xs[::-1], -(lo + len(xs) - 1)
        terms = dense.to_coeffs(xs, den, lo, self.p)
        if n is None:
            return LaurentSeries.from_terms(terms)
        return LaurentSeries.truncated(terms, self.side, lo, lo + n - 1)

    def sum(self, terms) -> LaurentSeries:
        """The sum of c * v over the pairs (c, v), known through the least
        bound of an inexact v, as one series."""
        if self.p is None:
            # term by term as the walk yields them, so what raises first raises
            return _sum(terms)
        terms = list(terms)
        if not all(self.fits(v) for _, v in terms):
            return _sum((c, self.out(v)) for c, v in terms)
        terms = [(c, self.read(v)) for c, v in terms]
        lo = min(l for _, (_, _, l, _) in terms)
        caps = [l + n - 1 for _, (_, _, l, n) in terms if n is not None]
        hi = min(caps) if caps else max(l + len(xs) - 1 for _, (xs, _, l, _) in terms)
        xs, den = dense.combine([(c, l - lo, (xs, d)) for c, (xs, d, l, _) in terms],
                                hi - lo + 1, self.p)
        return self.out((xs, den, lo, hi - lo + 1 if caps else None))


def substitute_reciprocal(a: LaurentSeries) -> LaurentSeries:
    """Exponent negation x -> 1/x; flips the side, preserves exactness."""
    terms = {-e: c for e, c in a.coeffs.items()}
    if a.exact:
        return LaurentSeries.from_terms(terms)
    return LaurentSeries.truncated(terms, a.side.flipped(), -a.hi, -a.lo)


# -- composition ---------------------------------------------------------------


def _side_order(omega: LaurentSeries, side: Side) -> int | None:
    """Order of omega viewed on `side` (least exponent below, greatest
    above), or None if omega cannot be viewed on that side."""
    if not omega.exact:
        if omega.side is not side:
            return None
        if not omega.coeffs:
            raise OrderIndeterminateError("inner series has indeterminate order")
    return omega.lo if side is Side.BELOW else omega.hi


def compose(chi: LaurentSeries, omega: LaurentSeries,
            precision: int | None = None, side: Side | None = None) -> LaurentSeries:
    """Substitution chi(omega) = sum over k of chi_k * omega^k.

    Defined when chi has finite support (any nonzero omega), or per side/order:
    bounded-below chi needs omega bounded below of order >= 1 or bounded above
    of order <= -1; bounded-above chi mirrors.  `side` disambiguates the
    expansion of negative powers when omega has finite support.
    """
    if omega.is_zero():
        raise CompositionUndefinedError("inner series is zero")
    if chi.exact:
        if chi.is_zero():
            return LaurentSeries.zero()
        work = omega.side if omega.side is not Side.FINITE else (side or Side.BELOW)
        if len(chi.coeffs) == 1:  # c x^e is c times one power
            (e, c), = chi.coeffs.items()
            return mul(monomial(c), power(omega, e, work, precision))
        # chi's coefficients are scalars of the sum and only fix the field
        form = _form(work, omega, chi)
        return form.sum((chi.coeffs[e], pw)
                        for e, pw in _walk(omega, chi.coeffs, work, precision, form))
    bo = _side_order(omega, Side.BELOW)
    ao = _side_order(omega, Side.ABOVE)
    if chi.side is Side.BELOW:
        if bo is not None and bo >= 1:
            return _compose_kernel(chi, omega, precision)
        if ao is not None and ao <= -1:
            return substitute_reciprocal(
                _compose_kernel(chi, substitute_reciprocal(omega), precision)
            )
    else:
        # a bounded-above chi is (J chi)(1/x), so chi(omega) = (J chi)(1/omega),
        # with 1/omega expanded on `side` when a finite omega allows both
        sides = [s for s, ok in ((Side.BELOW, bo is not None and bo <= -1),
                                 (Side.ABOVE, ao is not None and ao >= 1)) if ok]
        if sides:
            inner_side = side if side in sides else sides[0]
            return compose(substitute_reciprocal(chi),
                           recip(omega, inner_side, precision), precision)
    raise CompositionUndefinedError(
        "composition undefined: infinite outer support needs an inner series "
        "of nonzero order on a matching side (bounded-below outer with "
        "bounded-below inner of order >= 1 or bounded-above inner of order "
        "<= -1; bounded-above outer mirrored)"
    )


def _compose_kernel(chi: LaurentSeries, omega: LaurentSeries,
                    precision: int | None) -> LaurentSeries:
    # chi inexact bounded below of order m; omega viewable below with order
    # w >= 1.  chi(omega) = omega^m * sum over k of chi_k omega^(k-m), the sum
    # by Paterson and Stockmeyer's scheme on the dense working form.
    w = omega.lo
    m = chi.lo
    cap = (chi.hi + 1) * w - 1  # chi's own truncation
    if not chi.coeffs:
        return LaurentSeries.truncated({}, Side.BELOW, m * w, cap)
    head = power(omega, m, Side.BELOW, precision)
    # chi_k omega^k is known through the hi of omega^k, which grows with k,
    # so the first inexact term binds: omega^m when inexact, else (m = 0,
    # omega inexact) omega^k of the next nonzero chi_k, known through
    # omega.hi + (k - 1) w
    if not head.exact:
        cap = min(cap, head.hi)
    elif not omega.exact:
        later = [k for k in chi.coeffs if k > 0]
        if later:
            cap = min(cap, omega.hi + (min(later) - 1) * w)
    n = cap - m * w + 1
    top = min(chi.hi, m + (n - 1) // w)  # later terms start above x^cap
    p = dense.require_field([*omega.coeffs.values(),
                             *[chi.coeffs[k] for k in sorted(chi.coeffs)]])
    if omega.exact and len(omega.coeffs) == 1:
        # omega = c x^w substitutes exponents: chi_k c^k lands at x^(k w), and
        # nothing is allocated per exponent in between
        c, ck = omega.coeffs[w], head.coeffs[m * w]
        terms = {}
        for k in range(m, top + 1):
            if k in chi.coeffs:
                terms[k * w] = chi.coeffs[k] * ck
            ck = ck * c
        return LaurentSeries.truncated(terms, Side.BELOW, m * w, cap)
    if n > MAX_COMPOSE_LENGTH:
        raise ValueError(f"composition needs {n} dense coefficients, more than "
                         f"{MAX_COMPOSE_LENGTH}")
    cs = dense.from_coeffs(chi.coeffs, m, top - m + 1, p)
    tail = dense.from_coeffs(omega.coeffs, w, n - w, p)  # omega / x^w
    acc = dense.compose(cs, tail, w, n, p)
    xs, den = dense.mul(dense.from_coeffs(head.coeffs, m * w, n, p), acc, n, p)
    return LaurentSeries.truncated(dense.to_coeffs(xs, den, m * w, p),
                                   Side.BELOW, m * w, cap)


# -- compositional inverse ------------------------------------------------------


def compositional_inverse(omega: LaurentSeries,
                          precision: int | None = None) -> LaurentSeries:
    """The series chi with chi(omega) = omega(chi) = x; needs order +1 or -1.

    Order +1 keeps the side; order -1 lands on the opposite side (the unique
    inverse of x^-1 + 1 is x^-1 + x^-2 + ..., which is bounded above).
    """
    if omega.is_zero():
        raise ZeroSeriesError("compositional inverse of the zero series")
    if not omega.exact and not omega.coeffs:
        raise OrderIndeterminateError("compositional inverse needs a computable order")
    bo = _side_order(omega, Side.BELOW)
    if bo == 1:
        return _reversion(omega, precision)
    if bo == -1:
        return substitute_reciprocal(
            _reversion(recip(omega, Side.BELOW, precision), precision)
        )
    if _side_order(omega, Side.ABOVE) in (1, -1):
        # with psi the inverse of J omega, omega(1/psi) = (J omega)(psi) = x
        return recip(compositional_inverse(substitute_reciprocal(omega), precision),
                     None, precision)
    raise NotInvertibleError(
        "compositional inverse requires order +1 or -1 on the series' side"
    )


def _reversion(omega: LaurentSeries, precision: int | None) -> LaurentSeries:
    # omega viewable below with order exactly 1
    if omega.exact and len(omega.coeffs) == 1:
        return monomial(1 / omega.coeffs[1], 1)
    cap = _known_count(omega, precision)  # omega's order is 1
    p = dense.require_field(
        [omega.coeffs[e] for e in sorted(omega.coeffs) if e <= cap])
    pairs = dense.reversion(dense.from_coeffs(omega.coeffs, 1, cap, p), cap, p)
    inv = {n: PrimeFieldElement(x, p) if p else Fraction(x, d)
           for n, (x, d) in enumerate(pairs, 1)}
    return LaurentSeries.truncated(inv, Side.BELOW, 1, cap)


# -- comparison up to precision ---------------------------------------------------


def eq_to_precision(a: LaurentSeries, b: LaurentSeries) -> bool:
    """Coefficients agree on the intersection of the known regions."""
    if a.exact and b.exact:
        return a.coeffs == b.coeffs
    exps = set(a.coeffs) | set(b.coeffs)
    for e in exps:
        if a.known(e) and b.known(e):
            if a.coeffs.get(e, 0) != b.coeffs.get(e, 0):
                return False
    return True


# -- text form ---------------------------------------------------------------------


def _format_term(c, e: int) -> str:
    if e == 0:
        return str(c)
    base = "x" if e == 1 else f"x^{e}"
    if c == 1:
        return base
    if c == -1:
        return f"-{base}"
    return f"{c}{base}"


def _marker(e: int) -> str:
    return "O(x)" if e == 1 else f"O(x^{e})"


def format_series(a: LaurentSeries) -> str:
    """Canonical text: ascending exponents (below/finite), descending (above),
    with a trailing O(...) marker at the first unknown exponent when inexact."""
    exps = sorted(a.coeffs, reverse=(a.side is Side.ABOVE))
    pieces = []
    for e in exps:
        c = a.coeffs[e]
        t = _format_term(c, e)
        if not pieces:
            pieces.append(t)
        elif t.startswith("-"):
            pieces.append("- " + t[1:])
        else:
            pieces.append("+ " + t)
    if not a.exact:
        m = _marker(a.hi + 1 if a.side is Side.BELOW else a.lo - 1)
        pieces.append(("+ " + m) if pieces else m)
    if not pieces:
        return "0"
    return " ".join(pieces)


# -- parsing ------------------------------------------------------------------------


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := '-' unary | power;
    power := atom ('^' ['-'] INT)?; atom := INT ['x' ...] | 'x' | '(' expr ')'.
    An integer immediately followed by 'x' is an implicit product (2x^3)."""

    def __init__(self, text: str, side: Side, precision: int):
        self.text = text
        self.pos = 0
        self.side = side
        self.precision = precision
        self.depth = 0

    def parse(self) -> LaurentSeries:
        value = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return value

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> LaurentSeries:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = add(value, rhs) if op == "+" else add(value, neg(rhs))
        return value

    def term(self) -> LaurentSeries:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary()
            if op == "*":
                value = mul(value, rhs)
            else:
                value = mul(value, recip(rhs, self.side, self.precision))
        return value

    def unary(self) -> LaurentSeries:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        value = self.power()
        return neg(value) if negate else value

    def power(self) -> LaurentSeries:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            value = power(value, self.signed_int(), self.side, self.precision)
        return value

    def signed_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        self.skip_ws()
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            raise ParseError("expected integer exponent", self.pos)
        num = self.integer()
        return -num if self.text[start] == "-" else num

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected integer", self.pos)
        return int(self.text[start:self.pos])

    def atom(self) -> LaurentSeries:
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", self.pos)
            self.pos += 1
            value = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return value
        if ch == "x":
            self.pos += 1
            return monomial(Fraction(1), 1)
        if ch.isdigit():
            n = self.integer()
            c = Fraction(n)
            # tight fraction is a coefficient: 3/4, 1/2x^3 (whitespace around
            # '/' leaves it to term() as expansion-triggering division)
            if (self.pos + 1 < len(self.text) and self.text[self.pos] == "/"
                    and self.text[self.pos + 1].isdigit()):
                self.pos += 1
                q = self.integer()
                if q == 0:
                    raise ParseError("zero denominator", self.pos)
                c = Fraction(n, q)
            # implicit product: 2x, 2x^3, 1/2x
            if self.pos < len(self.text) and self.text[self.pos] == "x":
                self.pos += 1
                if self.pos < len(self.text) and self.text[self.pos] == "^":
                    self.pos += 1
                    return monomial(c, self.signed_int())
                return monomial(c, 1)
            return monomial(c)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                         self.pos)


def parse(text: str, side: Side = Side.BELOW,
          precision: int = DEFAULT_PRECISION) -> LaurentSeries:
    """Parse an expression into a series; the result is exact unless division
    or a negative power of a non-monomial forced an expansion on `side`."""
    if side is Side.FINITE:
        side = Side.BELOW
    return _Parser(text, side, precision).parse()
