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

A quotient of two Laurent polynomials may also carry its numerator and
denominator (a ratio, see LaurentSeries): `recip`, `power`, `mul`, `add`
and the composition kernel then work on those short polynomials and take
the known coefficients of their result from one division, and the
compositional inverse solves the quotient's equation y N(y) = x D(y).  The
windows are those of the expansions, so the ratio changes how a coefficient
is computed, never which ones are known.  A kernel whose result is such a
quotient defers that division, and so does `parse` for a quotient: like
`coeffs`, the expansion is built on its first read, a kernel that reads the
result only as a ratio makes none, and one that reads it through a cut
divides only through the cut.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .errors import (
    CompositionUndefinedError,
    NotInvertibleError,
    OrderIndeterminateError,
    PrecisionError,
    SideIndeterminateError,
    SideMismatchError,
    UndefinedProductError,
    ZeroSeriesError,
)
from . import dense
from .field import PrimeFieldElement, field_of

DEFAULT_PRECISION = 16
MAX_NESTING = 100  # parenthesis depth the recursive-descent parser accepts
MAX_EXPONENT = 10_000  # largest |j| in a power of a base with several terms
MAX_POWER_BITS = 1 << 20  # most bits c^j is sure to have in a power of c x^e
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
    """Immutable series value; construct via from_terms/truncated/parse.

    A series holds the working form (xs, den, p) of biriordan.dense over its
    field GF(p) (Q when p = 0): xs[i] / den is the coefficient of x^(lo+i),
    or of x^(hi-i) when bounded above (the form of its flip), with xs a list
    or, when the span is mostly gaps, a dict of the nonzero entries.  _fill
    sets the form and the window, for the constructor and each kernel alike.
    `coeffs` is a read view, built from the form on first read.  `_walked`
    keeps the powers that power and powers built on it and the reciprocal
    recip built; copies and pickles drop it, and so they do `_ratio`.

    An inexact series may carry a ratio `_ratio` = (N, D), the working forms
    of two exact polynomials on its side (of its flip when bounded above),
    N[0] and D[0] nonzero: then it is x^ord N/D, every coefficient inside
    its window and past it.  A kernel whose operands are each exact or carry
    one gives its result one, within _fits, and takes the known
    coefficients from it; equality and hashing ignore it.  Such a result
    is pending (see _rational): its side, window, field and ratio are set,
    and its form, the one division of N by D, is built on first read, as
    `coeffs` is; `_pending` holds what builds it and is None once built.  A
    read of fewer coefficients than its window holds divides only through
    them (see _prefix); `_head` keeps the longest such division."""

    __slots__ = ("side", "coeffs", "lo", "hi", "exact", "_form", "_walked", "_ratio",
                 "_pending", "_head")

    def __init__(self, side: Side, coeffs: dict, lo: int, hi: int):
        p = field_of(coeffs.values())  # one field, or TypeError before any arithmetic
        coeffs = {e: (Fraction(c) if isinstance(c, int) else c)
                  for e, c in coeffs.items() if c}
        if side is Side.FINITE:
            lo, hi = (min(coeffs), max(coeffs)) if coeffs else (0, -1)
        elif coeffs and (min(coeffs) < lo or max(coeffs) > hi):
            raise ValueError("coefficient outside known window")
        # the form on [lo, hi], of the flip when above; _fill tightens it
        flip = side is Side.ABOVE
        base, cap = (-hi, -lo) if flip else (lo, hi)
        base = min(base, cap + 1)  # an empty window starts right after its known end
        _fill(self, *_form_of(coeffs, lo, hi, p, flip), p, base,
              None if side is Side.FINITE else cap + 1 - base, flip)
        object.__setattr__(self, "coeffs", coeffs)

    def __getattr__(self, name):
        # only an unset `coeffs` or `_form` gets here: build it, once.  The
        # form of a pending ratio is its division, or, for the flip or shift
        # of a pending root, the root's form (one division for both)
        if name == "_form":
            p, root = self._pending
            if root is None:
                num, den = self._ratio
                n = self.hi - self.lo + 1
                form = _packed(*dense.recip(den, n, p, num), p, 0, n)._form
            else:
                form = root._form
            object.__setattr__(self, "_form", form)
            object.__setattr__(self, "_pending", None)
            object.__setattr__(self, "_head", None)
            return form
        if name != "coeffs":
            raise AttributeError(name)
        (xs, den, p), above = self._form, self.side is Side.ABOVE
        coeffs = dense.to_coeffs(xs, den, self.hi if above else self.lo, p,
                                 -1 if above else 1)
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return LaurentSeries, (self.side, self.coeffs, self.lo, self.hi)

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
        return self.exact and not self._form[0]

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
        xs, den, p = self._form
        i = self.hi - e if self.side is Side.ABOVE else e - self.lo
        x = xs.get(i, 0) if type(xs) is dict else xs[i] if 0 <= i < len(xs) else 0
        return _ZERO if not x else PrimeFieldElement(x, p) if p else Fraction(x, den)

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
        if not _has_term(self):
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
    return monomial(_unit(_field(a)))


# -- the working form ----------------------------------------------------------


def _form_of(coeffs: dict, lo: int, hi: int, p: int, above: bool = False) -> tuple:
    """(xs, den): the working form over GF(p) of the nonzero coefficients on
    [lo, hi], from x^lo up (from x^hi down when above); a list, or sparse when
    the span is mostly gaps."""
    if dense.worth_packing(hi - lo, len(coeffs)):
        xs, den = dense.from_coeffs(coeffs, lo, hi - lo + 1, p)
        return (xs[::-1] if above else xs), den
    return dense.from_terms(coeffs, hi if above else lo, -1 if above else 1, p)


def _packed(xs, den: int, p: int, base: int, n: int | None,
            flip: bool = False) -> LaurentSeries:
    """Kernel output, its dict built on first read (see _fill)."""
    return _fill(LaurentSeries.__new__(LaurentSeries), xs, den, p, base, n, flip)


def _fill(s: LaurentSeries, xs, den: int, p: int, base: int, n: int | None,
          flip: bool = False) -> LaurentSeries:
    """s, every slot set to the value with xs[i] / den at x^(base+i) or,
    when flip, at x^-(base+i), for a list xs or a dict {i: xs[i]} of its
    nonzero entries; exact when n is None, else known for n coefficients
    from base.  lo and hi are read from the first and last nonzero entries,
    and the form is sparse when its span is mostly gaps."""
    if type(xs) is dict:
        i = min(xs, default=n or 0)
        k = max(xs, default=i - 1) + 1 if n is None else n
        terms = len(xs)
    else:
        i, k = 0, len(xs) if n is None else n
        while i < k and not xs[i]:
            i += 1
        while n is None and k > i and not xs[k - 1]:
            k -= 1
        # a span of at most 64 slots always pays, so count only a longer one
        terms = k - i if k - i <= 64 else len(xs) - xs.count(0)
    if not terms:  # the form of 0 over Q; the exact zero has the window [0, -1]
        xs, den, p = [], 1, 0
        if n is None:
            base, i, k, flip = 0, 0, 0, False
    elif dense.worth_packing(k - 1 - i, terms):
        xs = [xs.get(j, 0) for j in range(i, k)] if type(xs) is dict else (
            xs[i:k] if i or k < len(xs) else xs)
        if n is None and flip:
            xs = xs[::-1]
    elif type(xs) is list or i or n is None and flip:
        # offsets from lo, or from hi on the exact flip
        pairs = xs.items() if type(xs) is dict else enumerate(xs)
        xs = {k - 1 - j if n is None and flip else j - i: x for j, x in pairs if x}
    lo, hi = base + i, base + k - 1
    # one call per slot: every series passes here, and a loop over (name,
    # value) pairs took a sixth longer; exact is read in the matrix loops
    put = object.__setattr__
    put(s, "side", Side.FINITE if n is None else Side.ABOVE if flip else Side.BELOW)
    put(s, "lo", -hi if flip else lo)
    put(s, "hi", -lo if flip else hi)
    put(s, "exact", n is None)
    put(s, "_form", (xs, den, p))
    put(s, "_walked", None)
    put(s, "_ratio", None)
    put(s, "_pending", None)
    return s


def _nterms(s: LaurentSeries) -> int:
    # nonzero coefficients inside the known window
    xs = s._form[0]
    return len(xs) if type(xs) is dict else len(xs) - xs.count(0)


def _has_term(s: LaurentSeries) -> bool:
    # a nonzero coefficient inside the known window; a pending ratio has
    # N[0]/D[0] at its order, so its form is not built to tell
    return bool(s._pending or s._form[0])


def _p(s: LaurentSeries) -> int:
    # the field of s's form, a pending one's without building it
    return s._pending[0] if s._pending else s._form[2]


def _field(*series: LaurentSeries) -> int:
    """The one field of the series' coefficients, 0 for Q (and for no term).
    Series over two fields raise what a product of their scalars raises:
    TypeError for Q with GF(p), ValueError for two primes."""
    # _p of each s that _has_term, written out: every kernel asks
    fields = [s._pending[0] if s._pending else s._form[2] for s in series
              if s._pending or s._form[0]]
    for q in fields[1:]:
        if q != fields[0]:
            _unit(fields[0]) * _unit(q)  # raises
    return fields[0] if fields else 0


def _view(s: LaurentSeries, flip: bool = False):
    """(xs, den, p, base), xs[i] / den at x^(base+i) of s or, when flip, of
    its flip, for xs its form's list or dict."""
    xs, den, p = s._form
    if flip and s.exact:
        xs = xs[::-1] if type(xs) is list else {s.hi - s.lo - i: x for i, x in xs.items()}
    return xs, den, p, -s.hi if flip else s.lo


def _prefix(s: LaurentSeries, t: int, flip: bool) -> tuple:
    """_view(s, flip) of a pending s, its xs through x^(base+t-1) at least.
    For t below s's count that is one short division (of one coefficient at
    least: a read may ask for none), kept on the root that divides for s
    (see _rational) while it is the longest, so a read no longer than it
    divides nothing again; from t = count on, the whole form."""
    p, root = s._pending
    root = root or s
    if not root._pending or t >= s.hi - s.lo + 1:
        return _view(s, flip)
    head = root._head
    if head is None or len(head[0]) < t:
        num, den = root._ratio
        head = dense.recip(den, max(t, 1), p, num)
        object.__setattr__(root, "_head", head)
    return (*head, p, -s.hi if flip else s.lo)


def _entries(s: LaurentSeries, lo: int, hi: int) -> list:
    """The coefficients of x^lo .. x^hi of s, every one known, as s[e] reads
    them: one slice of the form, a Fraction or a prime field element for
    each nonzero entry and _ZERO for each gap."""
    xs, den, p = s._form
    n = hi - lo + 1
    above = s.side is Side.ABOVE  # xs[i] at x^(s.hi - i)
    i = s.hi - hi if above else lo - s.lo
    if type(xs) is dict:
        ys = [xs.get(k, 0) for k in range(i, i + n)]
    else:
        ys = [0] * min(max(-i, 0), n) + xs[max(i, 0):max(i + n, 0)]
        ys += [0] * (n - len(ys))
    if above:
        ys.reverse()
    if p:
        return [PrimeFieldElement(y, p) if y else _ZERO for y in ys]
    return [Fraction(y, den) if y else _ZERO for y in ys]


def _window(s: LaurentSeries, n: int, flip: bool = False) -> tuple:
    """((xs, den), p): n coefficients of s (of its flip when flip) from its
    order over its field p, as a list."""
    xs, den, p, _ = _prefix(s, n, flip) if s._pending else _view(s, flip)
    if type(xs) is dict:
        return ([xs.get(i, 0) for i in range(n)], den), p
    return (xs if len(xs) == n else xs[:n] + [0] * (n - len(xs)), den), p


# -- ratios ---------------------------------------------------------------------

_ONE = ([1], 1)  # the form of the polynomial 1, over every field

# the inverse of x^(+-1) N/D solves its equation (dense.invert) while it
# needs at most this many powers R.  Measured against Lagrange's scheme with
# its division (n = 16..1000, R = 1..33, best of 3): over GF(2^31-1) the
# equation took 0.03-0.5 of the time at R <= 4, 0.6-0.96 at R = 5..7,
# 0.8-1.3 at 8 and 1.1-1.9 at 9; over Q (n <= 256) 0.07-0.66 at R <= 7,
# 0.4-0.94 at 8..12 and 0.8-1.9 from 16
_EQUATION_POWERS = 7


def _ratios(flip: bool, n: int, *series: LaurentSeries) -> list | None:
    """(N, D) for each series s, s = x^ord N/D on the side flip: the ratio an
    inexact s carries, an exact s over 1; None when an inexact one has none,
    an exact one is 0, or is alone too long to fit n coefficients (its list
    would be built for nothing)."""
    if any(s._ratio is None if not s.exact
           else not (s._form[0] and _fits(s.hi - s.lo, n)) for s in series):
        return None
    return [s._ratio or (_window(s, s.hi - s.lo + 1, flip)[0], _ONE) for s in series]


def _fits(degree: int, n: int) -> bool:
    # does a ratio of degree deg N + deg D pay for n known coefficients?  Up
    # to deg = n.  Measured on compositions of two random quotients, the
    # ratio's algebra and division against Paterson and Stockmeyer's scheme
    # on the expansions: at n = 16 the ratio took 0.35-0.8 of the time up to
    # deg = n, and over GF(2^31-1) 1.0 times at 1.5 n and 1.7 at 3.5 n (over
    # Q 0.75 and 1.1); at n = 64 0.04-0.45 up to n, over GF(p) 1.45 at 3.25
    # n; at n = 256 0.002-0.2 up to n
    return degree <= n


def _degree(*forms: tuple) -> int:
    return sum(len(xs) - 1 for xs, _ in forms)


def _times(a: tuple, b: tuple, p: int) -> tuple:
    # the exact product of two polynomial forms
    if a == _ONE or b == _ONE:
        return b if a == _ONE else a
    return dense.mul(a, b, len(a[0]) + len(b[0]) - 1, p)


def _to_the(u: tuple, k: int, p: int) -> tuple:
    # the polynomial form u^k, k >= 0, by repeated squaring
    out = _ONE
    while k:
        if k & 1:
            out = _times(out, u, p)
        k >>= 1
        if k:
            u = _times(u, u, p)
    return out


def _poly(terms: list, size: int, p: int) -> tuple:
    # the polynomial form of dense.combine(terms, size, p), a nonzero sum, as
    # a list (a sum mostly of gaps is sparse), its top zeros dropped
    xs, den = dense.combine(terms, size, p)
    if type(xs) is dict:
        xs = [xs.get(i, 0) for i in range(max(xs) + 1)]
    while not xs[-1]:
        xs.pop()
    return xs, den


def _carry(s: LaurentSeries, ratio: tuple) -> LaurentSeries:
    object.__setattr__(s, "_ratio", ratio)
    return s


def _rational(ratio: tuple, p: int, base: int, n: int, flip: bool,
              root: LaurentSeries | None = None) -> LaurentSeries:
    """x^base N/D over GF(p) (its flip when flip) known for n coefficients,
    carrying its ratio (N, D), pending: N[0] and D[0] are nonzero, so its
    window is x^base .. x^(base+n-1) before any coefficient is built, and its
    form, one division of N by D, is built on first read (see LaurentSeries).
    A root, a pending value this one is the flip or a shift of, divides for
    both."""
    s = LaurentSeries.__new__(LaurentSeries)
    put = object.__setattr__
    put(s, "side", Side.ABOVE if flip else Side.BELOW)
    put(s, "lo", 1 - base - n if flip else base)
    put(s, "hi", -base if flip else base + n - 1)
    put(s, "exact", False)
    put(s, "_walked", None)
    put(s, "_ratio", ratio)
    put(s, "_pending", (p, root))
    put(s, "_head", None)
    return s


# -- addition ----------------------------------------------------------------


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    if len({s.side for s in (a, b) if not s.exact}) == 2:
        raise SideIndeterminateError(
            "sum of a bounded-below and a bounded-above series cannot be "
            "certified bounded on either side"
        )
    p = _field(a, b)
    s = _sum([(_unit(p), a), (_unit(p), b)], p)
    # a sum of values that are exact or carry a ratio carries (Na Db x^(i-k)
    # + Nb Da x^(j-k)) / (Da Db), for orders i and j and k the lesser, its
    # numerator from s's order on: when s knows a nonzero coefficient, the
    # first nonzero one of the value (the _sum of the walks carries none)
    flip, count = s.side is Side.ABOVE, s.count_from_order()
    ratios = count and _ratios(flip, count, a, b)
    if not ratios:
        return s
    (na, da), (nb, db) = ratios
    i, j = (_view(v, flip)[3] for v in (a, b))
    k = min(i, j)
    size = max(i - k + _degree(na, db), j - k + _degree(nb, da)) + 1
    if not _fits(size - 1 + _degree(da, db), count):
        return s
    xs, den = _poly([(_unit(p), i - k, _times(na, db, p)),
                     (_unit(p), j - k, _times(nb, da, p))], size, p)
    return _carry(s, ((xs[_view(s, flip)[3] - k:], den), _times(da, db, p)))


def neg(a: LaurentSeries) -> LaurentSeries:
    p = _field(a)
    s = _sum([(-_unit(p), a)], p)
    if a._ratio:  # -N/D
        num, den = a._ratio
        _carry(s, (_poly([(-_unit(p), 0, num)], len(num[0]), p), den))
    return s


def _unit(p: int):
    # the 1 of Q (p = 0) or of GF(p)
    return PrimeFieldElement(1, p) if p else Fraction(1)


# -- multiplication -----------------------------------------------------------


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return _mul_to(a, b, None, True)


def _mul_to(a: LaurentSeries, b: LaurentSeries, cut: tuple | None,
            ratio: bool = False) -> LaurentSeries:
    """mul(a, b), or with a cut (flip, t) only its coefficients through x^t
    (of its flip when flip): known through the lesser of t and mul's window,
    or through its order - 1 when that lies past t.  With each factor cut
    as _cut_for says, every exponent through t is known, and holds the
    coefficient it holds, exactly where the full product knows it; so a cut
    product known short of t is the full product.  With ratio (mul's
    product), an inexact product of factors that are exact or carry a ratio
    carries the product of their ratios, within _fits: pending while a
    factor is, else beside the product of the forms (over Q one packed
    product costs less than dividing the product's ratio).  The walks'
    products (columns f a^j, powers for a sum) carry none: they are read as
    forms at once, so a ratio would be built for nothing and a pending one
    divided at once, where one packed product costs less."""
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero()
    sides = {s.side for s in (a, b) if not s.exact}
    if len(sides) == 2:
        raise UndefinedProductError(
            "product of a bounded-below and a bounded-above series is "
            "undefined unless one has finite support"
        )
    p = _field(a, b)  # two fields raise here, before any product
    # on the bounded-below side (of the flips when flip): exact if both are,
    # else known through min over inexact factors of (hi + other's order)
    flip = Side.ABOVE in sides if cut is None else cut[0]
    (alo, ahi), (blo, bhi) = [(-s.hi, -s.lo) if flip else (s.lo, s.hi) for s in (a, b)]
    hi = min((h + lo for s, h, lo in ((a, ahi, blo), (b, bhi, alo)) if not s.exact),
             default=None)
    if cut is not None and cut[1] < (ahi + bhi if hi is None else hi):
        hi = cut[1]
    count = ahi + bhi - alo - blo + 1 if hi is None else max(hi - alo - blo + 1, 0)
    r = None
    if ratio and hi is not None:
        ratios = _ratios(flip, count, a, b)
        if ratios and _fits(_degree(*ratios[0], *ratios[1]), count):
            (na, ua), (nb, ub) = ratios
            r = _times(na, nb, p), _times(ua, ub, p)
            if a._pending or b._pending:
                # the exact x^k shifts a pending factor: one division for both
                one, other = (a, b) if b._pending else (b, a)
                root = None
                if one.exact and one._form[:2] == _ONE:
                    root = other._pending[1] or other
                return _rational(r, p, alo + blo, count, flip, root)
    # a pending factor is read through the count alone
    (xa, da, _, la), (xb, db, _, lb) = [_prefix(s, count, flip) if s._pending else _view(s, flip)
                                        for s in (a, b)]
    if type(xa) is list and type(xb) is list and ([1], 1) in ((xa, da), (xb, db)):
        # the exact 1 shifts the other factor
        xs, den = (xb, db) if (xa, da) == ([1], 1) else (xa, da)
        xs = xs if len(xs) <= count else xs[:count]
    else:
        xs, den = dense.mul((xa, da), (xb, db), count, p)
    s = _packed(xs, den, p, la + lb, None if hi is None else count, flip)
    return _carry(s, r) if r else s


# -- reciprocal and powers -----------------------------------------------------


def recip(a: LaurentSeries, side: Side | None = None,
          precision: int | None = None) -> LaurentSeries:
    """Multiplicative inverse, expanded on the requested side.

    An inexact input of order m with c known coefficients yields order -m with
    the same count c; an exact non-monomial input is expanded to `precision`
    coefficients (monomials invert exactly).  The result is kept on a, one
    per (side, count), a new one replacing the old, so a later call reads
    it, and every negative power of a is a power of it, kept on it as power
    keeps a^j on a.
    """
    return _recip_to(a, side, precision, None)


def _recip_to(a: LaurentSeries, side: Side | None, precision: int | None,
              cut: tuple | None) -> LaurentSeries:
    # recip(a, side, precision), with a cut (flip, t) only through x^t as
    # _mul_to cuts (one coefficient at least); kept on a with its cut, which
    # None marks when the cut keeps every coefficient
    if a.is_zero():
        raise ZeroSeriesError("reciprocal of the zero series")
    if not a.exact and not _has_term(a):
        raise OrderIndeterminateError("reciprocal needs a computable order")
    if a.side not in (side or a.side, Side.FINITE):
        raise SideMismatchError(
            f"cannot expand the reciprocal of a {a.side.value} series {side.value}"
        )
    flip = (side or a.side) is Side.ABOVE  # then expand the flip bounded below
    one = a.exact and _nterms(a) == 1  # a monomial inverts exactly on any side
    key = None if one else (flip, _known_count(a, precision))
    kept = _kept(a, None).setdefault(-1, {})
    r = _kept_at(kept, key, cut)
    if r is None:
        if one:
            r, cut = monomial(1 / a[a.lo], -a.lo), None
        else:
            m = -a.hi if flip else a.lo
            n = key[1] if cut is None else max(min(key[1], cut[1] + m + 1), 1)
            if n == key[1]:
                cut = None  # the cut keeps every coefficient
            ratios = cut is None and _ratios(flip, n, a)
            if ratios and _fits(_degree(*ratios[0]), n):
                (num, den), = ratios
                r = _rational((den, num), _p(a), -m, n, flip)
            else:
                u, p = _window(a, n, flip=flip)
                xs, den = dense.recip(u, n, p)
                r = _packed(xs, den, p, -m, n, flip)
        kept.clear()
        kept[key] = cut, r
    return r


def _known_count(a: LaurentSeries | None, precision: int | None) -> int:
    """Coefficients known from the order: the window of an inexact series,
    `precision` (default DEFAULT_PRECISION) for an exact one (or None)."""
    count = None if a is None else a.count_from_order()
    if count is None:
        count = DEFAULT_PRECISION if precision is None else precision
        if count < 1:
            raise ValueError("precision must be at least 1")
    return count


def _check_exponent(a: LaurentSeries, j: int) -> None:
    # the one exponent budget, checked on the base a caller passes (never on
    # 1/a or a power on the way): |j| on several terms, and the bits of c^j
    # for one term c over Q (xs[0] / den of its form, in lowest terms).  A
    # pending ratio passes with its form unbuilt when |j| is within
    # MAX_EXPONENT and c^j stays short of MAX_POWER_BITS for c = N[0]/D[0],
    # its first coefficient, unreduced: then neither budget binds, however
    # many terms it has; else the form decides
    if a._pending and abs(j) <= MAX_EXPONENT:
        (nx, nd), (dx, dd) = a._ratio
        if a._pending[0] or not _wide(nx[0] * dd, nd * dx[0], j):
            return
    terms = _nterms(a)
    if abs(j) > MAX_EXPONENT and terms > 1:
        raise ValueError(f"exponent must be at most {MAX_EXPONENT} in absolute value")
    xs, den, p = a._form
    if terms == 1 and not p:
        _check_bits(xs[0], den, j)


def _check_bits(num: int, den: int, j: int) -> None:
    if _wide(num, den, j):
        raise ValueError(f"the power would have more than {MAX_POWER_BITS} bits")


def _wide(num: int, den: int, j: int) -> bool:
    # (num / den)^j in lowest terms has over |j| (b - 1) bits, b the longer of
    # num's and den's bits: at least MAX_POWER_BITS?
    return abs(j) * (max(num.bit_length(), den.bit_length()) - 1) >= MAX_POWER_BITS


def power(a: LaurentSeries, j: int, side: Side | None = None,
          precision: int | None = None) -> LaurentSeries:
    """a ** j for integer j; negative j is expanded on the given side.

    The exponent budget of _check_exponent is checked on a, the base passed
    here, wherever the power arises (an expression, a composition, a matrix
    column).  An exact base over Q of several terms is raised by Miller's
    recurrence (dense.power) where that beats repeated squaring: for every
    j < 0, and for j >= 2 from half its term count on when its support is
    dense (the recurrence walks every exponent of the result).  Any other
    base is squared repeatedly: for j < 0, the kept recip(a, side,
    precision) to the power -j.  For j >= 2 the power is kept on its base
    (a, or 1/a for j < 0) with those of powers, and read back from there;
    a^j for j > 0 reads neither side nor precision."""
    _check_exponent(a, j)
    return _power_to(a, j, side, precision, None)


def _power_to(a: LaurentSeries, j: int, side: Side | None,
              precision: int | None, cut: tuple | None) -> LaurentSeries:
    # power(a, j, side, precision) past the budget check, cut for j >= 2 as
    # _mul_to cuts: each square and product a^e on the way is cut to what
    # a^j reads of it
    if j == 0:
        return _one_like(a)
    if j == 1:
        return a
    kept = _kept(a, None) if j > 0 else {}
    result = _kept_at(kept, j, cut)
    if result is not None:
        return result
    terms = _nterms(a) if a.exact else 0
    if (terms > 1
            and (j < 0 or j > 1 and 2 * j >= terms and dense.worth_packing(a.hi - a.lo, terms))
            and _field(a) == 0):
        result = _miller_power(a, j, side, precision, cut)
    elif j < 0:
        return _power_to(recip(a, side, precision), -j, None, None, None)
    elif cut is None and a._ratio and _fits(j * _degree(*a._ratio), a.hi - a.lo + 1):
        (num, den), p = a._ratio, _p(a)
        result = _rational((_to_the(num, j, p), _to_the(den, j, p)), p,
                           j * (-a.hi if a.side is Side.ABOVE else a.lo),
                           a.hi - a.lo + 1, a.side is Side.ABOVE)
    else:
        result, sq, k, e, done = None, a, j, 1, 0  # sq = a^e, result = a^done
        while k:
            if k & 1:
                done += e
                result = sq if result is None else _mul_to(
                    result, sq, _cut_for(cut, a, j - done))
            k >>= 1
            if k:
                e *= 2
                sq = _mul_to(sq, sq, _cut_for(cut, a, j - e))
    kept[j] = cut, result
    return result


def _cut_for(cut: tuple | None, s: LaurentSeries, k: int = 1) -> tuple | None:
    """The cut of a factor x whose product x s^k is cut to cut: by mul's
    window rule, [x^t] of x s^k reads x through t - k ord(s) (ord on the
    cut's side), so a^e on the way to a^j is cut to _cut_for(cut, a, j - e)."""
    if cut is None:
        return None
    flip, t = cut
    return flip, t - k * (-s.hi if flip else s.lo)


def _miller_power(a: LaurentSeries, j: int, side: Side | None,
                  precision: int | None, cut: tuple | None) -> LaurentSeries:
    # a exact over Q with several terms: the exact polynomial a^j for j > 0
    # (cut as _mul_to cuts), else the expansion that recip and repeated
    # squaring give, on the same window (on the flip for a bounded-above one),
    # uncut with its ratio (1, a^-j)
    flip = j < 0 and side is Side.ABOVE if cut is None else cut[0]
    m = -a.hi if flip else a.lo
    span = a.hi - a.lo + 1
    count = j * (span - 1) + 1 if j > 0 else _known_count(a, precision)
    n = None if j > 0 else count
    if cut is not None and cut[1] - j * m + 1 < count:
        count = n = max(cut[1] - j * m + 1, 0)
        if not count:  # the cut ends below the order
            return _packed([], 1, 0, j * m, 0, flip)
    (xs, den), _ = _window(a, min(span, count), flip)
    # a base whose terms lie g apart is one in x^g, and so is its power
    g = math.gcd(*[i for i, x in enumerate(xs) if x]) or 1
    ys, den = dense.power((xs[::g], den), j, (count - 1) // g + 1)
    xs = ys if g == 1 else {g * i: y for i, y in enumerate(ys) if y}
    s = _packed(xs, den, 0, j * m, n, flip)
    if j < 0 and cut is None and _fits(-j * (span - 1), count):
        _carry(s, (_ONE, _to_the(_window(a, span, flip)[0], -j, 0)))
    return s


def powers(a: LaurentSeries, exponents, side: Side | None = None,
           precision: int | None = None, factor: LaurentSeries | None = None):
    """Yield (j, a ** j) for the distinct exponents in ascending order, each
    power built from the one before it on the same side of 0 by power(a,
    gap).  The negative exponents are the positive ones of the kept r =
    recip(a, side, precision), walked upward over r (the columns of m J =
    R(f, r), for m = R(f, a)).  Values, windows and exceptions are those of
    power(a, j, side, precision) taken for each j in turn.  With a factor
    f, yield (j, f * a ** j) instead, the values of mul(f, power(...)): f
    goes into the first power on each side of 0 and each later one is the
    one before it times a power of a (the window rule of mul is
    associative: lo adds up and the fewest known binds).

    The base of each walk, a or r, keeps what the walk built: each power
    (j >= 2, the gaps included, as power keeps them), and each f times a
    power for the last factor f walked with, so a later walk, power, and
    m J's columns read them.  For j > 0, power(a, j) reads neither side nor
    precision, so a kept power is the one the walk would build.  The
    exponent budget is checked on a alone, lazily in ascending order: on
    the least exponent before r is read, then on each j >= 0; only values
    are kept, never exceptions."""
    return _powers_to(a, exponents, side, precision, factor, None)


def _powers_to(a: LaurentSeries, exponents, side: Side | None,
               precision: int | None, factor: LaurentSeries | None,
               cut: tuple | None):
    # powers(...), each value cut as _mul_to cuts
    exps = sorted(set(exponents))
    ks = [-j for j in reversed(exps) if j < 0]
    if ks:
        _check_exponent(a, -ks[-1])
        rcut = None
        if cut is not None:
            # r = 1/a is cut to what the walk's first power reads of it, the
            # most any value reads: through t - ord(f) - (k - 1) ord(r), ord(r)
            # = -ord(a), for k the least exponent, or the greatest when
            # ord(r) < 0 climbs the first column's cut (see _walk)
            k = ks[-1] if (-a.hi if cut[0] else a.lo) > 0 else ks[0]
            first = cut if factor is None else _cut_for(cut, factor)
            rcut = _cut_for(first, a, 1 - k)
        up = list(_walk(_recip_to(a, side, precision, rcut), ks, factor, cut, False))
        yield from ((-k, pw) for k, pw in reversed(up))
    yield from _walk(a, exps[len(ks):], factor, cut, True)


def _walk(a: LaurentSeries, exps: list, factor: LaurentSeries | None,
          cut: tuple | None, check: bool):
    # (j, f a^j) for the ascending exps >= 0, kept on a, each j checked
    # against a's budget first when check (not over r = 1/a, whose caller
    # checked a).  f a^j holds rows through t, and the next value reads it through
    # t - ord(a): further when ord(a) < 0, so the walk to J cuts f a^j to
    # t + (J - j) max(-ord(a), 0)
    kept = _kept(a, factor)
    climb = cut and max(a.hi if cut[0] else -a.lo, 0)
    prev = last = None
    for j in exps:
        if check:
            _check_exponent(a, j)
        c = cut and (cut[0], cut[1] + climb * (exps[-1] - j))
        pw = _kept_at(kept, j, c)
        if pw is None:
            if last is None:
                pw = _power_to(a, j, None, None, c if factor is None else _cut_for(c, factor))
                if factor is not None:
                    pw = _mul_to(factor, pw, c)
                    _field(factor, a)  # a cut power may hold no term for mul to check
            else:
                pw = _mul_to(last, _power_to(a, j - prev, None, None, _cut_for(c, last)), c)
            if pw is not a:  # a^1 is a itself
                kept[j] = c, pw
        if j:
            prev, last = j, pw
        yield j, pw


def _kept(a: LaurentSeries, factor: LaurentSeries | None) -> dict:
    # {j: (cut, a^j)}, or {j: (cut, factor a^j)} when the factor is the last
    # one walked with (held, so that identity stands for the value); a new
    # factor replaces the old one's, so what a keeps grows only with its
    # exponents.  cut is None for a full value (see _kept_at).  Beside the
    # powers, key -1 holds recip's {key: (cut, 1/a)}, one key at a time
    walked = a._walked
    if walked is None:
        walked = [{}, None, None]
        object.__setattr__(a, "_walked", walked)
    if factor is None:
        return walked[0]
    if walked[1] is not factor:
        walked[1:] = factor, {}
    return walked[2]


def _kept_at(kept: dict, j: int, cut: tuple | None) -> LaurentSeries | None:
    # the value kept at j if it serves cut: a full value serves every cut, a
    # cut one only a cut on its side that keeps no more than it does
    held, value = kept.get(j, (None, None))
    if held is None or cut is not None and held[0] == cut[0] and held[1] >= cut[1]:
        return value
    return None


def _sum(terms, p: int) -> LaurentSeries:
    """The sum of c * v over the pairs (c, v) of a scalar and a series over
    GF(p) (Q when p = 0), known where every inexact v is known (all are on
    one side): one dense.combine of their forms.  p is the callers' _field;
    a v with no term, or the 1 of Q ([1] over 1), fits every field."""
    terms = list(terms)
    flip = any(v.side is Side.ABOVE for _, v in terms)
    views = [_view(v, flip) for _, v in terms]
    lo = min(b for *_, b in views)
    caps = [-v.lo if flip else v.hi for _, v in terms if not v.exact]
    hi = min(caps) if caps else max(-v.lo if flip else v.hi for _, v in terms)
    xs, den = dense.combine([(c, b - lo, (xs, d)) for (c, _), (xs, d, _, b)
                             in zip(terms, views)], hi - lo + 1, p)
    return _packed(xs, den, p, lo, hi - lo + 1 if caps else None, flip)


def substitute_reciprocal(a: LaurentSeries) -> LaurentSeries:
    """Exponent negation x -> 1/x; flips the side, preserves exactness."""
    # an inexact series shares its form and its ratio with its flip, and a
    # pending one the division that builds its form
    flip = a.side is not Side.ABOVE
    if a._pending:
        p, root = a._pending
        return _rational(a._ratio, p, a.lo if flip else -a.hi, a.hi - a.lo + 1, flip,
                         root or a)
    return _carry(_packed(*_view(a, not flip), a.count_from_order(), flip), a._ratio)


# -- composition ---------------------------------------------------------------


def _side_order(omega: LaurentSeries, side: Side) -> int | None:
    """Order of omega viewed on `side` (least exponent below, greatest
    above), or None if omega cannot be viewed on that side."""
    if not omega.exact:
        if omega.side is not side:
            return None
        if not _has_term(omega):
            raise OrderIndeterminateError("inner series has indeterminate order")
    return omega.lo if side is Side.BELOW else omega.hi


def _power_sides(omega: LaurentSeries, side: Side | None, lo: int | None = None):
    """The sides omega^k holds on for every k >= lo (any k when None), the
    realization side first: omega's own if inexact, else `side` (None: below).
    Both when omega is exact and no k < 0 is read or omega is one term."""
    real = omega.side if not omega.exact else side if side is Side.ABOVE else Side.BELOW
    if omega.exact and (lo is not None and lo >= 0 or _nterms(omega) == 1):
        return real, real.flipped()
    return (real,)


def compose(chi: LaurentSeries, omega: LaurentSeries,
            precision: int | None = None, side: Side | None = None) -> LaurentSeries:
    """Substitution chi(omega) = sum over k of chi_k * omega^k.

    Defined when chi has finite support (any nonzero omega), or per side/order:
    bounded-below chi needs omega bounded below of order >= 1 or bounded above
    of order <= -1; bounded-above chi mirrors.  A negative power of a finite
    omega of several terms is read on `side` alone (None: below).
    """
    if omega.is_zero():
        raise CompositionUndefinedError("inner series is zero")
    p = _field(chi, omega)
    sides = _power_sides(omega, side, chi.lo if chi.side is Side.BELOW else None)
    if chi.exact:
        if chi.is_zero():
            return LaurentSeries.zero()
        if _nterms(chi) == 1:  # c x^e is c times one power
            return mul(monomial(chi[chi.lo]), power(omega, chi.lo, sides[0], precision))
        # chi's coefficients are scalars of the sum and only fix the field
        walk = powers(omega, chi.coeffs, sides[0], precision)
        return _sum(((chi.coeffs[e], pw) for e, pw in walk), p)
    orders = [_side_order(omega, s) for s in sides]  # raises when indeterminate
    if chi.side is Side.ABOVE:
        # chi(omega) = (J chi)(1/omega), 1/omega on the realization side
        return compose(substitute_reciprocal(chi),
                       recip(omega, sides[0], precision), precision)
    for s, order in zip(sides, orders):
        if s is Side.BELOW and order >= 1:
            return _compose_kernel(chi, omega, precision)
        if s is Side.ABOVE and order <= -1:
            return substitute_reciprocal(
                _compose_kernel(chi, substitute_reciprocal(omega), precision))
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
    p = _field(chi, omega)
    w = omega.lo
    m = chi.lo
    cap = (chi.hi + 1) * w - 1  # chi's own truncation
    if not _has_term(chi):
        return LaurentSeries.truncated({}, Side.BELOW, m * w, cap)
    head = power(omega, m, Side.BELOW, precision)
    # chi_k omega^k is known through the hi of omega^k, which grows with k,
    # so the first inexact term binds: omega^m when inexact, else (m = 0,
    # omega inexact) omega^k of the next nonzero chi_k, known through
    # omega.hi + (k - 1) w, no less than omega.hi: chi is read only when
    # that may bind, and only through the last k for which it may
    if not head.exact:
        cap = min(cap, head.hi)
    elif not omega.exact and omega.hi < cap:
        last = min(chi.hi, (cap - omega.hi - 1) // w + 1)
        cs = _window(chi, last + 1)[0][0]
        later = next((k for k in range(1, last + 1) if cs[k]), None)
        if later is not None:
            cap = min(cap, omega.hi + (later - 1) * w)
    n = cap - m * w + 1
    top = min(chi.hi, m + (n - 1) // w)
    if omega.exact and _nterms(omega) == 1:
        # omega = c x^w substitutes exponents: chi_k c^k lands at x^(k w), and
        # nothing is allocated per exponent in between
        c, ck = omega[w], head[m * w]
        terms = {}
        for k in range(m, top + 1):
            if chi[k]:
                terms[k * w] = chi[k] * ck
            ck = ck * c
        return LaurentSeries.truncated(terms, Side.BELOW, m * w, cap)
    if n > MAX_COMPOSE_LENGTH:
        raise ValueError(f"composition needs {n} dense coefficients, more than "
                         f"{MAX_COMPOSE_LENGTH}")
    ratios = _ratios(False, n, chi, omega)
    ratio = ratios and _composed(*ratios, w, m, n, p)
    if ratio:
        return _rational(ratio, p, m * w, n, False)
    cs, _ = _window(chi, top - m + 1)
    tail, _ = _window(omega, n - w)  # omega / x^w
    acc = dense.compose(cs, tail, w, n, p)
    if m:
        acc = dense.mul(_window(head, n)[0], acc, n, p)
    return _packed(*acc, p, m * w, n)


def _composed(chi: tuple, omega: tuple, w: int, m: int, n: int, p: int) -> tuple | None:
    """The ratio of chi(omega) for chi = x^m Nc/Dc and omega = x^w No/Do,
    or None past _fits for n coefficients.  With Y = x^w No and d the
    greater degree of Nc and Dc, chi(omega) = omega^m Nc(Y/Do)/Dc(Y/Do) =
    x^(m w) No^m A / (Do^m B), A and B the sums over k of Nc_k and Dc_k
    times Y^k Do^(d-k), and No^m, Do^m trade places for m < 0."""
    (nc, dc), (no, do) = chi, omega
    d = max(len(nc[0]), len(dc[0])) - 1
    step = max(w + _degree(no), _degree(do))
    if not _fits(2 * d * step + abs(m) * _degree(no, do), n):
        return None
    ys, ds = [_ONE], [_ONE]
    for _ in range(d):
        ys.append(_times(ys[-1], ([0] * w + no[0], no[1]), p))
        ds.append(_times(ds[-1], do, p))
    terms = [_times(ys[k], ds[d - k], p) for k in range(d + 1)]
    size = max(len(xs) for xs, _ in terms)
    one = PrimeFieldElement(1, p) if p else 1

    def homogeneous(c: tuple) -> tuple:
        # sum over k of c_k Y^k Do^(d-k)
        xs, den = _poly([(x * one, 0, t) for x, t in zip(c[0], terms) if x], size, p)
        return xs, den * c[1]

    top, bottom = homogeneous(nc), homogeneous(dc)
    up, down = (no, do) if m >= 0 else (do, no)
    return _times(top, _to_the(up, abs(m), p), p), _times(bottom, _to_the(down, abs(m), p), p)


# -- compositional inverse ------------------------------------------------------


def compositional_inverse(omega: LaurentSeries,
                          precision: int | None = None) -> LaurentSeries:
    """The series chi with chi(omega) = omega(chi) = x; needs order +1 or -1.

    Order +1 keeps the side; order -1 lands on the opposite side (the unique
    inverse of x^-1 + 1 is x^-1 + x^-2 + ..., which is bounded above).
    """
    if omega.is_zero():
        raise ZeroSeriesError("compositional inverse of the zero series")
    if not omega.exact and not _has_term(omega):
        raise OrderIndeterminateError("compositional inverse needs a computable order")
    bo = _side_order(omega, Side.BELOW)
    if bo == 1:
        return _reversion(omega, precision)
    if bo == -1:  # the flip of the inverse of 1/omega
        return substitute_reciprocal(_reversion(omega, precision))
    if _side_order(omega, Side.ABOVE) in (1, -1):
        # with psi the inverse of J omega, omega(1/psi) = (J omega)(psi) = x
        return recip(compositional_inverse(substitute_reciprocal(omega), precision),
                     None, precision)
    raise NotInvertibleError(
        "compositional inverse requires order +1 or -1 on the series' side"
    )


def _reversion(omega: LaurentSeries, precision: int | None) -> LaurentSeries:
    # omega viewable below with order 1, or -1, for which the inverse of r =
    # 1/omega is taken, known on as many coefficients.  With a ratio, or when
    # exact (D = 1), omega = x^(+-1) N/D and its inverse y solves y A(y) =
    # x B(y), A, B = N, D for order 1 and D, N for -1: dense.invert, while
    # it needs R = max(deg A + 1, deg B) <= _EQUATION_POWERS powers of y.
    # Else by Lagrange, from psi = x/omega: x times the kept recip(omega)
    # (the one the negative columns, m J and compose read), or for order -1
    # x/r = x omega, no division
    if omega.exact and _nterms(omega) == 1:
        return monomial(1 / omega[1] if omega.lo == 1 else omega[-1], 1)
    cap, p = _known_count(omega, precision), _p(omega)
    ratios = _ratios(False, cap, omega)
    if ratios:
        a, b = ratios[0] if omega.lo == 1 else ratios[0][::-1]
        if max(len(a[0]), len(b[0]) - 1) <= _EQUATION_POWERS:
            return _packed(*dense.invert(a, b, cap, p), p, 1, cap)
    psi, _ = _window(omega if omega.lo == -1 else recip(omega, Side.BELOW, cap), cap)
    return _packed(*dense.reversion(psi, cap, p), p, 1, cap)


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


def parse(text: str, side: Side = Side.BELOW,
          precision: int = DEFAULT_PRECISION) -> LaurentSeries:
    """Parse an expression into a series; the result is exact unless division
    or a negative power of a non-monomial forced an expansion on `side`.  An
    exact quotient whose ratio fits `precision` comes back pending: its
    window is set and its one division runs on the first read of its
    coefficients (see _rational).  The parser is a module of its own, loaded
    on the first call."""
    from .parser import Parser
    return Parser(text, Side.BELOW if side is Side.FINITE else side, precision).parse()
