"""Dense finite views of the implicit matrices, plus brute-force oracles.

A MatrixWindow is an exact rectangular block copied out of a bi-infinite
matrix; the oracles recompute products entry by entry from such blocks.  A
product entry is an infinite sum, so the oracles demand a *guard*: an
interval of the inner index outside which every summand is certifiably zero.
Guards are derived from the structure of the factors (side, order and support
bounds of the generating series), never from inspecting finitely many
entries; when no finite guard can be certified the functions refuse rather
than truncate silently.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import GuardViolationError
from .field import format_scalar, parse_scalar
from .record import Record
from .riordan import RiordanMatrix, _column_sides, toeplitz
from .series import LaurentSeries, Side, _side_order


class MatrixWindow(Record):
    """Rows row_lo.., columns col_lo..; entries[r][c] is exact."""

    __slots__ = ("row_lo", "col_lo", "entries")

    @property
    def row_hi(self) -> int:
        return self.row_lo + len(self.entries) - 1

    @property
    def col_hi(self) -> int:
        return self.col_lo + len(self.entries[0]) - 1

    def entry(self, i: int, j: int):
        return self.entries[i - self.row_lo][j - self.col_lo]

    def sub(self, rows, cols) -> "MatrixWindow":
        """Copy of the block over the given absolute index ranges."""
        rlo, rhi = rows
        clo, chi = cols
        if rlo < self.row_lo or rhi > self.row_hi or clo < self.col_lo \
                or chi > self.col_hi:
            raise ValueError("requested sub-block exceeds the window")
        grid = tuple(
            tuple(self.entry(i, j) for j in range(clo, chi + 1))
            for i in range(rlo, rhi + 1)
        )
        return MatrixWindow(rlo, clo, grid)


class VectorWindow(Record):
    """Entries lo..lo+len-1 of a bi-infinite coefficient vector."""

    __slots__ = ("lo", "values")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def entry(self, j: int):
        return self.values[j - self.lo]


def _check_range(r, what: str):
    lo, hi = r
    if lo > hi:
        raise ValueError(f"{what} range [{lo}, {hi}] is empty")


def extract(m: RiordanMatrix, rows, cols) -> MatrixWindow:
    """Dense block of m; refuses (PrecisionError) when an entry is unknown."""
    rlo, rhi = rows
    clo, chi = cols
    _check_range(rows, "row")
    _check_range(cols, "column")
    columns = m.columns(range(clo, chi + 1))
    grid = tuple(
        tuple(columns[j][i] for j in range(clo, chi + 1))
        for i in range(rlo, rhi + 1)
    )
    return MatrixWindow(rlo, clo, grid)


def vector_from_series(chi: LaurentSeries, lo: int, hi: int) -> VectorWindow:
    _check_range((lo, hi), "vector")
    return VectorWindow(lo, tuple(chi[j] for j in range(lo, hi + 1)))


# -- guard certification -------------------------------------------------------
#
# Entry (i, j) of a product is sum_k m_{ik} n_{kj}.  Column k of m has support
# inside [alpha.lo + k*ord(omega), +inf) when realized bounded below, and
# inside (-inf, alpha.hi + k*ord(omega)] when realized bounded above; solving
# those for k yields one-sided bounds on the inner index per row i.  Column j
# of n bounds k directly the same way.  An entry is certifiable when at least
# one lower and one upper bound exist; each bound holds on the sides the
# matrix's columns hold on (riordan._column_sides).


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _left_bounds(m: RiordanMatrix, i: int):
    """(lowers, uppers, dead) restricting k so that entry (i, k) of m may be
    nonzero; dead means row i is certified all-zero."""
    lowers: list = []
    uppers: list = []
    if m.alpha.is_zero():
        return lowers, uppers, True
    dead = False
    if Side.BELOW in _column_sides(m):
        w = _side_order(m.omega, Side.BELOW)
        dead = _row_bounds(i, m.alpha.lo, w, lowers, uppers)
    if Side.ABOVE in _column_sides(m):
        # the bounded-below rule applied to the J-image of row i
        w = _side_order(m.omega, Side.ABOVE)
        dead = _row_bounds(-i, -m.alpha.hi, -w, lowers, uppers) or dead
    return lowers, uppers, dead


def _row_bounds(i: int, a_lo: int, w: int, lowers: list, uppers: list) -> bool:
    """Bounded-below rule for row i when alpha has order a_lo and omega order
    w: append the bounds on k to lowers/uppers; True when the row is dead."""
    if w > 0:
        uppers.append((i - a_lo) // w)
    elif w < 0:
        lowers.append(_ceil_div(i - a_lo, w))
    return w == 0 and a_lo > i


def _right_bounds(n: RiordanMatrix, j: int):
    """(lowers, uppers, dead) restricting k so that entry (k, j) of n may be
    nonzero."""
    lowers: list = []
    uppers: list = []
    if n.alpha.is_zero():
        return lowers, uppers, True
    sides = _column_sides(n, j)
    if Side.BELOW in sides:
        lowers.append(n.alpha.lo + j * _side_order(n.omega, Side.BELOW))
    if Side.ABOVE in sides:
        uppers.append(n.alpha.hi + j * _side_order(n.omega, Side.ABOVE))
    return lowers, uppers, False


def _merge(i, j, left, right):
    """Certified inner-index interval for one entry, or None when the entry
    is certified zero.  Raises when no finite interval exists."""
    l1, u1, dead1 = left
    l2, u2, dead2 = right
    if dead1 or dead2:
        return None
    lowers = l1 + l2
    uppers = u1 + u2
    if not lowers or not uppers:
        raise GuardViolationError(
            f"summation for entry ({i}, {j}) cannot be certified finite"
        )
    lo, hi = max(lowers), min(uppers)
    if lo > hi:
        return None
    return lo, hi


def _hull(spans):
    spans = [s for s in spans if s is not None]
    if not spans:
        return 0, -1
    return min(s[0] for s in spans), max(s[1] for s in spans)


def product_guard(m: RiordanMatrix, n: RiordanMatrix, rows, cols):
    """Interval of the inner index covering every certified summand for the
    block rows x cols of m*n; outside it all summands are provably zero."""
    _check_range(rows, "row")
    _check_range(cols, "column")
    lefts = {i: _left_bounds(m, i) for i in range(rows[0], rows[1] + 1)}
    rights = {j: _right_bounds(n, j) for j in range(cols[0], cols[1] + 1)}
    spans = [
        _merge(i, j, lefts[i], rights[j])
        for i in lefts
        for j in rights
    ]
    return _hull(spans)


def apply_guard(m: RiordanMatrix, chi: LaurentSeries, rows):
    """Same certification for m * chi, where chi is column 0 of toeplitz(chi)."""
    _check_range(rows, "row")
    vec = _right_bounds(toeplitz(chi), 0)
    spans = [
        _merge(i, "-", _left_bounds(m, i), vec)
        for i in range(rows[0], rows[1] + 1)
    ]
    return _hull(spans)


# -- brute-force oracles --------------------------------------------------------


def oracle_matmul(a: MatrixWindow, b: MatrixWindow, guard) -> MatrixWindow:
    """Triple-loop product over the guarded inner range.

    The caller certifies (e.g. via product_guard) that summands outside the
    guard vanish; this function only checks that the windows cover it.
    """
    if a.col_lo != b.row_lo or a.col_hi != b.row_hi:
        raise ValueError("inner index ranges of the factors differ")
    g_lo, g_hi = guard
    if g_lo <= g_hi and (g_lo < a.col_lo or g_hi > a.col_hi):
        raise GuardViolationError(
            f"windows cover [{a.col_lo}, {a.col_hi}] but the certified "
            f"summation range is [{g_lo}, {g_hi}]"
        )
    rows = [row[g_lo - a.col_lo:g_hi + 1 - a.col_lo] for row in a.entries]
    cols = [[b.entry(k, j) for k in range(g_lo, g_hi + 1)]
            for j in range(b.col_lo, b.col_hi + 1)]
    return MatrixWindow(a.row_lo, b.col_lo,
                        tuple(map(tuple, _products(rows, cols))))


def oracle_apply(a: MatrixWindow, v: VectorWindow, guard) -> VectorWindow:
    """oracle_matmul with v as a one-column window."""
    if a.col_lo != v.lo or a.col_hi != v.hi:
        raise ValueError("inner index ranges of matrix and vector differ")
    product = oracle_matmul(a, MatrixWindow(v.lo, 0, tuple(zip(v.values))), guard)
    return VectorWindow(a.row_lo, tuple(out for [out] in product.entries))


def _products(rows: list, cols: list) -> list:
    """[[sum of row[k] * col[k] from Fraction(0) for col in cols] for row in
    rows].  When every entry is a Fraction, each row and each column is
    brought to its common denominator once, the sums are of integer
    products, and each output is one Fraction."""
    ints = [_over_common_denominator(v) for v in (rows, cols)]
    if None in ints:
        grid = []
        for row in rows:
            out = []
            for col in cols:
                acc = Fraction(0)
                for x, y in zip(row, col):
                    acc += x * y
                out.append(acc)
            grid.append(out)
        return grid
    return [[Fraction(sum(map(operator.mul, xr, xc)), dr * dc) for xc, dc in ints[1]]
            for xr, dr in ints[0]]


def _over_common_denominator(vectors: list):
    # [(ints, den)] with vector[k] == ints[k] / den, or None unless every
    # entry is a Fraction
    if not all(type(c) is Fraction for v in vectors for c in v):
        return None
    out = []
    for v in vectors:
        den = math.lcm(*[c.denominator for c in v])
        out.append(([c.numerator * (den // c.denominator) for c in v], den))
    return out


# -- rendering -------------------------------------------------------------------


def render(w: MatrixWindow, format: str = "text") -> str:
    """Aligned text grid with the (0, 0) entry bracketed, or the JSON object
    {"row_lo": ..., "col_lo": ..., "entries": [["p/q", ...], ...]}."""
    if format == "json":
        import json
        return json.dumps({
            "row_lo": w.row_lo,
            "col_lo": w.col_lo,
            "entries": [[format_scalar(v) for v in row] for row in w.entries],
        })
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    cells = [[format_scalar(v) for v in row] for row in w.entries]
    widths = [
        max(len(cells[r][c]) for r in range(len(cells)))
        for c in range(len(cells[0]))
    ]
    lines = []
    for r, row in enumerate(cells):
        pieces = []
        for c, text in enumerate(row):
            core = text.rjust(widths[c])
            if w.row_lo + r == 0 and w.col_lo + c == 0:
                pieces.append(f"[{core}]")
            else:
                pieces.append(f" {core} ")
        lines.append("".join(pieces).rstrip())
    return "\n".join(lines)


def window_from_json(text) -> MatrixWindow:
    import json
    data = json.loads(text) if isinstance(text, str) else text
    rows = data["entries"]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("entries must form a non-empty rectangle")
    grid = tuple(tuple(parse_scalar(v) for v in row) for row in rows)
    return MatrixWindow(int(data["row_lo"]), int(data["col_lo"]), grid)
