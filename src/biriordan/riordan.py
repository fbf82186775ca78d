"""Implicit bi-infinite matrices built from a pair of Laurent series.

R(alpha, omega) is the matrix whose column j holds the coefficients of
alpha * omega^j.  Special cases: toeplitz(alpha) multiplies by alpha
(omega = x), lagrange(omega) composes with omega (alpha = 1), and j_matrix()
is the exponent-reversal involution (alpha = 1, omega = 1/x).  Nothing is
stored densely; entries and columns are computed on demand, and finite views
live in the window module.
"""

from __future__ import annotations

import enum

from .errors import (
    NotInvertibleError,
    SideMismatchError,
    UndefinedProductError,
    ZeroSeriesError,
)
from .record import Record
from .series import (
    LaurentSeries,
    Side,
    _power_sides,
    _side_order,
    compose,
    compositional_inverse,
    mul,
    powers,
    recip,
    substitute_reciprocal,
)


class EchelonClass(enum.Enum):
    """Echelon shape of a column family: lower/upper, leading index rising
    with the column (+) or falling (-)."""

    L_PLUS = "L+"
    L_MINUS = "L-"
    U_PLUS = "U+"
    U_MINUS = "U-"

    def __str__(self) -> str:
        return self.value


# the side omega lives on and the sign of its order there, per class
_SHAPE = {
    EchelonClass.L_PLUS: (Side.BELOW, 1),
    EchelonClass.L_MINUS: (Side.BELOW, -1),
    EchelonClass.U_PLUS: (Side.ABOVE, 1),
    EchelonClass.U_MINUS: (Side.ABOVE, -1),
}


def format_class_set(classes) -> str:
    """Fixed-order comma listing, 'none' when empty."""
    return ", ".join(c.value for c in EchelonClass if c in classes) or "none"


class RiordanMatrix(Record):
    """Matrix pair (alpha, omega); immutable.

    `side` is the side the columns expand on when they need a one-sided
    series (negative powers of a finite-support omega); it is inferred from
    any inexact component, and a finite pair is bounded below unless a side
    is given.
    """

    __slots__ = ("alpha", "omega", "side", "precision")

    def __init__(self, alpha: LaurentSeries, omega: LaurentSeries,
                 side: Side | None = None, precision: int | None = None):
        if omega.is_zero():
            raise ZeroSeriesError("a matrix needs a nonzero column generator")
        sides = {s.side for s in (alpha, omega) if s.side is not Side.FINITE}
        if len(sides) == 2:
            raise SideMismatchError(
                "alpha and omega must live on a common side"
            )
        inferred = sides.pop() if sides else Side.FINITE
        if side is None:
            side = inferred
        elif inferred is not Side.FINITE and side is not inferred:
            raise SideMismatchError(
                f"{inferred.value} components cannot form a {side.value} matrix"
            )
        if side is Side.FINITE:
            side = Side.BELOW
        super().__init__(alpha, omega, side, precision)

    def column(self, j: int) -> LaurentSeries:
        """The series alpha * omega^j whose coefficients fill column j."""
        return self.columns([j])[j]

    def columns(self, js) -> dict:
        """{j: column(j)} for the exponents js, from one walk over the powers
        of omega (series.powers with alpha as its factor), so column j+1 is
        column j times omega; the first column to raise, in ascending j,
        raises."""
        return dict(powers(self.omega, js, self.side, self.precision, self.alpha))

    def entry(self, i: int, j: int):
        return self.column(j)[i]

    def __eq__(self, other):
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return (self.alpha == other.alpha and self.omega == other.omega
                and self.side is other.side)

    def __hash__(self):
        return hash((self.alpha, self.omega, self.side))

    def __repr__(self):
        return (f"<RiordanMatrix alpha={self.alpha.to_text()!r} "
                f"omega={self.omega.to_text()!r} {self.side.value}>")


def riordan(alpha: LaurentSeries, omega: LaurentSeries,
            side: Side | None = None,
            precision: int | None = None) -> RiordanMatrix:
    return RiordanMatrix(alpha, omega, side, precision)


def toeplitz(alpha: LaurentSeries, side: Side | None = None,
             precision: int | None = None) -> RiordanMatrix:
    """Multiplication by alpha: entry (i, j) is the coefficient alpha_{i-j}."""
    return RiordanMatrix(alpha, LaurentSeries.from_terms({1: 1}), side, precision)


def lagrange(omega: LaurentSeries, side: Side | None = None,
             precision: int | None = None) -> RiordanMatrix:
    """Composition with omega: column j holds the coefficients of omega^j."""
    return RiordanMatrix(LaurentSeries.one(), omega, side, precision)


def identity() -> RiordanMatrix:
    return toeplitz(LaurentSeries.one())


def j_matrix() -> RiordanMatrix:
    """Anti-diagonal of ones: entry (i, j) = 1 iff i + j = 0."""
    return lagrange(LaurentSeries.from_terms({-1: 1}))


def classify(m: RiordanMatrix) -> frozenset:
    """Echelon classes of the matrix, read off the column generator.

    Membership follows omega's side and order: bounded below with positive
    order gives L+, bounded below with negative order L-, and the two upper
    classes mirror those for bounded-above omega.  A finite-support omega is
    viewable on both sides, so its class set can have two elements; order 0
    on a side contributes nothing.
    """
    classes = set()
    for c, (side, sign) in _SHAPE.items():
        order = _side_order(m.omega, side)
        if order is not None and order * sign >= 1:
            classes.add(c)
    return frozenset(classes)


def apply(m: RiordanMatrix, chi: LaurentSeries) -> LaurentSeries:
    """Matrix-vector product: the series alpha * (chi o omega).

    chi plays the role of a coefficient column vector; the result collects
    sum_j entry(i, j) * chi_j for every row i, which the composition rules
    evaluate without touching individual entries.
    """
    return mul(m.alpha, compose(chi, m.omega, m.precision, m.side))


# Defined class products and their results; the remaining eight pairs have no
# certified finite summation ranges and are rejected.  The dict's insertion
# order fixes the tie-break when finite-support components make several cells
# eligible.
_TABLE = {
    (EchelonClass.L_PLUS, EchelonClass.L_PLUS): EchelonClass.L_PLUS,
    (EchelonClass.L_PLUS, EchelonClass.L_MINUS): EchelonClass.L_MINUS,
    (EchelonClass.L_MINUS, EchelonClass.U_PLUS): EchelonClass.L_MINUS,
    (EchelonClass.L_MINUS, EchelonClass.U_MINUS): EchelonClass.L_PLUS,
    (EchelonClass.U_PLUS, EchelonClass.U_PLUS): EchelonClass.U_PLUS,
    (EchelonClass.U_PLUS, EchelonClass.U_MINUS): EchelonClass.U_MINUS,
    (EchelonClass.U_MINUS, EchelonClass.L_PLUS): EchelonClass.U_MINUS,
    (EchelonClass.U_MINUS, EchelonClass.L_MINUS): EchelonClass.U_PLUS,
}


def _column_sides(m: RiordanMatrix, lo: int | None = None) -> tuple:
    # the sides m's columns j >= lo (all when None) hold on: those of the
    # powers of omega, the stored side alone when alpha is inexact
    sides = _power_sides(m.omega, m.side, lo)
    return sides if m.alpha.exact else sides[:1]


def _factor_classes(m: RiordanMatrix) -> frozenset:
    return frozenset(c for c in classify(m) if _SHAPE[c][0] in _column_sides(m))


def product_cell(m: RiordanMatrix, n: RiordanMatrix):
    """First defined (class of m, class of n) cell in tie-break order, or None."""
    cm = _factor_classes(m)
    cn = _factor_classes(n)
    for cell in _TABLE:
        if cell[0] in cm and cell[1] in cn:
            return cell
    return None


def matmul(m: RiordanMatrix, n: RiordanMatrix) -> RiordanMatrix:
    """Product matrix R(alpha*(beta o omega), chi o omega) for m = R(alpha,
    omega) and n = R(beta, chi), defined only for compatible echelon classes."""
    cell = product_cell(m, n)
    if cell is None:
        raise UndefinedProductError(
            "product not defined for echelon classes "
            f"{format_class_set(_factor_classes(m))} x "
            f"{format_class_set(_factor_classes(n))}"
        )
    prec = m.precision if m.precision is not None else n.precision
    new_omega = compose(n.omega, m.omega, prec, m.side)
    new_alpha = mul(m.alpha, compose(n.alpha, m.omega, prec, m.side))
    return RiordanMatrix(new_alpha, new_omega, _SHAPE[_TABLE[cell]][0], prec)


def inverse(m: RiordanMatrix) -> RiordanMatrix:
    """Group inverse R(1/(alpha o winv), winv), winv the compositional inverse
    of omega on the matrix's side; needs alpha != 0, omega of order +-1 there."""
    if m.side is Side.ABOVE:
        return j_conjugate(inverse(j_conjugate(m, "left")), "right")  # (J m)^-1 J
    if m.alpha.is_zero():
        raise NotInvertibleError("alpha is zero, so every row is annihilated")
    # winv and alpha o winv live below for order 1 and above for order -1
    side = {1: Side.BELOW, -1: Side.ABOVE}.get(_side_order(m.omega, Side.BELOW))
    if side is None:
        raise NotInvertibleError(
            "compositional inverse requires order +1 or -1 on the series' side")
    winv = compositional_inverse(m.omega, m.precision)
    new_alpha = recip(compose(m.alpha, winv, m.precision), side, m.precision)
    return RiordanMatrix(new_alpha, winv, precision=m.precision)


def j_conjugate(m: RiordanMatrix, side: str = "both") -> RiordanMatrix:
    """Reflect across the 0-row ('left'), the 0-column ('right'), or both.

    Left reflection substitutes 1/x into both components; right reflection
    replaces omega by its reciprocal; 'both' is the conjugation J m J and is
    an involution.
    """
    if side not in ("left", "right", "both"):
        raise ValueError("side must be 'left', 'right' or 'both'")
    alpha, omega, work = m.alpha, m.omega, m.side
    if side in ("left", "both"):
        alpha = substitute_reciprocal(alpha)
        omega = substitute_reciprocal(omega)
        work = work.flipped()
    if side in ("right", "both"):
        # column j becomes column -j, expanded on the side the columns work on
        omega = recip(omega, work, m.precision)
    return RiordanMatrix(alpha, omega, work, m.precision)
