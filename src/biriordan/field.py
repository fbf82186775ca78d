"""Exact scalar arithmetic.

The default coefficient field is the rationals via fractions.Fraction, whose
values are always in canonical form (reduced, positive denominator).  A small
prime-field element type is provided so the series layer can be exercised over
a second field; only rationals are used by the CLI.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_scalar(text: str) -> Fraction:
    """Parse "p" or "p/q" into a canonical rational; q = 0 is rejected."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ParseError(f"malformed rational {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) is not None else 1
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def format_scalar(a) -> str:
    """Canonical text form: "p" when the denominator is 1, else "p/q"."""
    return str(a)


class PrimeFieldElement:
    """Integer residue mod a prime, with field operations.

    Mixes with int so code written for Fraction coefficients (comparisons with
    0/1, `1 / c`) works unchanged.
    """

    __slots__ = ("n", "p")

    def __init__(self, n: int, p: int):
        self.n = n % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else PrimeFieldElement(self.n + o.n, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else PrimeFieldElement(self.n - o.n, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else PrimeFieldElement(o.n - self.n, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else PrimeFieldElement(self.n * o.n, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o._inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o * self._inverse()

    def _inverse(self):
        if self.n == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return PrimeFieldElement(pow(self.n, self.p - 2, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.n, self.p)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.n == o.n

    def __hash__(self):
        return hash((self.n, self.p))

    def __bool__(self):
        return self.n != 0

    def __str__(self):
        return str(self.n)

    def __repr__(self):
        return f"PrimeFieldElement({self.n}, {self.p})"


# Miller-Rabin with the first 13 primes as bases is certain below the bound
# (Sorenson and Webster, 2015), itself a strong pseudoprime to all 13 bases
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    if n < 2 or n in _BASES:
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^s
    odd = (n - 1) >> s
    if any(pow(a, odd, n) != 1 and all(pow(a, odd << r, n) != n - 1 for r in range(s))
           for a in _BASES):
        return False
    if n >= _CERTIFIED_BELOW:
        raise ValueError(f"primality of {n} is not certified: Miller-Rabin on the "
                         f"first 13 primes is certain only below {_CERTIFIED_BELOW}")
    return True


def field_of(values, what: str = "coefficients") -> int:
    """The field of values, ints, Fractions and PrimeFieldElements of one
    prime (a rational zero lies in every field): 0 for Q, p for GF(p).
    Anything else raises TypeError naming the type, before any arithmetic,
    and a modulus that PrimeField refuses raises what PrimeField raises."""
    types = set(map(type, values))
    if types <= {int, Fraction}:
        return 0
    for t in types - {int, Fraction, PrimeFieldElement}:
        raise TypeError(f"{what} are ints, Fractions or PrimeFieldElements, "
                        f"not {t.__name__}")
    fields = {getattr(c, "p", 0): c for c in values if type(c) is PrimeFieldElement or c}
    if len(fields) > 1:
        names = [f"{type(c).__name__} mod {q}" if q else type(c).__name__
                 for q, c in sorted(fields.items())]
        raise TypeError(f"{what} lie in more than one field: {' and '.join(names)}")
    p, = fields  # a PrimeFieldElement is among the values
    return PrimeField(p).p


_PRIMES: set = set()  # the moduli PrimeField has proved prime


class PrimeField:
    """Factory for PrimeFieldElement values: GF7 = PrimeField(7); GF7(3)."""

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"a prime modulus is an int, not {type(p).__name__}")
        if p not in _PRIMES:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            _PRIMES.add(p)
        self.p = p

    def __call__(self, n: int) -> PrimeFieldElement:
        return PrimeFieldElement(n, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"
