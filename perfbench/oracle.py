"""Reference arithmetic for checking results, sharing no code with biriordan.

Series are checked modulo a prime: over GF(p) that is exact, and for rational
results every coefficient is mapped into GF(2^61 - 1) (a wrong coefficient
escapes only if its error is divisible by that prime; denominators here are
products of small primes, so the map is always defined).  The algorithms
differ from the library's on purpose: Horner's rule for composition, Lagrange
inversion for reversion and plain truncated convolution for products.  The
Dehn-Sommerville quantities are computed exactly with math.comb.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q61 = (1 << 61) - 1


class Ser:
    """A one-sided truncated series: side "below" or "above", order v (least
    exponent below, greatest above) and the known coefficients c[0..n-1],
    counted from the order outward, as residues modulo m."""

    __slots__ = ("side", "v", "c", "m")

    def __init__(self, side, v, c, m):
        self.side, self.v, self.c, self.m = side, v, c, m

    @property
    def window(self):
        n = len(self.c)
        if self.side == "below":
            return self.v, self.v + n - 1
        return self.v - n + 1, self.v

    def coeff(self, e):
        """Residue at exponent e, None when e lies beyond the known window."""
        i = e - self.v if self.side == "below" else self.v - e
        if i < 0:
            return 0
        return self.c[i] if i < len(self.c) else None

    def flip(self):
        return Ser("above" if self.side == "below" else "below", -self.v,
                   self.c, self.m)


def residue(x, m):
    """Residue of an int, a Fraction or a prime-field element modulo m."""
    if isinstance(x, int):
        return x % m
    if isinstance(x, Fraction):
        return x.numerator % m * pow(x.denominator % m, m - 2, m) % m
    return x.n % m


def _conv(a, b, n, m):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return [v % m for v in out]


def _inv(a, n, m):
    inv0 = pow(a[0], m - 2, m)
    out = [inv0]
    for k in range(1, n):
        s = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out.append(-s * inv0 % m)
    return out


def expand(num, den, shift, side, prec, m):
    """x^shift * num/den expanded on `side` to prec coefficients; num and den
    map exponents 0..deg to coefficients, with nonzero constant terms."""
    dn, dd = max(num), max(den)
    n = [residue(num.get(e, 0), m) for e in range(dn + 1)]
    d = [residue(den.get(e, 0), m) for e in range(dd + 1)]
    if side == "below":
        return Ser("below", shift, _conv(n, _inv(d, prec, m), prec, m), m)
    return Ser("above", shift + dn - dd,
               _conv(n[::-1], _inv(d[::-1], prec, m), prec, m), m)


def mul(a, b):
    n = min(len(a.c), len(b.c))
    return Ser(a.side, a.v + b.v, _conv(a.c, b.c, n, a.m), a.m)


def recip(a):
    return Ser(a.side, -a.v, _inv(a.c, len(a.c), a.m), a.m)


def power(a, j):
    base = a if j > 0 else recip(a)
    out = base
    for _ in range(abs(j) - 1):
        out = mul(out, base)
    return out


def _kernel(chi, om):
    """chi(om) for chi bounded below and om bounded below of order w >= 1,
    by Horner's rule, on the window the composition can certify: chi's own
    truncation gives the cap (chi.hi + 1) * w - 1, and the lowest power of om
    that enters inexactly (k = m, or the first k >= 1 with chi_k != 0 when
    m = 0, since om^0 = 1 is exact) gives k * w + count(om) - 1."""
    m_, w, mod = chi.v, om.v, chi.m
    cap = (m_ + len(chi.c)) * w - 1
    ks = [m_ + i for i, x in enumerate(chi.c) if x and (m_ != 0 or i > 0)]
    if ks:
        cap = min(cap, ks[0] * w + len(om.c) - 1)
    n = cap - m_ * w + 1
    shifted = [0] * w + om.c  # om itself, exponents from 0
    acc = [0] * n
    for x in reversed(chi.c):
        acc = _conv(acc, shifted, n, mod)
        acc[0] = (acc[0] + x) % mod
    if m_:
        base = om.c if m_ > 0 else _inv(om.c, len(om.c), mod)
        powm = [1]
        for _ in range(abs(m_)):
            powm = _conv(powm, base, n, mod)
        acc = _conv(powm, acc, n, mod)
    return Ser("below", m_ * w, acc, mod)


def compose(chi, om):
    """chi(om) in the four side/order cases the library documents."""
    if chi.side == "below":
        if om.side == "below" and om.v >= 1:
            return _kernel(chi, om)
        if om.side == "above" and om.v <= -1:
            return _kernel(chi, om.flip()).flip()
    else:
        if om.side == "below" and om.v <= -1:
            return _kernel(chi.flip(), recip(om))
        if om.side == "above" and om.v >= 1:
            return _kernel(chi.flip(), recip(om).flip()).flip()
    raise ValueError("composition case not covered")


def _reversion(om):
    """Inverse of om = x * W(x), W(0) != 0, by Lagrange inversion:
    [x^n] g = (1/n) [x^(n-1)] W^-n."""
    n, mod = len(om.c), om.m
    v = _inv(om.c, n, mod)
    p = [1]
    g = []
    for k in range(1, n + 1):
        p = _conv(p, v, n, mod)
        g.append(p[k - 1] * pow(k, mod - 2, mod) % mod)
    return Ser("below", 1, g, mod)


def compositional_inverse(om):
    """Order +1 keeps the side; order -1 lands on the opposite side."""
    if om.side == "below":
        if om.v == 1:
            return _reversion(om)
        if om.v == -1:
            return _reversion(recip(om)).flip()
    else:
        if om.v == 1:
            return recip(_reversion(recip(om.flip())).flip())
        if om.v == -1:
            return recip(_reversion(om.flip()))
    raise ValueError("order must be +1 or -1")


def column_window(alpha, om, j):
    """Known rows of column j of R(alpha, om), which is alpha * om^j."""
    if j == 0:
        return alpha.window
    n = min(len(alpha.c), len(om.c))
    v = alpha.v + j * om.v
    return (v, v + n - 1) if alpha.side == "below" else (v - n + 1, v)


def columns(alpha, om, hi):
    """Columns 0..hi of R(alpha, om), by repeated multiplication with om."""
    cols = [alpha]
    pw = None
    for _ in range(hi):
        pw = om if pw is None else mul(pw, om)
        cols.append(mul(alpha, pw))
    return cols


def matmul(a1, w1, a2, w2):
    """(alpha, omega) of R(a1, w1) R(a2, w2) = R(a1 * (a2 o w1), w2 o w1)."""
    return mul(a1, compose(a2, w1)), compose(w2, w1)


def inverse(alpha, om):
    """(alpha, omega) of R(alpha, om)^-1 = R(1 / (alpha o winv), winv)."""
    winv = compositional_inverse(om)
    return recip(compose(alpha, winv)), winv


def apply(alpha, om, chi):
    return mul(alpha, compose(chi, om))


def is_monomial_x(s, e):
    """s agrees with the monomial x^e on its whole window."""
    lo, hi = s.window
    return all(s.coeff(k) == (1 if k == e else 0) for k in range(lo, hi + 1))


# -- Dehn-Sommerville --------------------------------------------------------


def _sign(n):
    return -1 if n % 2 else 1


def h_vector(f):
    """h_k = sum_i f_{i-1} (-1)^(k-i) C(d+1-i, k-i), f given as f_{-1}..f_d."""
    d = len(f) - 2
    return [sum(f[i] * _sign(k - i) * math.comb(d + 1 - i, k - i)
                for i in range(k + 1)) for k in range(d + 2)]


def residuals(f):
    """sum_{j>=k} (-1)^j C(j+1, k+1) f_j - (-1)^d f_k for k = -1..d."""
    d = len(f) - 2
    return [sum(_sign(j) * math.comb(j + 1, k + 1) * f[j + 1]
                for j in range(k, d + 1)) - _sign(d) * f[k + 1]
            for k in range(-1, d + 1)]
