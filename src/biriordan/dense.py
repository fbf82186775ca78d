"""Working form of truncated power series over Q or GF(p).

A working form (xs, den) is, over Q (p = 0), integers over one common
denominator, over GF(p) the residues over 1.  Its xs is a list, or, for a
span mostly made of gaps, a dict {i: xs[i]} of its nonzero entries (the
sparse form).  A series keeps the form its kernel returned
(series.LaurentSeries): each operand is converted in once, and out once when
first read.  A product of two lists is one packed integer product (Kronecker
substitution), any other one a loop over the term pairs, truncated to the
coefficients needed.  The packed slots are machine words that struct packs
and reads when the entries are below 2^63 in magnitude and a slot needs at
most 128 bits, and bytes, one object per coefficient, above.

Exact polynomials are forms too: a series that carries a ratio N/D holds two
of them, multiplies and sums them with `mul` and `combine`, and expands them
with `recip(D, n, p, num=N)`, long division for a short D.  Only a ratio
(`series._rational`, whole or through a cut) and `series.recip` (a window)
call `recip`; the parser's quotients and Lagrange's psi divide through
them.  The compositional inverse of x A/B solves y A(y) = x B(y), one
coefficient at a time from short dot products (`invert`), while A and B are
short; any other inverse takes Lagrange's scheme over packed products
(`reversion`).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from struct import Struct, pack, unpack

from .field import PrimeFieldElement


def worth_packing(span: int, terms: int) -> bool:
    """Does a list pay for terms nonzero entries over span + 1 slots?  A list
    costs a slot per exponent in the span, the term loop a step per term."""
    return span < 4 * terms + 64


def from_coeffs(coeffs: dict, lo: int, n: int, p: int) -> tuple:
    """Working form of the coefficients of x^lo .. x^(lo+n-1); gaps are 0."""
    if p:
        return [coeffs[e].n if e in coeffs else 0 for e in range(lo, lo + n)], 1
    # ints have a numerator and a denominator too, so a gap (0) needs no branch
    cs = [coeffs.get(e, 0) for e in range(lo, lo + n)]
    # a list, not a generator: with a generator argument the resident memory
    # of a long run kept growing on CPython 3.11
    den = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def from_terms(coeffs: dict, base: int, step: int, p: int) -> tuple:
    """Sparse working form of the nonzero coefficients, the one of x^e at
    i = step * (e - base)."""
    if p:
        return {step * (e - base): c.n for e, c in coeffs.items()}, 1
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    return {step * (e - base): c.numerator * (den // c.denominator)
            for e, c in coeffs.items()}, den


def to_coeffs(xs, den: int, lo: int, p: int, step: int = 1) -> dict:
    """Coefficient dict {lo + step * i: xs[i] / den}, zeros dropped."""
    if type(xs) is dict:
        pairs = [(lo + step * i, x) for i, x in xs.items()]
    else:
        pairs = zip(range(lo, lo + step * len(xs), step), xs)
    if p:
        return {e: PrimeFieldElement(x, p) for e, x in pairs if x % p}
    if den == 1:  # the same value, without a gcd per coefficient
        return {e: Fraction(x) for e, x in pairs if x}
    return {e: Fraction(x, den) for e, x in pairs if x}


def _normal(xs, den: int, p: int) -> tuple:
    # residues reduced mod p; over Q the common factor of den and xs divided
    # out; a sparse form keeps only its nonzero entries
    if type(xs) is dict:
        vs = list(xs.values())
        ys, den = _normal(vs, den, p)
        return (xs if ys is vs and 0 not in ys else
                {i: y for i, y in zip(xs, ys) if y}), den
    if p:
        return [x % p for x in xs], 1
    g = math.gcd(den, *xs) if den != 1 else 1
    if g == 1:
        return xs, den
    return [x // g for x in xs], den // g


def mul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    """a * b to n coefficients: sparse when either form is."""
    (xa, da), (xb, db) = a, b
    if type(xa) is list and type(xb) is list:
        return _normal(product(xa, xb, n), da * db, p)
    return _normal(_term_product(xa, xb, n), da * db, p)


def _nonzero(xs):
    # the pairs (i, xs[i]) of the nonzero entries of a form, with a length
    return xs.items() if type(xs) is dict else [(i, x) for i, x in enumerate(xs) if x]


def _term_product(xa, xb, n: int) -> dict:
    # the sparse product to n coefficients over the term pairs: the sum, over
    # each entry x at i of the shorter factor, of the other shifted by i and
    # scaled by x (by 1 without a product)
    ta, tb = _nonzero(xa), _nonzero(xb)
    if len(ta) > len(tb):
        ta, tb = tb, ta
    acc: dict = {}
    for i, x in ta:
        row = ((i + j, y if x == 1 else x * y) for j, y in tb if i + j < n)
        if acc:
            get = acc.get
            acc.update({k: get(k, 0) + y for k, y in row})
        else:
            acc = dict(row)
    return acc


def combine(terms: list, n: int, p: int) -> tuple:
    """The sum over (c, s, u) in terms of c x^s u to n coefficients, for a
    Fraction or residue c, a shift s >= 0 and a working form u: a list when
    every u is one and the sum is worth packing, else sparse."""
    if p:
        den, scaled = 1, [(c.n, s, xs) for c, s, (xs, _) in terms]
    else:
        den = math.lcm(*[c.denominator * d for c, _, (_, d) in terms])
        scaled = [(c.numerator * (den // (c.denominator * d)), s, xs)
                  for c, s, (xs, d) in terms]
    if all(type(xs) is list for *_, xs in scaled) and worth_packing(
            n - 1, sum(len(xs) for *_, xs in scaled)):
        acc = [0] * n
        for f, s, xs in scaled:
            for i, x in enumerate(xs[:max(n - s, 0)], s):
                acc[i] += f * x
        return _normal(acc, den, p)
    acc = {}
    for f, s, xs in scaled:
        for i, x in _nonzero(xs):
            if i + s < n:
                acc[i + s] = acc.get(i + s, 0) + f * x
    return _normal(acc, den, p)


def join(a: tuple, b: tuple, p: int) -> tuple:
    """The working form whose coefficients are a's followed by b's."""
    (xa, da), (xb, db) = a, b
    d = math.lcm(da, db)
    return _normal([x * (d // da) for x in xa] + [x * (d // db) for x in xb], d, p)


def product(xa: list, xb: list, n: int) -> list:
    """The first n coefficients of the product of two integer lists.

    Kronecker substitution: each list becomes the base-2^(8*width) digits of
    one int, so a single big-integer product yields every output coefficient
    at once.  A slot of at most 64 bits is a word of 1, 2, 4 or 8 bytes, one
    of at most 128 bits, for entries below 2^63 in magnitude, 8 bytes and a
    high part of 1, 2, 4 or 8: struct packs and reads each list of words in
    one call.  Wider entries or slots take one bytes object per coefficient,
    and so does a product of more than _WIDENED_BYTES bytes of slots when
    the word is wider than the bytes the slot needs."""
    if n <= 0 or not (xa and xb):
        return []
    if len(xb) == 1:
        xa, xb = xb, xa
    if len(xa) == 1:  # a one-term factor scales the other, packing nothing
        return [xa[0] * x for x in xb[:n]]
    xa, xb = xa[:n], xb[:n]
    count = min(n, len(xa) + len(xb) - 1)  # at least either length
    # a coefficient of the product sums at most min(len) products: size the
    # slots so that it fits with a sign bit to spare
    ba, bb = max(map(abs, xa)).bit_length(), max(map(abs, xb)).bit_length()
    bits = ba + bb + min(len(xa), len(xb)).bit_length() + 1
    size = (bits + 7) // 8
    word = (1 << (size - 1).bit_length() if size <= 8 else
            8 + (1 << (size - 9).bit_length()) if size <= 16 and max(ba, bb) < 64
            else 0)
    width = bits // 8 + 1
    if word and (word <= width or word * count <= _WIDENED_BYTES):
        width = word
    if width != word:  # one bytes object per coefficient
        raw = _multiply(b"".join([x.to_bytes(width, "little", signed=True) for x in xa]),
                        b"".join([x.to_bytes(width, "little", signed=True) for x in xb]),
                        width, count, 8 * width - 1)
        return [int.from_bytes(raw[i:i + width], "little", signed=True)
                for i in range(0, width * count, width)]
    if width <= 8:  # one struct call per list
        code = _CODES[width]
        raw = _multiply(pack(f"<{len(xa)}{code}", *xa), pack(f"<{len(xb)}{code}", *xb),
                        width, count, 8 * width - 1)
        return list(unpack(f"<{count}{code}", raw))
    pack_word, read = _WIDE[width]  # one struct call per coefficient, in C
    raw = _multiply(b"".join(map(pack_word, xa)), b"".join(map(pack_word, xb)),
                    width, count, 63)
    return [lo + (hi << 64) for lo, hi in read(raw)]


# the struct codes of the words of 1, 2, 4 and 8 bytes, and for the wider
# words, 8 bytes and a high part of 1, 2, 4 or 8, the pack of one signed word
# into a slot, its high part zero, and the read of each slot as its unsigned
# low word and signed high part
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_WIDE = {width: (Struct(f"<q{width - 8}x").pack, Struct(f"<Q{high}").iter_unpack)
         for width, high in ((9, "b"), (10, "h"), (12, "i"), (16, "q"))}

# a word wider than the byte slot (bits // 8 + 1 bytes) makes the big-integer
# product longer: it is taken only while the product spans at most this many
# bytes of slots (measured against the bytes, every slot of 2 to 16 bytes at 8
# to 10000 coefficients: up to 1024 bytes the words took 0.45 to 1.04 times
# the time, the most a slot of 13 bytes widened to 16 at 64 coefficients;
# beyond, one of 5 widened to 8 took up to 1.2 times at 256 coefficients and
# 1.7 at 10000, one of 3 widened to 4 1.06 at 10000)
_WIDENED_BYTES = 1024


def _multiply(ra: bytes, rb: bytes, width: int, count: int, sign: int) -> bytes:
    # the lowest count slots of width bytes of the product of two packed
    # lists, each slot the two's complement of its digit.  A list's slots are
    # signed numbers whose sign is bit `sign` of the slot (the top bit, or bit
    # 63 of a word beneath a high part of zeros): flipping that bit adds half
    # its range to each slot, so the bytes read as one nonnegative sum, and
    # subtracting the same bits takes the halves off.  The product is read
    # back the other way: with half a slot added to each digit every digit is
    # nonnegative, so the slots split without borrows, and flipping the top
    # bit takes the half off.  A list may hold fewer than count slots
    signs = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    flips = signs >> (8 * width - 1 - sign)
    a = (int.from_bytes(ra, "little") ^ flips) - flips
    b = (int.from_bytes(rb, "little") ^ flips) - flips
    size = width * count
    return (((a * b + signs) ^ signs) & ((1 << 8 * size) - 1)).to_bytes(size, "little")


def power(u: tuple, k: int, count: int) -> tuple:
    """u^k to count coefficients over Q (u[0] != 0, k != 0) by J.C.P.
    Miller's recurrence n u_0 b_n = sum over i >= 1 of ((k+1) i - n) u_i
    b_(n-i): one step per term of u for each output coefficient, and no
    product of long series.  It divides by n, so it does not hold over GF(p).

    With u = (xs, den) the start value keeps every b_n an integer: b_0 =
    xs_0^k over den^k for k > 0, where b is the integer polynomial xs^k; for
    k < 0, [x^n] xs^k has a denominator dividing xs_0^(n-k), so b_0 =
    xs_0^(count-1) den^-k over xs_0^(count-1-k)."""
    xs, den = u
    x0 = xs[0]
    steps = [(i, (k + 1) * i * x, x) for i, x in enumerate(xs[:count]) if i and x]
    if k > 0:
        b, out = [x0 ** k], den ** k
    else:
        b, out = [x0 ** (count - 1) * den ** -k], x0 ** (count - 1 - k)
    for n in range(1, count):
        s = 0
        for i, a, x in steps:
            if i > n:
                break
            s += (a - n * x) * b[n - i]
        b.append(s // (n * x0))  # exact: the sum is n x0 b_n
    if out < 0:
        b, out = [-x for x in b], -out
    return _normal(b, out, 0)


# the reciprocal takes long division up to this many coefficients, or up to
# this many nonzero terms among them (measured: long division takes a step
# per term for each coefficient, Newton a few packed products of n
# coefficients, whose fixed costs outweigh the steps at every term count up
# to n = 64; beyond, Newton wins from about 24 terms over GF(2^31-1), and
# from more than 48 over Q).  Over Q long division scales every step by
# u_0^(n-1), and u_0 carries the common denominator of u, which on the
# expansion of a rational function grows with n; so a divisor of more terms
# with n times the bits of its denominator past _SHORT_DEN_BITS takes Newton
# iteration at any n (measured on expansions and random dense divisors,
# n = 16..64: long division was faster at every point up to 1184, Newton
# from 3360 on, 2 to 17 times at n = 32 and 64)
_SHORT_COUNT = 64
_SHORT_DIVISOR = 20
_SHORT_DEN_BITS = 2048


def recip(u: tuple, n: int, p: int, num: tuple | None = None) -> tuple:
    """num/u (1/u without num) to n coefficients (u[0] != 0): by long
    division for at most _SHORT_DIVISOR nonzero terms among the first n
    coefficients of u, or for n <= _SHORT_COUNT unless n times the bits of
    u's denominator pass _SHORT_DEN_BITS; else by Newton iteration and one
    product with num."""
    xs = u[0][:n]
    if (len(xs) - xs.count(0) <= _SHORT_DIVISOR
            or n <= _SHORT_COUNT and n * u[1].bit_length() <= _SHORT_DEN_BITS):
        return _divide(u, n, p) if num is None else _divide(u, n, p, num)
    v = _newton(u, n, p)
    return v if num is None else mul(num, v, n, p)


def _divide(u: tuple, n: int, p: int, num: tuple = ((1,), 1)) -> tuple:
    # b_k = (a_k - sum over i >= 1 of u_i b_(k-i)) / u_0 for a = num.  Over Q
    # every b_k stays an integer, as in power: [x^k] a/xs has a denominator
    # dividing u_0^(k+1), so b is it times u_0^n (a_k enters times u_0^(n-1)
    # den) over u_0^n times a's den; over GF(p) each step is times u_0^-1
    xs, den = u
    x0 = xs[0]
    steps = [(i, x) for i, x in enumerate(xs[:n]) if i and x]
    if p:
        inv = pow(x0, -1, p)
        b = [x * inv % p for x in num[0][:n]]
    else:
        scale = x0 ** (n - 1) * den
        b = [x * scale for x in num[0][:n]]
    b += [0] * (n - len(b))
    for k in range(1, n):
        s = 0
        for i, x in steps:
            if i > k:
                break
            s += x * b[k - i]
        b[k] = (b[k] - s * inv) % p if p else b[k] - s // x0  # exact over Q
    if p:
        return b, 1
    out = x0 ** n * num[1]
    if out < 0:
        b, out = [-x for x in b], -out
    return _normal(b, out, p)


def _newton(u: tuple, n: int, p: int) -> tuple:
    # when v is right to k coefficients, u*v = 1 + x^k*e and v - x^k*(v*e)
    # is right to 2k
    xs, den = u
    if p:
        v = ([pow(xs[0], -1, p)], 1)
    else:
        v = ([den], xs[0]) if xs[0] > 0 else ([-den], -xs[0])
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        ex, ed = mul(u, v, k2, p)
        vx, vd = mul(v, (ex[k:], ed), k2 - k, p)
        v = join(v, ([-x for x in vx], vd), p)
        k = k2
    return v


def reversion(psi: tuple, n: int, p: int) -> tuple:
    """The coefficients of x^1 .. x^n of the compositional inverse of x/psi
    (psi[0] != 0, n coefficients of psi), in the working form.

    Lagrange inversion in the form that never divides by k (so it also holds
    in characteristic p <= n): [x^(k+1)] is [x^k] psi^k (psi - x psi').
    Baby steps and giant steps (Brent and Kung): with s = ceil(sqrt(n)) and
    k = a s + b, that coefficient is the dot product of the giant step
    psi^(a s) (psi - x psi') with the baby step psi^b, so about 2 sqrt(n)
    products of n coefficients serve all n coefficients."""
    s = math.isqrt(n - 1) + 1
    babies = [([1] + [0] * (n - 1), 1), psi]
    while len(babies) <= s:
        babies.append(mul(babies[-1], psi, n, p))
    giant = babies.pop()  # psi^s
    g = ([(1 - i) * x for i, x in enumerate(psi[0])], psi[1])
    out = []
    for k in range(n):
        a, b = divmod(k, s)
        if a and not b:
            g = mul(g, giant, n, p)
        (gx, gd), (bx, bd) = g, babies[b]
        dot = sum(map(operator.mul, gx[:k + 1], bx[k::-1]))
        out.append((dot % p, 1) if p else (dot, gd * bd))
    den = math.lcm(*{d for _, d in out})
    return _normal([x * (den // d) for x, d in out], den, p)


def invert(a: tuple, b: tuple, n: int, p: int) -> tuple:
    """The coefficients of x^1 .. x^n of the compositional inverse y of
    x A/B, for polynomial forms a = A and b = B (A[0], B[0] nonzero), in
    the working form: the same as reversion(recip(a, n, p, b), n, p).

    y solves y A(y) = x B(y) one coefficient at a time.  With R = max(deg
    A + 1, deg B), each power y^2 .. y^R gains its coefficient m by one dot
    product with y, and then y_m solves one linear equation: A_0 y_m = sum
    over i of B_i [x^(m-1)] y^i - sum over i >= 1 of A_i [x^m] y^(i+1).
    That is about R n^2 / 2 products of scalars, no packed product and no
    division by k, so it holds in every characteristic.  Over GF(p) the
    equation is scaled by A_0^-1 and every residue is kept in (-p/2, p/2),
    where a dot product's running sum stays a machine word longer.  Over Q,
    with a = db xa and b = da xb in integers, Y_m = a_0^(2m-1) y_m and
    P_i[m] = a_0^(2m-i) [x^m] y^i are integers: P_i[m] = sum over l of Y_l
    P_(i-1)[m-l] and Y_m = sum over i of b_i a_0^i P_i[m-1] - sum over
    i >= 1 of a_i a_0^(i-1) P_(i+1)[m], with P_0 = 1; the result is divided
    by a_0^(2n-1) once."""
    (xa, da), (xb, db) = a, b
    half = p // 2
    if p:
        inv = pow(xa[0], -1, p)
        bs, as_ = [x * inv % p for x in xb], [x * inv % p for x in xa[1:]]
    else:
        xa, xb = [db * x for x in xa], [da * x for x in xb]
        a0 = xa[0]
        bs = [x * a0 ** i for i, x in enumerate(xb)]
        as_ = [x * a0 ** i for i, x in enumerate(xa[1:])]
    cols = [[0] for _ in range(max(len(xa), len(xb) - 1))]  # P_1 .. P_R from x^0
    ys = cols[0]  # P_1 = Y
    steps = list(zip(cols, cols[1:]))  # P_(i-1), P_i
    pb = list(zip(bs, [[1] + [0] * n] + cols))  # b_i with P_i, P_0 = 1
    pa = list(zip(as_, cols[1:]))  # a_i with P_(i+1), i >= 1
    rev = [0]  # 0, Y_(m-1) .. Y_1: its dot with P_(i-1) is P_i[m]
    for m in range(1, n + 1):
        for lower, col in steps:
            s = sum(map(operator.mul, rev, lower))
            col.append((s + half) % p - half if p else s)
        y = sum([f * col[m - 1] for f, col in pb]) - sum([f * col[m] for f, col in pa])
        y = (y + half) % p - half if p else y
        ys.append(y)
        rev[0] = y
        rev.insert(0, 0)
    if p:
        return [y % p for y in ys[1:]], 1
    scale, square = 1, a0 * a0
    for m in range(n, 0, -1):  # Y_m a_0^(2(n-m)) over a_0^(2n-1)
        ys[m] *= scale
        scale *= square
    den = scale // a0
    if den < 0:
        return _normal([-y for y in ys[1:]], -den, 0)
    return _normal(ys[1:], den, 0)


def compose(c: tuple, t: tuple, w: int, n: int, p: int) -> tuple:
    """The sum over k of c_k y^k to n coefficients, for y = x^w t (w >= 1)
    and a c whose every term reaches x^(n-1): (len(c) - 1) w < n.

    Paterson and Stockmeyer's baby steps and giant steps: with s =
    ceil(sqrt(len(c))), the baby powers y^0 .. y^(s-1); each block sum over
    b of c_(as+b) y^b as n dot products against them, with the c_(as+b)
    scaled to one common denominator of the y^b; the blocks by Horner's rule
    in y^s, each product truncated to the coefficients that still reach
    x^(n-1).  That is about 2 sqrt(len(c)) products of n coefficients, not
    len(c)."""
    cs, dc = c
    s = math.isqrt(len(cs) - 1) + 1
    rows, dens = [[1] + [0] * (n - 1)], [1]  # y^b as n coefficients over dens[b]
    for b in range(1, s + 1 if len(cs) > s else s):
        # t^b to the n - b w coefficients that y^b keeps
        tb = t if b == 1 else mul(tb, t, n - b * w, p)
        if b < s:
            row = [0] * (b * w) + tb[0][:n - b * w]
            rows.append(row + [0] * (n - len(row)))
            dens.append(tb[1])
    d = math.lcm(*dens)
    scale = [d // db for db in dens]
    acc = None
    for a in reversed(range(0, len(cs), s)):
        count = n - a * w  # coefficients that still reach x^(n-1)
        ca = list(map(operator.mul, cs[a:a + s], scale))
        block = [sum(map(operator.mul, ca, col))
                 for col in itertools.islice(zip(*rows), count)]
        if acc is None:
            acc = _normal(block, dc * d, p)
            continue
        # acc <- block + y^s acc, with tb = t^s
        px, pd = mul(acc, tb, count - s * w, p)
        den = math.lcm(dc * d, pd)
        xs = [x * (den // (dc * d)) for x in block]
        f = den // pd
        for i, x in enumerate(px, s * w):
            xs[i] += f * x
        acc = _normal(xs, den, p)
    return acc
