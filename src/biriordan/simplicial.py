"""Face-count vector transforms and the Dehn-Sommerville residual checks.

An f-vector (f_{-1}, f_0, ..., f_d) is embedded as the polynomial
f_{-1} + f_0 x + ... + f_d x^{d+1}; the h-vector is the coefficient list of
(1-x)^{d+1} f(x/(1-x)), obtained here by applying the matrix
R((1-x)^{d+1}, x/(1-x)) to the embedded polynomial.  The residuals of the
Dehn-Sommerville identities are computed twice, by direct signed-binomial
summation and through the matrix R((-1)^{d+1}, -(1+x)); both routes must
agree, and verify_theorem_chain replays the matrix-identity argument that
connects palindromic h-vectors to vanishing residuals.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction

from .errors import CheckFailedError
from .field import PrimeFieldElement, field_of, parse_scalar
from .record import Record
from .riordan import RiordanMatrix, apply, identity, matmul, riordan
from .series import (
    LaurentSeries,
    Side,
    add,
    compose,
    eq_to_precision,
    monomial,
    mul,
    neg,
    power,
    recip,
)


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def _entries(d: int, values, kind: str) -> tuple:
    """The d + 2 entries of an f- or h-vector, integers made Fractions; all
    in one field (field.field_of)."""
    if d < -1:
        raise ValueError("dimension must be at least -1")
    values = tuple(values)
    field_of(values, f"the {kind}-vector entries")
    if len(values) != d + 2:
        raise ValueError(f"an {kind}-vector for d={d} needs {d + 2} entries")
    return tuple(Fraction(c) if isinstance(c, int) else c for c in values)


class FVector(Record):
    """Face counts (f_{-1}, f_0, ..., f_d); entry 0 counts the empty face."""

    __slots__ = ("d", "f")

    def __post_init__(self):
        entries = _entries(self.d, self.f, "f")
        object.__setattr__(self, "f", entries)
        if entries and entries[0] != 1:
            warnings.warn("leading entry f_{-1} is expected to be 1 (the empty face)")

    @classmethod
    def from_text(cls, text: str) -> "FVector":
        parts = [p.strip() for p in text.split(",")]
        return cls(len(parts) - 2, tuple(parse_scalar(p) for p in parts))

    def series(self) -> LaurentSeries:
        return LaurentSeries.from_terms({t: c for t, c in enumerate(self.f)})


class HVector(Record):
    __slots__ = ("d", "h")

    def __post_init__(self):
        object.__setattr__(self, "h", _entries(self.d, self.h, "h"))

    def series(self) -> LaurentSeries:
        return LaurentSeries.from_terms({t: c for t, c in enumerate(self.h)})


# the constants the transforms and the chain are built from, as their terms;
# built directly, so that a ds process never loads the parser
_CONSTANTS = {"1-x": {0: 1, 1: -1}, "1+x": {0: 1, 1: 1}, "x": {1: 1}, "x-1": {0: -1, 1: 1}}


def _over(text: str, p: int) -> LaurentSeries:
    """The constant text of _CONSTANTS over GF(p) (Q when p = 0)."""
    return LaurentSeries.from_terms(
        {e: PrimeFieldElement(c, p) if p else c for e, c in _CONSTANTS[text].items()})


def _zero(p: int):
    # the 0 of Q (p = 0) or of GF(p)
    return PrimeFieldElement(0, p) if p else Fraction(0)


@functools.cache
def _transform(text: str, d: int, precision: int, p: int = 0) -> RiordanMatrix:
    """R(b^{d+1}, x/b) for b = _over(text, p) over Q (p = 0) or GF(p): with b =
    1-x it sends the embedded f-polynomial to h, with b = 1+x it is the
    inverse transform.  Built once per argument tuple; matrices are
    immutable, so callers share them, and the powers their columns walk."""
    b = _over(text, p)
    omega = mul(_over("x", p), recip(b, Side.BELOW, precision))
    return riordan(power(b, d + 1), omega, precision=precision)


@functools.cache
def _reversal_matrix(d: int) -> RiordanMatrix:
    """R(x^{d+1}, 1/x): reverses coefficient lists of length d+2."""
    return riordan(monomial(1, d + 1), monomial(1, -1))


@functools.cache
def _final_matrix(d: int, p: int) -> RiordanMatrix:
    """R((-1)^{d+1}, -(1+x)) over Q (p = 0) or GF(p): the signed-binomial
    matrix the chain ends in."""
    return riordan(monomial(_sign(d + 1) + _zero(p)), neg(_over("1+x", p)))


def f_to_h(fv: FVector) -> HVector:
    psi = apply(_transform("1-x", fv.d, fv.d + 4, field_of(fv.f)), fv.series())
    return HVector(fv.d, tuple(psi[t] for t in range(fv.d + 2)))


def h_to_f(hv: HVector) -> FVector:
    psi = apply(_transform("1+x", hv.d, hv.d + 4, field_of(hv.h)), hv.series())
    return FVector(hv.d, tuple(psi[t] for t in range(hv.d + 2)))


def is_palindromic(hv: HVector) -> bool:
    return hv.h == tuple(reversed(hv.h))


def dehn_sommerville_residuals(fv: FVector) -> tuple:
    """Signed-binomial sums minus their claimed values, indexed k = -1..d;
    the identities hold exactly when every entry is zero."""
    zero = _zero(field_of(fv.f))
    f = [c or zero for c in fv.f]  # a rational zero read in the entries' field
    out = []
    for k in range(-1, fv.d + 1):
        s = zero
        for j in range(k, fv.d + 1):
            s += _sign(j) * binomial(j + 1, k + 1) * f[j + 1]
        out.append(s - _sign(fv.d) * f[k + 1])
    return tuple(out)


def dehn_sommerville_residuals_matrix(fv: FVector) -> tuple:
    """The same residuals read off the matrix route: psi = R((-1)^{d+1},
    -(1+x)) f equals f exactly when the identities hold, and the residual for
    index k is (-1)^d (psi_{k+1} - f_k)."""
    p = field_of(fv.f)
    zero = _zero(p)
    psi = apply(_final_matrix(fv.d, p), fv.series())
    sign_d = _sign(fv.d)
    return tuple(
        sign_d * ((psi[k + 1] or zero) - (fv.f[k + 1] or zero))
        for k in range(-1, fv.d + 1)
    )


# -- worked families -------------------------------------------------------------


def simplex_boundary(d: int) -> FVector:
    """f_j = C(d+2, j+1): boundary complex of the (d+1)-simplex."""
    return FVector(d, tuple(binomial(d + 2, t) for t in range(d + 2)))


def cross_polytope(d: int) -> FVector:
    """f_j = 2^{j+1} C(d+1, j+1): boundary complex of the cross-polytope."""
    return FVector(d, tuple(2 ** t * binomial(d + 1, t) for t in range(d + 2)))


def solid_simplex(d: int) -> FVector:
    """f_j = C(d+1, j+1): the full d-simplex, the standard negative control."""
    return FVector(d, tuple(binomial(d + 1, t) for t in range(d + 2)))


# -- the matrix-identity proof chain ----------------------------------------------


class ProofStep(Record):
    __slots__ = ("name", "detail")


class ProofTrace(Record):
    __slots__ = ("d", "steps")

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "steps": [{"name": s.name, "detail": s.detail} for s in self.steps],
        }


def _require(ok: bool, step: str, message: str):
    if not ok:
        raise CheckFailedError(f"{step}: {message}")


def _require_entries(w, indices: range, want, step: str):
    """Every entry (i, j) of window w over indices x indices equals want(i, j)."""
    for i in indices:
        for j in indices:
            _require(w.entry(i, j) == want(i, j), step,
                     f"entry ({i}, {j}) is {w.entry(i, j)}, expected {want(i, j)}")


def _require_oracle(m: RiordanMatrix, n: RiordanMatrix, block: tuple, w, step: str):
    """The guarded window oracle reproduces w, the block of the product m n."""
    from .window import extract, oracle_matmul, product_guard
    guard = product_guard(m, n, block, block)
    oracle = oracle_matmul(extract(m, block, guard), extract(n, guard, block), guard)
    _require(oracle == w, step, "window oracle disagrees with the implicit product")


def verify_theorem_chain(d: int, precision: int | None = None) -> ProofTrace:
    """Replay the matrix argument connecting h-palindromicity to the
    residual identities, checking every intermediate object.

    Steps: the reversal matrix has the anti-diagonal window; multiplying it
    into the f-to-h transform collapses to R((x-1)^{d+1}, 1/(x-1)); the
    inverse transform really inverts; the closed product equals the
    signed-binomial matrix R((-1)^{d+1}, -(1+x)); and that matrix fixes
    exactly the f-vectors with palindromic h (checked on worked families).
    Raises CheckFailedError with a diagnostic on any mismatch.
    """
    from .window import extract, render
    if not 0 <= d <= 62:
        raise ValueError("the proof chain needs 0 <= d <= 62")
    p = precision if precision is not None else max(32, 2 * (d + 2))
    steps = []

    m_pal = _reversal_matrix(d)
    m_fh = _transform("1-x", d, p)
    m_hf = _transform("1+x", d, p)
    block = (0, max(9, d + 1))

    # 1. the reversal matrix is the anti-diagonal on indices 0..d+1
    w_pal = extract(m_pal, (0, d + 1), (0, d + 1))
    _require_entries(w_pal, range(0, d + 2),
                     lambda i, j: 1 if i + j == d + 1 else 0, "reversal window")
    steps.append(ProofStep(
        "reversal window",
        "R(x^{d+1}, 1/x) restricted to 0..d+1 is the anti-diagonal:\n"
        + render(w_pal),
    ))

    # 2. reversal times f-to-h collapses to R((x-1)^{d+1}, 1/(x-1))
    prod = matmul(m_pal, m_fh)
    x_minus = _over("x-1", 0)
    direct = riordan(power(x_minus, d + 1),
                     recip(x_minus, Side.ABOVE, p), precision=p)
    _require(eq_to_precision(prod.alpha, direct.alpha), "collapsed product",
             "alpha does not match (x-1)^{d+1}")
    _require(eq_to_precision(prod.omega, direct.omega), "collapsed product",
             "omega does not match 1/(x-1)")
    w_prod = extract(prod, block, block)
    _require(w_prod == extract(direct, block, block), "collapsed product",
             "window differs from the direct construction")
    _require_oracle(m_pal, m_fh, block, w_prod, "collapsed product")
    steps.append(ProofStep(
        "collapsed product",
        "R(x^{d+1}, 1/x) R((1-x)^{d+1}, x/(1-x)) = R((x-1)^{d+1}, 1/(x-1)), "
        f"window-checked on rows/cols {block[0]}..{block[1]}:\n" + render(w_prod),
    ))

    # 3. the inverse transform inverts: R((1+x)^{d+1}, x/(1+x)) undoes f-to-h
    prod2 = matmul(m_hf, m_fh)
    _require(eq_to_precision(prod2.alpha, LaurentSeries.one()),
             "inverse transform", "alpha of the product is not 1")
    _require(eq_to_precision(prod2.omega, _over("x", 0)),
             "inverse transform", "omega of the product is not x")
    w_ident = extract(prod2, block, block)
    _require(w_ident == extract(identity(), block, block),
             "inverse transform", "product window is not the identity block")
    _require_oracle(m_hf, m_fh, block, w_ident, "inverse transform")
    steps.append(ProofStep(
        "inverse transform",
        "R((1+x)^{d+1}, x/(1+x)) R((1-x)^{d+1}, x/(1-x)) = I on the window.",
    ))

    # 4. the chain closes in R((-1)^{d+1}, -(1+x)); the product rule applied
    # to R((1+x)^{d+1}, x/(1+x)) R((x-1)^{d+1}, 1/(x-1)) gives exactly these
    # components, and the window is the signed Pascal triangle
    final = _final_matrix(d, 0)
    omega_hf = m_hf.omega
    alpha_part = mul(m_hf.alpha, compose(power(x_minus, d + 1), omega_hf, p))
    _require(eq_to_precision(alpha_part, final.alpha), "final matrix",
             "alpha from the product rule is not (-1)^{d+1}")
    shifted = add(omega_hf, neg(LaurentSeries.one()))
    _require(eq_to_precision(mul(final.omega, shifted), LaurentSeries.one()),
             "final matrix",
             "-(1+x) is not the reciprocal image of x/(1+x) - 1")
    _require_entries(extract(final, block, block), range(block[0], block[1] + 1),
                     lambda i, j: _sign(d + 1) * _sign(j) * binomial(j, i),
                     "final matrix")
    steps.append(ProofStep(
        "final matrix",
        "R((-1)^{d+1}, -(1+x)) carries the signed binomials "
        "(-1)^{d+1} (-1)^j C(j, i); window on 0.." + str(d + 2) + ":\n"
        + render(extract(final, (0, d + 2), (0, d + 2))),
    ))

    # 5. action checks on worked families: palindromic h iff fixed f
    cases = [
        ("simplex boundary", simplex_boundary(d), True),
        ("cross-polytope", cross_polytope(d), True),
        ("solid simplex", solid_simplex(d), False),
    ]
    lines = []
    for label, fv, expect_palindromic in cases:
        hv = f_to_h(fv)
        _require(h_to_f(hv).f == fv.f, "family actions",
                 f"{label}: h-to-f does not round-trip")
        reversed_h = apply(m_pal, hv.series())
        _require(reversed_h.coeffs == HVector(d, tuple(reversed(hv.h))).series().coeffs,
                 "family actions", f"{label}: reversal action is wrong")
        pal = is_palindromic(hv)
        _require(pal == expect_palindromic, "family actions",
                 f"{label}: expected palindromic={expect_palindromic}, got {pal}")
        psi = apply(final, fv.series())
        fixed = psi.coeffs == fv.series().coeffs
        _require(fixed == expect_palindromic, "family actions",
                 f"{label}: the final matrix should fix f iff h is palindromic")
        res_direct = dehn_sommerville_residuals(fv)
        res_matrix = dehn_sommerville_residuals_matrix(fv)
        _require(res_direct == res_matrix, "family actions",
                 f"{label}: residual routes disagree")
        zero = all(r == 0 for r in res_direct)
        _require(zero == expect_palindromic, "family actions",
                 f"{label}: residuals vanish iff h is palindromic")
        # the closed form agrees with composing the three chain steps
        chained = apply(m_hf, reversed_h)
        _require(all(chained[t] == psi[t] for t in range(d + 2)),
                 "family actions",
                 f"{label}: chain composition differs from the final matrix")
        lines.append(
            f"{label}: h={tuple(str(c) for c in hv.h)} "
            f"palindromic={pal} residuals zero={zero}"
        )
    steps.append(ProofStep("family actions", "\n".join(lines)))

    return ProofTrace(d, tuple(steps))
