"""Shared test helpers: seeded random series and brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from biriordan.series import LaurentSeries, Side


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_rational(rng: random.Random, allow_zero: bool = True) -> Fraction:
    p = rng.randint(-6, 6)
    if not allow_zero and p == 0:
        p = 1
    return Fraction(p, rng.randint(1, 4))


def random_truncated(rng: random.Random, side: Side, order: int,
                     count: int = 12) -> LaurentSeries:
    """An inexact series with the given side and exact order: the coefficient
    at the order is nonzero and `count` coefficients are known from it."""
    if side is Side.BELOW:
        exps = range(order, order + count)
        lo, hi = order, order + count - 1
    else:
        exps = range(order - count + 1, order + 1)
        lo, hi = order - count + 1, order
    coeffs = {e: random_rational(rng) for e in exps}
    coeffs[order] = random_rational(rng, allow_zero=False)
    return LaurentSeries.truncated(coeffs, side, lo, hi)


def random_polynomial(rng: random.Random, lo: int, hi: int) -> LaurentSeries:
    """An exact series supported somewhere inside [lo, hi] (possibly zero)."""
    coeffs = {e: random_rational(rng) for e in range(lo, hi + 1)}
    return LaurentSeries.from_terms(coeffs)


def convolve_dicts(a: dict, b: dict) -> dict:
    """Brute-force product of finitely supported coefficient dicts over Q or
    GF(p) (a sum starts from the int 0, which both fields take)."""
    out = {}
    for ea, ca in a.items():
        if not ca:
            continue
        for eb, cb in b.items():
            if cb:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}
