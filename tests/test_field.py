"""Scalar parsing/formatting and the auxiliary prime field."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from biriordan.errors import ParseError
from biriordan.field import PrimeField, PrimeFieldElement, format_scalar, parse_scalar


def test_parse_scalar_integer_and_fraction():
    assert parse_scalar("5") == Fraction(5)
    assert parse_scalar("-3") == Fraction(-3)
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar(" -6/4 ") == Fraction(-3, 2)


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scalar("x")
    with pytest.raises(ParseError):
        parse_scalar("1/0")
    with pytest.raises(ParseError):
        parse_scalar("1.5")


def test_format_scalar_canonical():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(8, 4)) == "2"
    assert format_scalar(Fraction(-1, 2)) == "-1/2"


def test_format_parse_round_trip():
    for text in ["0", "7", "-7", "22/7", "-22/7"]:
        assert format_scalar(parse_scalar(text)) == text


def test_prime_field_arithmetic():
    gf7 = PrimeField(7)
    a, b = gf7(3), gf7(5)
    assert a + b == gf7(1)
    assert a * b == gf7(1)
    assert -a == gf7(4)
    assert a - b == gf7(5)
    assert 1 / a == gf7(5)
    assert (1 / a) * a == gf7(1)


def test_prime_field_mixes_with_int():
    gf5 = PrimeField(5)
    assert gf5(2) + 4 == gf5(1)
    assert 3 * gf5(4) == gf5(2)
    assert bool(gf5(0)) is False
    assert bool(gf5(3)) is True


def test_prime_field_errors():
    with pytest.raises(ValueError):
        PrimeField(6)
    gf5, gf7 = PrimeField(5), PrimeField(7)
    with pytest.raises(ValueError):
        gf5(1) + gf7(1)
    with pytest.raises(ZeroDivisionError):
        1 / gf5(0)


def test_prime_field_element_hashable():
    gf7 = PrimeField(7)
    assert len({gf7(1), gf7(8), gf7(2)}) == 2
    assert isinstance(gf7(3), PrimeFieldElement)


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_field_agrees_with_trial_division():
    accepted = []
    for n in range(-3, 3000):
        try:
            PrimeField(n)
            accepted.append(n)
        except ValueError:
            pass
    assert accepted == [n for n in range(-3, 3000) if _trial_division(n)]


def test_prime_field_decides_large_moduli_quickly():
    # 561 is a Carmichael number and 2047 a strong pseudoprime to base 2
    for p, prime in ((2**61 - 1, True), (2**31 - 1, True), (561, False), (2047, False)):
        start = time.perf_counter()
        if prime:
            assert PrimeField(p).p == p
        else:
            with pytest.raises(ValueError, match="is not prime"):
                PrimeField(p)
        assert time.perf_counter() - start < 1.0


def test_prime_field_refuses_beyond_the_certified_bound():
    # the bound is a strong pseudoprime to all 13 bases; the first prime
    # above it passes them too, yet the test no longer proves it prime
    bound = 3_317_044_064_679_887_385_961_981
    for p in (bound, bound + 142):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not certified"):
            PrimeField(p)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(bound + 1)


def test_prime_field_modulus_is_an_int():
    for p in (7.0, Fraction(7), "7"):
        with pytest.raises(TypeError, match=type(p).__name__):
            PrimeField(p)
