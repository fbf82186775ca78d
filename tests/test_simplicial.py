"""f/h transforms, Dehn-Sommerville residuals, and the proof-chain replay."""

from __future__ import annotations

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

from biriordan.errors import CheckFailedError, PrecisionError
from biriordan.field import PrimeField
from biriordan.series import LaurentSeries
from biriordan.simplicial import (
    FVector,
    HVector,
    ProofTrace,
    _transform,
    binomial,
    cross_polytope,
    dehn_sommerville_residuals,
    dehn_sommerville_residuals_matrix,
    f_to_h,
    h_to_f,
    is_palindromic,
    simplex_boundary,
    solid_simplex,
    verify_theorem_chain,
)
from conftest import make_rng


def _random_f(rng, d: int) -> FVector:
    entries = [Fraction(1)]
    entries += [Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                for _ in range(d + 1)]
    return FVector(d, tuple(entries))


def _random_palindromic_h(rng, d: int) -> HVector:
    half = [Fraction(rng.randint(-9, 9)) for _ in range((d + 3) // 2)]
    full = half + list(reversed(half[: (d + 2) // 2]))
    return HVector(d, tuple(full))


# -- vectors -----------------------------------------------------------------------


def test_fvector_validation():
    with pytest.raises(ValueError):
        FVector(2, (1, 2, 3))
    with pytest.raises(ValueError):
        FVector(-2, ())
    with pytest.warns(UserWarning):
        FVector(0, (2, 1))


def test_vector_entries_are_exact_and_in_one_field():
    with pytest.raises(TypeError, match="float"):
        f_to_h(FVector(2, (1, 6.5, 12, 8)))
    with pytest.raises(TypeError, match="Decimal"):
        HVector(0, (1, Decimal(1)))
    with pytest.raises(TypeError, match="str"):
        FVector(0, (1, "1"))
    gf7, gf11 = PrimeField(7), PrimeField(11)
    for entries in ((gf7(1), gf11(1)), (1, gf7(1)), (gf7(1), Fraction(1, 2))):
        with pytest.raises(TypeError, match="more than one field"):
            HVector(0, entries)
    assert FVector(0, (gf7(1), gf7(9))).f == (gf7(1), gf7(2))
    fv = FVector(1, (1, Fraction(3, 2), 2))
    assert fv.f == (1, Fraction(3, 2), 2)
    assert all(type(c) is Fraction for c in fv.f)


def test_a_rational_zero_lies_in_every_field():
    gf7, gf11 = PrimeField(7), PrimeField(11)
    # a series over GF(7) hands back Fraction(0) for a term it does not store
    psi = LaurentSeries.from_terms({0: gf7(1), 2: gf7(1)})
    assert type(psi[1]) is Fraction and psi[1] == 0
    hv = HVector(1, (psi[0], psi[1], psi[2]))
    assert hv.h == (gf7(1), 0, gf7(1))
    assert FVector(2, (gf7(1), 0, Fraction(0), gf7(5))).f[3] == gf7(5)
    with pytest.raises(TypeError, match="more than one field"):
        HVector(1, (gf7(1), gf11(0), gf7(1)))
    with pytest.raises(TypeError, match="more than one field"):
        HVector(1, (gf7(1), 0, Fraction(1, 2)))


def test_fvector_from_text():
    fv = FVector.from_text("1, 6, 12, 8")
    assert fv.d == 2
    assert fv.f == (1, 6, 12, 8)
    fv = FVector.from_text("1,3/2")
    assert fv.f == (1, Fraction(3, 2))


def test_series_embedding_exponents():
    fv = FVector(1, (1, 5, 6))
    s = fv.series()
    assert s[0] == 1 and s[1] == 5 and s[2] == 6
    hv = HVector(1, (1, 2, 1))
    assert hv.series()[0] == 1 and hv.series()[2] == 1


def test_binomial_matches_stdlib():
    for n in range(0, 12):
        for k in range(-2, n + 3):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == want
    assert binomial(-1, 0) == 0


# -- transforms --------------------------------------------------------------------


def test_octahedron_h_vector():
    hv = f_to_h(FVector(2, (1, 6, 12, 8)))
    assert hv.h == (1, 3, 3, 1)


def test_solid_simplex_h_vector():
    assert f_to_h(FVector(2, (1, 3, 3, 1))).h == (1, 0, 0, 0)


def test_boundary_simplex_h_vector():
    assert f_to_h(FVector(2, (1, 4, 6, 4))).h == (1, 1, 1, 1)


def test_transforms_round_trip():
    rng = make_rng(29)
    for _ in range(20):
        d = rng.randint(-1, 6)
        fv = _random_f(rng, d)
        assert h_to_f(f_to_h(fv)).f == fv.f
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            d = rng.randint(-1, 6)
            hv = _random_palindromic_h(rng, d)
            assert f_to_h(h_to_f(hv)).h == hv.h


def test_family_values():
    assert simplex_boundary(2).f == (1, 4, 6, 4)
    assert cross_polytope(2).f == (1, 6, 12, 8)
    assert solid_simplex(2).f == (1, 3, 3, 1)
    assert simplex_boundary(0).f == (1, 2)
    assert cross_polytope(-1).f == (1,)


def test_is_palindromic():
    assert is_palindromic(HVector(2, (1, 3, 3, 1)))
    assert not is_palindromic(HVector(2, (1, 0, 3, 1)))
    assert is_palindromic(HVector(-1, (1,)))


# -- residuals ---------------------------------------------------------------------


def test_solid_two_simplex_residuals():
    fv = FVector(2, (1, 3, 3, 1))
    want = (-1, -3, -3, 0)
    assert dehn_sommerville_residuals(fv) == want
    assert dehn_sommerville_residuals_matrix(fv) == want


def test_families_have_zero_residuals():
    for d in range(-1, 9):
        for fv in (simplex_boundary(d), cross_polytope(d)):
            assert all(r == 0 for r in dehn_sommerville_residuals(fv)), (d, fv.f)


def test_residual_routes_agree_on_random_vectors():
    rng = make_rng(37)
    for _ in range(30):
        fv = _random_f(rng, rng.randint(-1, 6))
        assert dehn_sommerville_residuals(fv) == \
            dehn_sommerville_residuals_matrix(fv)


def test_palindromic_iff_zero_residuals():
    rng = make_rng(43)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            d = rng.randint(0, 6)
            hv = _random_palindromic_h(rng, d)
            fv = h_to_f(hv)
            assert all(r == 0 for r in dehn_sommerville_residuals(fv))
            bumped = list(hv.h)
            bumped[0] += 1  # h_0 != h_{d+1} now
            broken = h_to_f(HVector(d, tuple(bumped)))
            assert any(r != 0 for r in dehn_sommerville_residuals(broken))


def test_degenerate_dimension():
    fv = FVector(-1, (1,))
    assert f_to_h(fv).h == (1,)
    assert dehn_sommerville_residuals(fv) == (0,)


# -- proof chain -------------------------------------------------------------------


def test_chain_passes_for_small_dimensions():
    for d in range(0, 5):
        trace = verify_theorem_chain(d)
        assert isinstance(trace, ProofTrace)
        assert [s.name for s in trace.steps] == [
            "reversal window",
            "collapsed product",
            "inverse transform",
            "final matrix",
            "family actions",
        ]


def test_chain_rejects_out_of_range_dimension():
    with pytest.raises(ValueError):
        verify_theorem_chain(-1)
    with pytest.raises(ValueError):
        verify_theorem_chain(63)


def test_chain_trace_serializes():
    trace = verify_theorem_chain(0)
    d = trace.as_dict()
    assert d["d"] == 0
    assert len(d["steps"]) == 5
    assert all(set(s) == {"name", "detail"} for s in d["steps"])


def test_chain_needs_enough_precision():
    # at very low working precision the 10x10 window checks cannot even be
    # extracted; the chain must fail loudly instead of passing vacuously
    with pytest.raises((CheckFailedError, PrecisionError)):
        verify_theorem_chain(4, precision=2)


def test_transform_matrices_are_built_once():
    assert _transform("1-x", 5, 9) is _transform("1-x", 5, 9)
    assert _transform("1-x", 5, 9) is not _transform("1+x", 5, 9)
