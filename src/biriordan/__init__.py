"""Exact arithmetic for bilateral formal Laurent series, the bi-infinite
Riordan matrices they generate, and the Dehn-Sommerville checks built on top.
"""

from .errors import (
    CheckFailedError,
    ComputationError,
    CompositionUndefinedError,
    GuardViolationError,
    NotInvertibleError,
    OrderIndeterminateError,
    ParseError,
    PrecisionError,
    SideIndeterminateError,
    SideMismatchError,
    UndefinedProductError,
    ZeroSeriesError,
)
from .field import PrimeField, PrimeFieldElement, format_scalar, parse_scalar
from .series import (
    DEFAULT_PRECISION,
    LaurentSeries,
    Side,
    add,
    compose,
    compositional_inverse,
    eq_to_precision,
    format_series,
    monomial,
    mul,
    neg,
    parse,
    power,
    recip,
    substitute_reciprocal,
)
from .riordan import (
    EchelonClass,
    RiordanMatrix,
    apply,
    classify,
    format_class_set,
    identity,
    inverse,
    j_conjugate,
    j_matrix,
    lagrange,
    matmul,
    product_cell,
    riordan,
    toeplitz,
)
from .simplicial import (
    FVector,
    HVector,
    ProofStep,
    ProofTrace,
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

__version__ = "0.1.0"

# window and its names load on first use (PEP 562): only blocks and --trace need them
_WINDOW_NAMES = ("MatrixWindow VectorWindow apply_guard extract oracle_apply oracle_matmul "
                 "product_guard render vector_from_series window_from_json").split()


def __getattr__(name):
    if name not in ("window", *_WINDOW_NAMES):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    window = importlib.import_module(".window", __name__)
    return window if name == "window" else getattr(window, name)


__all__ = [
    "CheckFailedError",
    "ComputationError",
    "CompositionUndefinedError",
    "DEFAULT_PRECISION",
    "EchelonClass",
    "FVector",
    "GuardViolationError",
    "HVector",
    "LaurentSeries",
    "MatrixWindow",
    "NotInvertibleError",
    "OrderIndeterminateError",
    "ParseError",
    "PrecisionError",
    "PrimeField",
    "PrimeFieldElement",
    "ProofStep",
    "ProofTrace",
    "RiordanMatrix",
    "Side",
    "SideIndeterminateError",
    "SideMismatchError",
    "UndefinedProductError",
    "VectorWindow",
    "ZeroSeriesError",
    "add",
    "apply",
    "apply_guard",
    "binomial",
    "classify",
    "compose",
    "compositional_inverse",
    "cross_polytope",
    "dehn_sommerville_residuals",
    "dehn_sommerville_residuals_matrix",
    "eq_to_precision",
    "extract",
    "f_to_h",
    "format_class_set",
    "format_scalar",
    "format_series",
    "h_to_f",
    "identity",
    "inverse",
    "is_palindromic",
    "j_conjugate",
    "j_matrix",
    "lagrange",
    "matmul",
    "monomial",
    "mul",
    "neg",
    "oracle_apply",
    "oracle_matmul",
    "parse",
    "parse_scalar",
    "power",
    "product_cell",
    "product_guard",
    "recip",
    "render",
    "riordan",
    "simplex_boundary",
    "solid_simplex",
    "substitute_reciprocal",
    "toeplitz",
    "vector_from_series",
    "verify_theorem_chain",
    "window_from_json",
]
