"""Command-line frontend for series arithmetic, matrix windows and products,
and the Dehn-Sommerville checker.

Exit codes: 0 success, 1 mathematically undefined operation or a stdout
closed early, 2 parse or usage error, 3 Dehn-Sommerville residuals nonzero.
Inexact series are displayed truncated to exponents of magnitude below
--prec (the JSON output always carries the full computed window).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .errors import ComputationError
from .field import format_scalar
from .riordan import apply, classify, format_class_set, inverse, matmul, riordan
from .series import (
    DEFAULT_PRECISION,
    LaurentSeries,
    Side,
    compose,
    compositional_inverse,
    format_series,
    mul,
    parse,
    power,
    recip,
    substitute_reciprocal,
)
from .simplicial import (
    FVector,
    dehn_sommerville_residuals,
    f_to_h,
    is_palindromic,
    verify_theorem_chain,
)

_SIDES = {"below": Side.BELOW, "above": Side.ABOVE}
_SIDE_TAGS = {
    Side.BELOW: "bounded-below",
    Side.ABOVE: "bounded-above",
    Side.FINITE: "finite",
}
_MAX_SPAN = 64
# sizes above these exit 2 at once: a precision is the length of the dense
# vectors the kernels allocate, and the parser and the f-to-h transform grow
# faster than linearly in the length of an expression and of an f-vector
_MAX_PREC = 10_000
_MAX_EXPRESSION = 4096
_MAX_ENTRIES = 64
# CPython 3.10.7 and later convert an int of more than 4300 digits to text
# only after sys.set_int_max_str_digits; every int below 2^14284 has at most
# 4300 digits, so a rule on bits refuses the same results on every version
_MAX_PRINT_BITS = 14_284
# options whose value may start with "-" (an expression such as -1+x, a range
# such as -3..0, an f-vector); argparse would read such a value as an option
_SIGNED_VALUES = ("--expr", "--a", "--b", "--alpha", "--omega", "--chi",
                  "--beta", "--rows", "--cols", "--f")


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"precision must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("precision must be at least 1")
    if value > _MAX_PREC:
        raise argparse.ArgumentTypeError(f"precision must be at most {_MAX_PREC}")
    return value


def _expression(text: str) -> str:
    if len(text) > _MAX_EXPRESSION:
        raise argparse.ArgumentTypeError(
            f"expression longer than {_MAX_EXPRESSION} characters")
    return text


def _f_vector(text: str) -> str:
    if text.count(",") >= _MAX_ENTRIES:
        raise argparse.ArgumentTypeError(
            f"an f-vector has at most {_MAX_ENTRIES} entries")
    return text


def _index_range(text: str) -> tuple:
    """Parse an inclusive index range written LO..HI (at most 64 indices)."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like LO..HI, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if hi - lo + 1 > _MAX_SPAN:
        raise argparse.ArgumentTypeError(
            f"range {text!r} spans more than {_MAX_SPAN} indices")
    return lo, hi


def _attach_signed_values(argv: list) -> list:
    """argparse reads a value such as -1+x or -3..0 as an option, so attach
    a value starting with a single "-" to the expression or range option
    before it (--expr=-1+x, --cols=-3..0)."""
    out: list = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_VALUES and arg.startswith("-")
                and not arg.startswith("--") and arg != "-h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _check_printable(values) -> None:
    """Refuse (exit 2), before anything is printed, a rational among values
    too long to print."""
    for c in values:
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_PRINT_BITS:
            raise ValueError(f"a coefficient has more than {_MAX_PRINT_BITS} bits "
                             "in its numerator or denominator, too long to print")


def _display_text(chi: LaurentSeries, prec: int) -> str:
    """Canonical text, truncating an inexact window to |exponent| < prec; a
    bounded-above window is trimmed through the flip x -> 1/x."""
    flip = chi.side is Side.ABOVE
    below = substitute_reciprocal(chi) if flip else chi
    hi = min(below.hi, prec - 1)
    if not (chi.exact or hi < below.lo):
        trimmed = LaurentSeries.truncated(
            {e: c for e, c in below.coeffs.items() if e <= hi}, Side.BELOW, below.lo, hi)
        chi = substitute_reciprocal(trimmed) if flip else trimmed
    _check_printable(chi.coeffs.values())
    return format_series(chi)


def _print_series(chi: LaurentSeries, args) -> int:
    if args.format == "json":
        import json
        _check_printable(chi.coeffs.values())
        print(json.dumps(chi.to_json_dict()))
    else:
        print(_display_text(chi, args.prec))
        print(f"side: {_SIDE_TAGS[chi.side]}")
    return 0


def _series_args(p: argparse.ArgumentParser, formats: bool = True):
    p.add_argument("--side", choices=sorted(_SIDES), default="below",
                   help="side expressions and matrix columns expand on "
                        "(default below)")
    p.add_argument("--prec", type=_precision, default=DEFAULT_PRECISION,
                   help=f"known coefficients per expansion (default {DEFAULT_PRECISION})")
    if formats:
        p.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biriordan",
        description="Exact bilateral-series and Riordan-matrix calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    series_p = sub.add_parser("series", help="series arithmetic")
    series_sub = series_p.add_subparsers(dest="op", required=True)

    p = series_sub.add_parser("eval", help="parse and normalize an expression")
    p.add_argument("--expr", type=_expression, required=True)
    _series_args(p)

    p = series_sub.add_parser("mul", help="product of two series")
    p.add_argument("--a", type=_expression, required=True)
    p.add_argument("--b", type=_expression, required=True)
    _series_args(p)

    p = series_sub.add_parser("recip", help="multiplicative inverse")
    p.add_argument("--a", type=_expression, required=True)
    _series_args(p)

    p = series_sub.add_parser("pow", help="integer power")
    p.add_argument("--a", type=_expression, required=True)
    p.add_argument("--n", type=int, required=True)
    _series_args(p)

    p = series_sub.add_parser("compose", help="substitute omega into chi")
    p.add_argument("--chi", type=_expression, required=True)
    p.add_argument("--omega", type=_expression, required=True)
    p.add_argument("--other-side", choices=sorted(_SIDES),
                   help="side omega is expanded on (default: --side)")
    _series_args(p)

    p = series_sub.add_parser("invert", help="compositional inverse of omega", description=(
        "The compositional inverse of omega. --side is not read for a finite omega: the "
        "inverse takes no side, and inverts where omega has order +1 or -1, below first."))
    p.add_argument("--omega", type=_expression, required=True)
    _series_args(p)

    matrix_p = sub.add_parser("matrix", help="Riordan matrix operations")
    matrix_sub = matrix_p.add_subparsers(dest="op", required=True)

    def matrix_args(p, block=None, formats=True):
        """block: whether --rows/--cols are required; None leaves them out"""
        p.add_argument("--alpha", type=_expression, default="1",
                       help="multiplier series (default 1)")
        p.add_argument("--omega", type=_expression, required=True,
                       help="composition series (column generator)")
        if block is not None:
            p.add_argument("--rows", type=_index_range, required=block,
                           help="rows of the window (with --cols)")
            p.add_argument("--cols", type=_index_range, required=block,
                           help="columns of the window (with --rows)")
        _series_args(p, formats)

    p = matrix_sub.add_parser("window", help="entries on a finite block")
    matrix_args(p, block=True)

    p = matrix_sub.add_parser("classify", help="echelon classes of the matrix")
    matrix_args(p, formats=False)

    p = matrix_sub.add_parser("mul", help="product with a second matrix")
    p.add_argument("--beta", type=_expression, default="1",
                   help="multiplier series of the right factor (default 1)")
    p.add_argument("--chi", type=_expression, required=True,
                   help="composition series of the right factor")
    p.add_argument("--other-side", choices=sorted(_SIDES),
                   help="side the right factor is expanded on (default: --side)")
    matrix_args(p, block=False)

    p = matrix_sub.add_parser("inv", help="matrix inverse")
    matrix_args(p, block=False)

    p = matrix_sub.add_parser("apply", help="apply the matrix to a series")
    p.add_argument("--chi", type=_expression, required=True, help="series to act on")
    p.add_argument("--other-side", choices=sorted(_SIDES),
                   help="side chi is expanded on (default: --side)")
    matrix_args(p)

    ds_p = sub.add_parser(
        "ds", help="Dehn-Sommerville residual check of an f-vector")
    ds_p.add_argument("--f", type=_f_vector, required=True,
                      help='comma-separated rationals "f_-1,f_0,...,f_d"')
    ds_p.add_argument("--json", action="store_true")
    ds_p.add_argument("--trace", action="store_true",
                      help="include the matrix-identity proof trace")

    return parser


def _run_series(args) -> int:
    side = _SIDES[args.side]
    if args.op == "eval":
        return _print_series(parse(args.expr, side, args.prec), args)
    if args.op == "mul":
        a = parse(args.a, side, args.prec)
        b = parse(args.b, side, args.prec)
        return _print_series(mul(a, b), args)
    if args.op == "recip":
        a = parse(args.a, side, args.prec)
        return _print_series(recip(a, side, args.prec), args)
    if args.op == "pow":
        a = parse(args.a, side, args.prec)
        return _print_series(power(a, args.n, side, args.prec), args)
    if args.op == "compose":
        other = _SIDES[args.other_side] if args.other_side else side
        chi = parse(args.chi, side, args.prec)
        omega = parse(args.omega, other, args.prec)
        return _print_series(compose(chi, omega, args.prec, side), args)
    omega = parse(args.omega, side, args.prec)
    return _print_series(compositional_inverse(omega, args.prec), args)


def _block(m, args) -> str:
    """The block --rows x --cols of m, rendered in --format."""
    from .window import extract, render
    w = extract(m, args.rows, args.cols)
    _check_printable([c for row in w.entries for c in row])
    return render(w, args.format)


def _print_matrix(m, args) -> int:
    block = _block(m, args) if args.rows else None
    if args.format == "json":
        import json
        _check_printable([*m.alpha.coeffs.values(), *m.omega.coeffs.values()])
        payload = {
            "alpha": m.alpha.to_json_dict(),
            "omega": m.omega.to_json_dict(),
        }
        if block is not None:
            payload["window"] = json.loads(block)
        print(json.dumps(payload))
    else:
        lines = [f"alpha: {_display_text(m.alpha, args.prec)}",
                 f"omega: {_display_text(m.omega, args.prec)}"]
        if block is not None:
            lines.append(block)
        print("\n".join(lines))
    return 0


def _run_matrix(args) -> int:
    if args.op in ("mul", "inv") and (args.rows is None) != (args.cols is None):
        raise ValueError("--rows and --cols go together")
    side = _SIDES[args.side]
    alpha = parse(args.alpha, side, args.prec)
    omega = parse(args.omega, side, args.prec)
    m = riordan(alpha, omega, side, args.prec)
    if args.op == "window":
        print(_block(m, args))
        return 0
    if args.op == "classify":
        print(format_class_set(classify(m)))
        return 0
    if args.op == "mul":
        other = _SIDES[args.other_side] if args.other_side else side
        n = riordan(parse(args.beta, other, args.prec),
                    parse(args.chi, other, args.prec), other, args.prec)
        return _print_matrix(matmul(m, n), args)
    if args.op == "inv":
        return _print_matrix(inverse(m), args)
    other = _SIDES[args.other_side] if args.other_side else side
    chi = parse(args.chi, other, args.prec)
    return _print_series(apply(m, chi), args)


def _run_ds(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fv = FVector.from_text(args.f)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    hv = f_to_h(fv)
    residuals = dehn_sommerville_residuals(fv)
    palindromic = is_palindromic(hv)
    trace = verify_theorem_chain(fv.d) if args.trace else None
    _check_printable([*fv.f, *hv.h, *residuals])
    if args.json:
        import json
        payload = {
            "d": fv.d,
            "f": [format_scalar(c) for c in fv.f],
            "h": [format_scalar(c) for c in hv.h],
            "palindromic": palindromic,
            "residuals": [format_scalar(r) for r in residuals],
        }
        if trace is not None:
            payload["trace"] = trace.as_dict()
        print(json.dumps(payload))
    else:
        print(f"d: {fv.d}")
        print("f: " + ", ".join(format_scalar(c) for c in fv.f))
        print("h: " + ", ".join(format_scalar(c) for c in hv.h))
        print("palindromic: " + ("yes" if palindromic else "no"))
        print("residuals: " + ", ".join(format_scalar(r) for r in residuals))
        if trace is not None:
            for step in trace.steps:
                print(f"== {step.name}")
                print(step.detail)
    return 0 if all(r == 0 for r in residuals) else 3


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "series":
            return _run_series(args)
        if args.command == "matrix":
            return _run_matrix(args)
        return _run_ds(args)
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # a reader closed stdout (`| head`); the flush at exit must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
