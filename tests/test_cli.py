"""CLI behaviour: output shapes, side/precision flags, exit-code contract."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import biriordan
from biriordan import dense
from biriordan.cli import main
from biriordan.riordan import riordan
from biriordan.series import Side, parse
from biriordan.window import extract
from test_dense_kernels import ref_reversion


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- series ------------------------------------------------------------------------


def test_series_eval_text(capsys):
    code, out, _ = run(capsys, "series", "eval", "--expr", "1/(1-x)", "--prec", "4")
    assert code == 0
    assert out == "1 + x + x^2 + x^3 + O(x^4)\nside: bounded-below\n"


def test_series_eval_above(capsys):
    code, out, _ = run(capsys, "series", "eval", "--expr", "1/(1-x)",
                       "--side", "above", "--prec", "3")
    assert code == 0
    assert out.splitlines()[1] == "side: bounded-above"


def test_series_eval_json_uncapped(capsys):
    code, out, _ = run(capsys, "series", "eval", "--expr", "1/(1-x)",
                       "--prec", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "below"
    assert payload["exact"] is False
    assert (payload["lo"], payload["hi"]) == (0, 5)
    assert [e for e, _ in payload["terms"]] == list(range(6))


def test_series_mul(capsys):
    code, out, _ = run(capsys, "series", "mul", "--a", "1-x", "--b", "1+x")
    assert code == 0
    assert out.startswith("1 - x^2\n")
    assert "side: finite" in out


def test_series_recip_respects_side(capsys):
    code, out, _ = run(capsys, "series", "recip", "--a", "x-1",
                       "--side", "above", "--prec", "4")
    assert code == 0
    assert out == "x^-1 + x^-2 + x^-3 + O(x^-4)\nside: bounded-above\n"


def test_series_pow(capsys):
    code, out, _ = run(capsys, "series", "pow", "--a", "1+x", "--n", "-2",
                       "--prec", "4")
    assert code == 0
    assert out.splitlines()[0] == "1 - 2x + 3x^2 - 4x^3 + O(x^4)"


def test_series_compose_documented_example(capsys):
    code, out, _ = run(capsys, "series", "compose", "--chi", "1/(1-x)",
                       "--omega", "x^-1", "--side", "below", "--prec", "5")
    assert code == 0
    assert out == ("1 + x^-1 + x^-2 + x^-3 + x^-4 + O(x^-5)\n"
                   "side: bounded-above\n")


def test_series_compose_side_picks_expansion(capsys):
    # omega is an exact polynomial, so --side fixes how its negative power
    # is realized in the substitution
    code, out, _ = run(capsys, "series", "compose", "--chi", "x^-1",
                       "--omega", "x-1", "--side", "above", "--prec", "4")
    assert code == 0
    assert out.splitlines()[0] == "x^-1 + x^-2 + x^-3 + O(x^-4)"


def test_series_compose_other_side_parses_inexact_omega(capsys):
    # --other-side makes the omega expansion bounded above; substituting a
    # bounded-above inner series of order -1 into a bounded-below outer
    # series yields a bounded-above result: 1/(1-1/(x-1)) = (x-1)/(x-2)
    code, out, _ = run(capsys, "series", "compose", "--chi", "1/(1-x)",
                       "--omega", "1/(x-1)", "--other-side", "above",
                       "--prec", "6")
    assert code == 0
    assert out == ("1 + x^-1 + 2x^-2 + 4x^-3 + 8x^-4 + 16x^-5 + O(x^-6)\n"
                   "side: bounded-above\n")


def test_series_invert_documented_example(capsys):
    code, out, _ = run(capsys, "series", "invert", "--omega", "x/(1-x)",
                       "--prec", "5")
    assert code == 0
    assert out.splitlines()[0] == "x - x^2 + x^3 - x^4 + O(x^5)"


def test_series_compose_order_zero_exits_one(capsys):
    code, out, err = run(capsys, "series", "compose", "--chi", "1/(1-x)",
                         "--omega", "2+x")
    assert code == 1
    assert out == ""
    assert err.startswith("error: composition undefined")
    assert "order" in err


def test_series_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "series", "eval", "--expr", "1++x")
    assert code == 2
    assert err.startswith("error:")
    assert "position" in err


def test_series_unicode_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "series", "eval", "--expr", "2²x")
    assert (code, out) == (2, "")
    assert err == "error: unexpected '²' (at position 1)\n"


def test_series_recip_zero_exits_one(capsys):
    code, _, err = run(capsys, "series", "recip", "--a", "0")
    assert code == 1
    assert "zero" in err


# -- matrix ------------------------------------------------------------------------


def test_matrix_window_text(capsys):
    code, out, _ = run(capsys, "matrix", "window", "--alpha", "1+x",
                       "--omega", "x", "--rows", "0..2", "--cols", "0..2")
    assert code == 0
    assert out == "[1] 0  0\n 1  1  0\n 0  1  1\n"


def test_matrix_window_json(capsys):
    code, out, _ = run(capsys, "matrix", "window", "--omega", "x^2",
                       "--rows", "0..3", "--cols", "0..1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["row_lo"] == 0
    assert payload["entries"][0][0] == "1"
    assert payload["entries"][2][1] == "1"


def test_matrix_classify_documented_example(capsys):
    code, out, _ = run(capsys, "matrix", "classify", "--omega", "x/(1-x)")
    assert code == 0
    assert out == "L+\n"


def test_matrix_classify_above(capsys):
    code, out, _ = run(capsys, "matrix", "classify", "--omega", "x^2/(x-1)",
                       "--side", "above")
    assert code == 0
    assert out == "U+\n"


def test_matrix_mul_documented_example(capsys):
    code, out, _ = run(capsys, "matrix", "mul", "--omega", "x^2",
                       "--chi", "x^3")
    assert code == 0
    assert out == "alpha: 1\nomega: x^6\n"


def test_matrix_mul_undefined_cell_exits_one(capsys):
    code, _, err = run(capsys, "matrix", "mul", "--omega", "x/(1-x)",
                       "--chi", "x^2/(x-1)", "--other-side", "above")
    assert code == 1
    assert err == "error: product not defined for echelon classes L+ x U+\n"


def test_matrix_mul_with_window(capsys):
    code, out, _ = run(capsys, "matrix", "mul", "--alpha", "1", "--omega", "x",
                       "--beta", "1+x", "--chi", "x",
                       "--rows", "0..1", "--cols", "0..1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha: 1 + x"
    assert lines[1] == "omega: x"
    assert lines[2] == "[1] 0"


def test_matrix_inv(capsys):
    code, out, _ = run(capsys, "matrix", "inv", "--alpha", "1-x",
                       "--omega", "x", "--prec", "4")
    assert code == 0
    assert out.splitlines()[0] == "alpha: 1 + x + x^2 + x^3 + O(x^4)"
    assert out.splitlines()[1] == "omega: x"


def test_matrix_inv_json(capsys):
    code, out, _ = run(capsys, "matrix", "inv", "--omega", "x/(1-x)",
                       "--prec", "6", "--format", "json",
                       "--rows", "0..2", "--cols", "0..2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"alpha", "omega", "window"}
    assert payload["window"]["entries"][0][0] == "1"


def test_matrix_inv_not_invertible_exits_one(capsys):
    code, _, err = run(capsys, "matrix", "inv", "--omega", "x^2")
    assert code == 1
    assert "order" in err


def test_matrix_apply(capsys):
    code, out, _ = run(capsys, "matrix", "apply", "--alpha", "1-x",
                       "--omega", "x", "--chi", "1/(1-x)", "--prec", "6")
    assert code == 0
    assert out.splitlines()[0] == "1 + O(x^6)"


def test_matrix_negative_range_needs_no_equals_sign(capsys):
    spaced = run(capsys, "matrix", "window", "--omega", "x",
                 "--rows", "-2..0", "--cols", "-3..0")
    joined = run(capsys, "matrix", "window", "--omega", "x",
                 "--rows=-2..0", "--cols=-3..0")
    assert spaced == joined
    assert joined[0] == 0
    assert joined[1] == " 0  1  0  0\n 0  0  1  0\n 0  0  0 [1]\n"
    code, _, err = run(capsys, "matrix", "window", "--omega", "x",
                       "--rows", "0..2", "--cols", "-3..x")
    assert code == 2
    assert "range must look like LO..HI" in err


def test_expression_starting_with_minus_needs_no_equals_sign(capsys):
    spaced = run(capsys, "series", "eval", "--expr", "-1+x")
    joined = run(capsys, "series", "eval", "--expr=-1+x")
    assert spaced == joined
    assert joined == (0, "-1 + x\nside: finite\n", "")
    spaced = run(capsys, "series", "compose", "--chi", "-1/(1-x)",
                 "--omega", "-x", "--prec", "4")
    joined = run(capsys, "series", "compose", "--chi=-1/(1-x)",
                 "--omega=-x", "--prec", "4")
    assert spaced == joined and joined[0] == 0
    spaced = run(capsys, "matrix", "mul", "--alpha", "-1", "--omega", "x",
                 "--beta", "-2", "--chi", "-x")
    joined = run(capsys, "matrix", "mul", "--alpha=-1", "--omega", "x",
                 "--beta=-2", "--chi=-x")
    assert spaced == joined and joined[0] == 0


def test_malformed_input_still_exits_two(capsys):
    for argv in (
        ("series", "eval", "--expr", "1+*x"),
        ("series", "eval", "--expr", "(1+x"),
        ("series", "eval", "--expr", "1/0"),
        ("series", "eval", "--expr", "x", "--prec", "0"),
        ("series", "eval", "--expr", "-1+*x"),
        ("series", "eval", "--expr", "--prec", "4"),
        ("series", "pow", "--a", "1+x"),
        ("matrix", "window", "--omega", "x", "--rows", "3..1", "--cols", "0..1"),
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")


def _limit_memory():
    # a failing size check must not take the machine's memory with it
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_precision_and_exponent_fail_fast():
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (("series", "eval", "--expr", "1/(1-x)", "--prec", "100000000"),
                 ("series", "pow", "--a", "1+x", "--n", "100000000"),
                 ("series", "pow", "--a", "1+x", "--n", "-100000000")):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "biriordan", *argv],
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=_limit_memory, env=env)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == "" and "at most 10000" in done.stderr


def test_expression_budgets_fail_fast():
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for expr, message in (
            ("(1+x)^30000", "at most 10000"),
            ("1/(1-x)^100000000", "at most 10000"),
            ("(1/(1-x))^-10001", "at most 10000"),
            ("+".join(f"{k}x^{k}" for k in range(8000)), "longer than 4096"),
            ("*".join(["(1+x)"] * 1600), "longer than 4096"),
            ("(" * 2000 + "x" + ")" * 2000, "nested deeper than 100")):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "biriordan", "series", "eval",
                               "--expr", expr],
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=_limit_memory, env=env)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == "" and message in done.stderr


def test_coefficients_too_long_to_print_are_refused_before_printing():
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    big = "(1+2x+3x^2)^10000"  # computed in well under a second
    for argv in (("series", "eval", "--expr", big),
                 ("series", "eval", "--expr", big, "--format", "json"),
                 ("matrix", "window", "--alpha", big, "--omega", "x",
                  "--rows", "10000..10000", "--cols", "0..0"),
                 ("matrix", "mul", "--alpha", big, "--omega", "x", "--chi", "x")):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "biriordan", *argv],
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=_limit_memory, env=env)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == "" and "too long to print" in done.stderr
        assert "sys.set_int_max_str_digits" not in done.stderr


def test_print_limit_is_on_bits(capsys):
    # 2^14283 has 14284 bits and 4300 digits; one more bit is refused
    code, out, _ = run(capsys, "series", "eval", "--expr", "2^14283")
    assert code == 0 and out == f"{2**14283}\nside: finite\n"
    code, out, err = run(capsys, "series", "eval", "--expr", "2^14284")
    assert (code, out) == (2, "")
    assert "more than 14284 bits" in err
    code, out, err = run(capsys, "series", "eval", "--expr", "(1/2)^14284*x")
    assert (code, out) == (2, "") and "more than 14284 bits" in err


def test_expression_budgets_leave_small_inputs_alone(capsys):
    # a monomial base takes any exponent, and 4096 characters still parse
    code, out, _ = run(capsys, "series", "eval", "--expr", "(-x)^30001")
    assert (code, out) == (0, "-x^30001\nside: finite\n")
    expr = "+".join(["x"] * 2047) + "+10"
    assert len(expr) == 4096
    code, out, _ = run(capsys, "series", "eval", "--expr", expr)
    assert (code, out) == (0, "10 + 2047x\nside: finite\n")
    code, _, err = run(capsys, "matrix", "apply", "--omega", "x", "--chi", expr + "0")
    assert code == 2 and "--chi: expression longer than 4096 characters" in err


def test_ds_f_vector_budget(capsys):
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "biriordan", "ds", "--f",
                           ",".join(["1"] * 20000)],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_limit_memory, env=dict(os.environ, PYTHONPATH=src))
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 2
    assert done.stdout == "" and "at most 64 entries" in done.stderr
    code, out, _ = run(capsys, "ds", "--f", ",".join(["1"] * 64))
    assert code == 3 and out.startswith("d: 62\n")


def test_ds_f_starting_with_minus_needs_no_equals_sign(capsys):
    spaced = run(capsys, "ds", "--f", "-1,2")
    joined = run(capsys, "ds", "--f=-1,2")
    assert spaced == joined
    assert spaced[0] == 3 and "h: -1, 3\n" in spaced[1]


def test_largest_allowed_sizes_are_accepted(capsys):
    code, out, _ = run(capsys, "series", "pow", "--a", "x", "--n", "-10000")
    assert (code, out) == (0, "x^-10000\nside: finite\n")
    code, _, err = run(capsys, "series", "eval", "--expr", "x", "--prec", "10001")
    assert code == 2 and "at most 10000" in err
    code, out, _ = run(capsys, "series", "eval", "--expr", "x", "--prec", "10000")
    assert (code, out) == (0, "x\nside: finite\n")


def test_matrix_range_validation(capsys):
    code, _, err = run(capsys, "matrix", "window", "--omega", "x",
                       "--rows", "0..100", "--cols", "0..2")
    assert code == 2
    code, _, err = run(capsys, "matrix", "window", "--omega", "x",
                       "--rows", "3..1", "--cols", "0..2")
    assert code == 2
    code, _, err = run(capsys, "matrix", "window", "--omega", "x",
                       "--rows", "nope", "--cols", "0..2")
    assert code == 2


# -- ds ----------------------------------------------------------------------------


def test_ds_documented_octahedron(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1,6,12,8")
    assert code == 0
    assert out == ("d: 2\nf: 1, 6, 12, 8\nh: 1, 3, 3, 1\n"
                   "palindromic: yes\nresiduals: 0, 0, 0, 0\n")


def test_ds_documented_solid_simplex(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1,3,3,1")
    assert code == 3
    assert "palindromic: no" in out
    assert "residuals: -1, -3, -3, 0" in out


def test_ds_documented_degenerate(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1")
    assert code == 0
    assert "d: -1" in out
    assert "palindromic: yes" in out


def test_ds_json(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1,4,6,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["h"] == ["1", "1", "1", "1"]
    assert payload["palindromic"] is True
    assert payload["residuals"] == ["0", "0", "0", "0"]
    assert "trace" not in payload


def test_ds_trace(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1,2", "--trace")
    assert code == 0
    assert "== reversal window" in out
    assert "== family actions" in out


def test_ds_trace_json(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1,2", "--json", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["d"] == 0
    assert len(payload["trace"]["steps"]) == 5


def test_ds_trace_out_of_range_exits_two(capsys):
    code, _, err = run(capsys, "ds", "--f", "1", "--trace")
    assert code == 2
    assert "0 <= d <= 62" in err


def test_ds_trace_at_the_largest_dimension(capsys):
    # 64 entries, the most ds accepts: the boundary of the 63-simplex
    f = ",".join(str(math.comb(64, k)) for k in range(64))
    code, out, err = run(capsys, "ds", "--f", f, "--trace")
    assert (code, err) == (0, "")
    assert out.startswith("d: 62\n")
    assert [line for line in out.splitlines() if line.startswith("== ")] == [
        "== reversal window", "== collapsed product", "== inverse transform",
        "== final matrix", "== family actions"]


def test_ds_malformed_vector_exits_two(capsys):
    code, _, err = run(capsys, "ds", "--f", "1,oops")
    assert code == 2
    assert "malformed" in err


def test_ds_warns_on_nonunit_empty_face(capsys):
    code, out, err = run(capsys, "ds", "--f", "2,2")
    assert code in (0, 3)
    assert "warning:" in err


def test_ds_fractional_input(capsys):
    code, out, _ = run(capsys, "ds", "--f", "1,1/2", "--json")
    assert code == 3
    assert json.loads(out)["f"] == ["1", "1/2"]


# -- shared plumbing ---------------------------------------------------------------


def test_usage_error_exits_two(capsys):
    assert run(capsys, "series")[0] == 2
    assert run(capsys, "serees", "eval", "--expr", "x")[0] == 2
    assert run(capsys, "series", "eval")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_prec_validation(capsys):
    code, _, _ = run(capsys, "series", "eval", "--expr", "x", "--prec", "0")
    assert code == 2
    code, _, _ = run(capsys, "series", "eval", "--expr", "x", "--prec", "zap")
    assert code == 2


def test_deep_nesting_exits_two(capsys):
    expr = "(" * 2000 + "x" + ")" * 2000
    code, out, err = run(capsys, "series", "eval", "--expr", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_determinism(capsys):
    first = run(capsys, "ds", "--f", "1,6,12,8", "--json", "--trace")
    second = run(capsys, "ds", "--f", "1,6,12,8", "--json", "--trace")
    assert first == second


def test_every_power_route_obeys_the_exponent_budget():
    # a composition, a matrix image, a matrix column and a matrix product all
    # reach omega^j through the one budgeted power
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (("series", "compose", "--chi", "1+x^100000000", "--omega", "1+x"),
                 ("matrix", "apply", "--chi", "x^100000000", "--omega", "1+x"),
                 ("matrix", "window", "--omega", "1+x", "--rows", "0..1",
                  "--cols", "99999999..100000000"),
                 ("matrix", "mul", "--omega", "x+x^2", "--chi", "x^20000")):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "biriordan", *argv],
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=_limit_memory, env=env)
        assert time.perf_counter() - start < 1.0, argv
        assert done.returncode == 2, argv
        assert done.stdout == "" and "at most 10000" in done.stderr, argv


def test_pow_of_a_monomial_takes_any_exponent(capsys):
    code, out, _ = run(capsys, "series", "pow", "--a", "x", "--n", "100000000")
    assert (code, out) == (0, "x^100000000\nside: finite\n")


def test_matrix_side_sets_the_column_expansion(capsys):
    args = ("--chi", "x^-1", "--omega", "1+x", "--side", "above", "--prec", "5")
    _, applied, _ = run(capsys, "matrix", "apply", *args)
    _, composed, _ = run(capsys, "series", "compose", *args)
    assert applied.splitlines()[0] == composed.splitlines()[0]
    assert composed.splitlines()[0] == "x^-1 - x^-2 + x^-3 - x^-4 + O(x^-5)"
    code, out, _ = run(capsys, "matrix", "window", "--omega", "1+x",
                       "--rows", "-3..1", "--cols", "-2..0", "--side", "above")
    assert code == 0
    # columns -2 and -1 hold (1+x)^-2 and (1+x)^-1 expanded in powers of 1/x
    assert out == (" -2   1  0\n"
                   "  1  -1  0\n"
                   "  0   1  0\n"
                   "  0   0 [1]\n"
                   "  0   0  0\n")


def test_matrix_options_nothing_reads_are_gone(capsys):
    for argv in (("matrix", "classify", "--omega", "x", "--rows", "0..1"),
                 ("matrix", "classify", "--omega", "x", "--cols", "0..1"),
                 ("matrix", "classify", "--omega", "x", "--format", "json"),
                 ("matrix", "apply", "--omega", "x", "--chi", "x", "--rows", "0..1"),
                 ("matrix", "apply", "--omega", "x", "--chi", "x", "--cols", "0..1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in err, argv
    for argv in (("matrix", "mul", "--omega", "x", "--chi", "x", "--rows", "0..1"),
                 ("matrix", "inv", "--omega", "x", "--cols", "0..1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "--rows and --cols go together" in err, argv


def _run_limited(*argv, budget: float):
    """Run the CLI in a subprocess under the 1 GiB limit; assert it finishes
    within budget seconds and exits 0, and return its stdout."""
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "biriordan", *argv],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory, env=env)
    assert time.perf_counter() - start < budget, argv
    assert (done.returncode, done.stderr) == (0, ""), argv
    return done.stdout


def test_large_powers_inside_the_budget_are_fast():
    # Miller's recurrence for an exact base, one walk over the columns
    out = _run_limited("series", "pow", "--a", "1+x", "--n", "10000", budget=2.0)
    text, side = out.splitlines()
    assert side == "side: finite"
    terms = text.split(" + ")
    assert len(terms) == 10001
    assert terms[:3] == ["1", "10000x", "49995000x^2"] and terms[-1] == "x^10000"
    binomial = 1  # math.comb(10000, i) row by row; comb itself takes seconds
    for i, term in enumerate(terms[:-1]):
        if i >= 2:
            assert term == f"{binomial}x^{i}"
        binomial = binomial * (10000 - i) // (i + 1)
    assert terms[5000] == f"{math.comb(10000, 5000)}x^5000"
    out = _run_limited("matrix", "window", "--omega", "x+x^2",
                       "--rows", "0..2", "--cols", "5000..5001", budget=2.0)
    assert out == " 0  0\n 0  0\n 0  0\n"


def test_sparse_powers_of_a_dense_omega_stay_in_memory():
    # x + x^60 is dense enough to pack, (x + x^60)^9998 is not: 9999 terms
    # over 589883 exponents, which packed at its widest coefficient would
    # take most of the 1 GiB
    out = _run_limited("matrix", "window", "--omega", "x+x^60",
                       "--rows", "10058..10059", "--cols", "9998..10000", budget=2.0)
    assert out == " 0  9999      0\n 0     0  10000\n"


def test_a_block_above_every_column_holds_no_column_in_memory():
    # row 0 lies below the order of (x + x^60)^j for every j >= 1, so the
    # walk makes no coefficient: a full walk held about 660 MB and, under
    # 256 MiB of address space, died with a MemoryError
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "biriordan", "matrix", "window", "--omega", "x+x^60",
         "--rows", "0..0", "--cols", "9937..10000"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (" 0 " * 64).rstrip() + "\n"


def _negative_block(side: str) -> list:
    """Rows 0..63 above (-63..0 below) of columns -63..0 of R(1/(1-2x),
    x/(1-x-x^2)): column -j is x^-j (1-x-x^2)^j times 1/(1-2x), which is
    the sum of 2^n x^n over n >= 0, or of -2^n x^n over n <= -1 above."""
    def alpha(n):
        if side == "below":
            return Fraction(2) ** n if n >= 0 else 0
        return -Fraction(2) ** n if n <= -1 else 0

    rows = range(0, 64) if side == "above" else range(-63, 1)
    poly, columns = [1], {}  # (1-x-x^2)^j from x^0 up
    for j in range(64):
        columns[-j] = [sum(c * alpha(i - (e - j)) for e, c in enumerate(poly)) for i in rows]
        poly = [a - b - c for a, b, c in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
    return [[columns[j][k] for j in range(-63, 1)] for k in range(64)]


def test_a_negative_block_cuts_the_reciprocal_to_its_rows(monkeypatch, capsys):
    # the walk over 1/omega reads it through x^62 (from x^-62 above, on the
    # flip), so recip and every product stop there, not at the 10000
    # coefficients omega knows
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    for side, rows in (("below", "-63..0"), ("above", "0..63")):
        argv = ["matrix", "window", "--alpha", "1/(1-2x)", "--omega", "x/(1-x-x^2)",
                "--side", side, "--rows", rows, "--cols", "-63..0"]
        want = _negative_block(side)
        on = Side(side)
        m = riordan(parse("1/(1-2x)", on, 10000), parse("x/(1-x-x^2)", on, 10000), on, 10000)
        asked = []
        for name, at in (("recip", 1), ("product", 2)):  # the count each asks for
            def spy(*args, real=getattr(dense, name), at=at):
                asked.append(args[at])
                return real(*args)
            monkeypatch.setattr(dense, name, spy)
        lo = int(rows.split("..")[0])
        assert [list(row) for row in extract(m, (lo, lo + 63), (-63, 0)).entries] == want
        assert asked and max(asked) <= 130, max(asked)
        monkeypatch.undo()
        code, out, _ = run(capsys, *argv, "--prec", "200")
        assert code == 0
        assert [[Fraction(e.strip("[]")) for e in line.split()]
                for line in out.splitlines()] == want
        done = subprocess.run(
            [sys.executable, "-m", "biriordan", *argv, "--prec", "10000"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)))
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_large_inversion_takes_few_products():
    # baby steps and giant steps: about 2 sqrt(n) packed products; with one
    # product per coefficient this took about 13 s (2-core AMD EPYC VM)
    out = _run_limited("series", "invert", "--omega", "x-x^2-x^3", "--prec", "500",
                       "--format", "json", budget=4.0)
    want = ref_reversion(parse("x-x^2-x^3"), 500)
    assert json.loads(out) == json.loads(json.dumps(want.to_json_dict()))
    assert len(want.coeffs) == 500


def test_monomial_omega_substitutes_exponents():
    out = _run_limited("series", "compose", "--chi", "1/(1-x)",
                       "--omega", "x^100000000", "--prec", "2", budget=1.0)
    assert out == "1 + O(x^2)\nside: bounded-below\n"
    out = _run_limited("series", "compose", "--chi", "1/(1-x)", "--omega",
                       "x^100000000", "--prec", "2", "--format", "json", budget=1.0)
    assert json.loads(out)["terms"] == [[0, "1"], [100000000, "1"]]


def test_matrix_inv_expands_on_the_matrix_side(capsys):
    code, out, _ = run(capsys, "matrix", "inv", "--alpha", "1+x", "--omega", "x",
                       "--side", "above", "--prec", "4")
    assert code == 0
    assert out.splitlines()[:2] == ["alpha: x^-1 - x^-2 + x^-3 + O(x^-4)",
                                    "omega: x"]


def test_matrix_mul_by_the_identity_keeps_the_stored_side(capsys):
    # the columns of x^-1+x^2 depend on the side, and the product realizes
    # the matrix on its stored side, as matrix window does: M * I = M
    args = ("--side", "above", "--omega", "x^-1+x^2", "--rows", "-2..1", "--cols", "-2..1")
    code, window, _ = run(capsys, "matrix", "window", *args)
    assert code == 0
    code, out, _ = run(capsys, "matrix", "mul", *args, "--chi", "x")
    assert code == 0
    assert out == "alpha: 1\nomega: x^-1 + x^2\n" + window


def test_matrix_inv_needs_order_one_on_the_stored_side(capsys):
    # x+x^2 has order 1 below but 2 above, where the matrix is stored
    code, out, err = run(capsys, "matrix", "inv", "--side", "above",
                         "--alpha", "1+x", "--omega", "x+x^2")
    assert (code, out) == (1, "")
    assert "order +1 or -1" in err


def test_monomial_powers_obey_a_size_budget():
    # c^j of a one-term base is refused before it is computed when it is
    # sure to have more than 2^20 bits (3^100000000 ran for minutes)
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for expr in ("3^100000000", "3^10000000", "(1/3x)^-10000000"):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "biriordan", "series", "eval",
                               "--expr", expr],
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=_limit_memory, env=env)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stdout == "" and "more than 1048576 bits" in done.stderr, expr


def test_oversized_compositions_are_refused_before_they_allocate():
    # 1000 known coefficients of chi on omega of order 1000: 10^6 dense
    # coefficients, which ran out of the 1 GiB after about a minute
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "biriordan", "series", "compose",
                           "--chi", "1/(1-x)", "--omega", "x^1000+x^1001",
                           "--prec", "1000"],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_limit_memory, env=env)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 2
    assert done.stdout == "" and "more than 100000" in done.stderr


def test_sparse_exact_sums_stay_sparse():
    # chi_0 + chi_1 omega^100000000 with omega = x spans 10^8 exponents and
    # two terms: summed on one dense list it ran out of the 1 GiB
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    done = subprocess.run([sys.executable, "-m", "biriordan", "series", "compose",
                           "--chi", "1 + x^100000000", "--omega", "x"],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_limit_memory, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "1 + x^100000000\nside: finite\n", "")


def test_compose_side_picks_where_one_over_a_finite_omega_expands(capsys):
    # x^-1 + x^2 has nonzero order on both sides; --side above expands chi
    # and 1/omega in powers of 1/x
    code, out, _ = run(capsys, "series", "compose", "--chi", "1/(1-x^-1)",
                       "--omega", "x^-1+x^2", "--side", "above", "--prec", "6")
    assert (code, out) == (0, "1 + x^-2 + x^-4 - x^-5 + O(x^-6)\nside: bounded-above\n")


def test_compose_reads_negative_powers_of_a_finite_omega_on_side_alone(capsys):
    # each reads omega^-1 of a two-term omega, which --side expands (below
    # by default) and where omega has no order that the sum needs; the
    # other realization is not tried
    for argv in (["matrix", "apply", "--side", "above", "--omega", "x+x^2",
                  "--chi", "x^-1/(1-x)", "--other-side", "below", "--prec", "6"],
                 ["matrix", "apply", "--side", "above", "--omega", "x^-1+1",
                  "--chi", "1/(1-x^-1)", "--prec", "6"],
                 ["series", "compose", "--chi", "x^-1/(1-x)", "--omega", "x^-1+x^-2",
                  "--prec", "8"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: composition undefined"), argv
    # no negative power read, or a one-term omega: either side serves
    code, out, _ = run(capsys, "series", "compose", "--chi", "1/(1-x)",
                       "--omega", "x+x^2", "--side", "above")
    assert (code, out) == (0, "-x^-2 + x^-3 - 2x^-4 + 3x^-5 - 5x^-6 + 8x^-7 - 13x^-8 "
                              "+ 21x^-9 - 34x^-10 + 55x^-11 - 89x^-12 + 144x^-13 "
                              "- 233x^-14 + 377x^-15 + O(x^-16)\nside: bounded-above\n")
    code, out, _ = run(capsys, "series", "compose", "--chi", "1/(1-x)",
                       "--omega", "x^-1", "--side", "below", "--prec", "5")
    assert (code, out) == (0, "1 + x^-1 + x^-2 + x^-3 + x^-4 + O(x^-5)\n"
                              "side: bounded-above\n")


def test_closed_stdout_exits_without_a_traceback():
    # the reader stops after 150 of about 10^6 bytes, as `| head -c 150` does
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "biriordan", "series", "eval", "--expr", "1/(3-x^-1)",
         "--side", "above", "--prec", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_limit_memory,
        env=dict(os.environ, PYTHONPATH=src))
    head = proc.stdout.read(150)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert head.startswith(b"1/3 + 1/9x^-1 + 1/27x^-2")
    assert (proc.wait(timeout=60), err) == (1, b"")
