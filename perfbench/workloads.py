"""The four workloads: seeded inputs, the timed call sequence of every op, and
the check of its result against perfbench.oracle.

A workload is a sequence of rounds.  Every round holds the same cells (op
kind, side, precision or size) with fresh inputs drawn from the seed and the
round number, so a run's op mix does not depend on how many rounds fit in
its time.  An op's `run` is the only timed part; it calls the library through
a Namespace, so a traced run can wrap each call in a span.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import biriordan
from biriordan.series import LaurentSeries, Side

import oracle

# the package re-exports functions named like some of its modules
cli, riordan, series, simplicial, window = (
    importlib.import_module(f"biriordan.{m}")
    for m in ("cli", "riordan", "series", "simplicial", "window"))

NAMES = ("series-q", "series-gf", "matrix-chain", "cli-ds")
GF_PRIME = 2**31 - 1
SIDE = {"below": Side.BELOW, "above": Side.ABOVE}


# The tail is read at a fixed percentile per workload: the highest one with
# at least ten samples beyond it in the shortest of ten 25-second runs on the
# 2-core machine the benchmark was built on.  A percentile that followed the
# sample count would climb as the program got faster.
TAIL_PERCENTILE = {"series-q": 99.0, "series-gf": 97.5, "matrix-chain": 94.0,
                   "cli-ds": 87.5}


class Op:
    """One operation: `run(L)` is timed; `check(result)` returns None when
    the result is right and a description otherwise; `refuse` names the
    exception a correct library must raise instead of returning."""

    __slots__ = ("kind", "side", "prec", "run", "check", "canon", "refuse",
                 "replay")

    def __init__(self, kind, run, check, canon, side=None, prec=None,
                 refuse=None, replay=None):
        self.kind, self.run, self.check, self.canon = kind, run, check, canon
        self.side, self.prec, self.refuse, self.replay = side, prec, refuse, replay


def functions(process):
    """The public functions ops call, keyed by layer-qualified name."""
    return {
        "series.parse": series.parse,
        "series.mul": series.mul,
        "series.recip": series.recip,
        "series.power": series.power,
        "series.compose": series.compose,
        "series.compositional_inverse": series.compositional_inverse,
        "riordan.riordan": riordan.riordan,
        "riordan.matmul": riordan.matmul,
        "riordan.inverse": riordan.inverse,
        "riordan.apply": riordan.apply,
        "window.extract": window.extract,
        "window.product_guard": window.product_guard,
        "window.oracle_matmul": window.oracle_matmul,
        "simplicial.from_text": simplicial.FVector.from_text,
        "simplicial.f_to_h": simplicial.f_to_h,
        "simplicial.dehn_sommerville_residuals":
            simplicial.dehn_sommerville_residuals,
        "simplicial.verify_theorem_chain": simplicial.verify_theorem_chain,
        "cli.main": cli.main,
        "cli.process": process,
    }


WORK = {"window.extract": lambda w: len(w.entries) * len(w.entries[0])}


# -- canonical text and work size of results ------------------------------------


def canon_series(r):
    return f"{r.side.value} {r.exact} {r.lo} {r.hi} {series.format_series(r)}"


def canon_matrix(m):
    return f"{canon_series(m.alpha)} | {canon_series(m.omega)}"


def canon_refusal(exc):
    return f"refused {type(exc).__name__}: {exc}"


def bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    return c.n.bit_length()


_NUMBER = re.compile(rb"-?\d+(?:/\d+)?")


def scalars(result):
    """Every exact scalar a result certifies, zeros inside a window included."""
    if isinstance(result, LaurentSeries):
        return list(result.coeffs.values()) + [0] * (
            0 if result.exact else result.hi - result.lo + 1 - len(result.coeffs))
    if isinstance(result, riordan.RiordanMatrix):
        return scalars(result.alpha) + scalars(result.omega)
    if isinstance(result, window.MatrixWindow):
        return [c for row in result.entries for c in row]
    if isinstance(result, simplicial.HVector):
        return list(result.h)
    if isinstance(result, (tuple, list)):
        return [c for part in result for c in scalars(part)]
    if isinstance(result, Fraction):
        return [result]
    if isinstance(result, bytes):
        return [Fraction(t.decode()) for t in _NUMBER.findall(result)]
    return []


# -- rational functions x^shift * num/den ----------------------------------------


class RatFn:
    __slots__ = ("num", "den", "shift", "side")

    def __init__(self, num, den, shift, side):
        self.num, self.den, self.shift, self.side = num, den, shift, side

    def text(self):
        head = f"x^{self.shift}*" if self.shift else ""
        return f"{head}({_poly_text(self.num)})/({_poly_text(self.den)})"


def _poly_text(p):
    parts = []
    for e in sorted(p):
        c = p[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("x" if e == 1 else f"x^{e}")
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts)


def _rational(rng):
    while True:
        p = rng.randint(-5, 5)
        if p:
            return Fraction(p, rng.randint(1, 3))


class Draw:
    """Coefficient values come from the seed; structural choices (orders,
    degrees, cells) come from the round number alone, so that every run sees
    the same mix of shapes whatever its seed."""

    def __init__(self, rng, r):
        self.rng, self.r = rng, r
        self.shapes = random.Random(f"shapes:{r}")

    def pick(self, options):
        return self.shapes.choice(options)


def ratfn(draw, order, side, coeff):
    """x^s * N/D whose expansion on `side` has the given order; every
    coefficient of N and D is nonzero, so both ends of each are."""
    num = {e: coeff(draw.rng) for e in range(draw.pick((0, 1, 2)) + 1)}
    den = {e: coeff(draw.rng) for e in range(draw.pick((1, 2, 3)) + 1)}
    shift = order if side == "below" else order - max(num) + max(den)
    return RatFn(num, den, shift, side)


# -- series workloads ---------------------------------------------------------------


class SeriesWorkload:
    """series-q parses rational-function text; series-gf builds the same
    shapes from exact GF(p) polynomials and expands them inside the op."""

    COMPOSE_CASES = (("below", "below", (1, 2)), ("below", "above", (-1, -2)),
                     ("above", "below", (-1, -2)), ("above", "above", (1, 2)))

    def __init__(self, name, tiny):
        self.gf = name == "series-gf"
        if self.gf:
            field = biriordan.PrimeField(GF_PRIME)
            self.mod = GF_PRIME
            self.coeff = lambda rng: field(rng.randrange(1, GF_PRIME))
            self.precs = (4, 8) if tiny else (16, 32, 64)
        else:
            self.mod = oracle.Q61
            self.coeff = _rational
            self.precs = (4, 8) if tiny else (8, 16, 32)

    def expand(self, L, f, prec):
        if not self.gf:
            return L.parse(f.text(), SIDE[f.side], prec)
        num = LaurentSeries.from_terms({e + f.shift: c for e, c in f.num.items()})
        return L.mul(num, L.recip(LaurentSeries.from_terms(f.den),
                                  SIDE[f.side], prec))

    def own(self, f, prec):
        return oracle.expand(f.num, f.den, f.shift, f.side, prec, self.mod)

    def to_ser(self, r):
        if r.exact:
            return None
        n = r.hi - r.lo + 1
        m = self.mod
        if r.side is Side.BELOW:
            return oracle.Ser("below", r.lo, [oracle.residue(
                r.coeffs.get(r.lo + i, 0), m) for i in range(n)], m)
        return oracle.Ser("above", r.hi, [oracle.residue(
            r.coeffs.get(r.hi - i, 0), m) for i in range(n)], m)

    def same(self, r, want, values=True):
        got = self.to_ser(r)
        if got is None:
            return "an exact result where an expansion was expected"
        if (got.side, got.window) != (want.side, want.window):
            return f"window {got.side} {got.window}, expected {want.side} {want.window}"
        if values and got.c != want.c:
            bad = next(i for i, (a, b) in enumerate(zip(got.c, want.c)) if a != b)
            return f"coefficient {bad} from the order differs"
        return None

    def round(self, draw):
        ops = []
        orders = (-1, 0, 1)
        for prec in self.precs:
            for side in ("below", "above"):
                f = lambda order: ratfn(draw, order, side, self.coeff)
                ops.append(self.op_mul(f(draw.pick(orders)),
                                       f(draw.pick(orders)), prec))
                ops.append(self.op_recip(f(draw.pick(orders)), prec))
                ops.append(self.op_power(f(draw.pick(orders)),
                                         draw.pick((-3, -2, 2, 3)), prec))
                for order in (1, -1):
                    ops.append(self.op_inverse(f(order), prec))
            for chi_side, om_side, om_orders in self.COMPOSE_CASES:
                chi = ratfn(draw, draw.pick(orders), chi_side, self.coeff)
                om = ratfn(draw, draw.pick(om_orders), om_side, self.coeff)
                ops.append(self.op_compose(chi, om, prec))
        draw.rng.shuffle(ops)
        return ops

    def op_mul(self, a, b, prec):
        return Op(
            "mul",
            lambda L: L.mul(self.expand(L, a, prec), self.expand(L, b, prec)),
            lambda r: self.same(r, oracle.mul(self.own(a, prec), self.own(b, prec))),
            canon_series, a.side, prec)

    def op_recip(self, a, prec):
        def check(r):
            own = self.own(a, prec)
            bad = self.same(r, oracle.recip(own), values=False)
            if bad is None and not oracle.is_monomial_x(oracle.mul(own, self.to_ser(r)), 0):
                bad = "a * recip(a) != 1 on the window"
            return bad

        return Op("recip",
                  lambda L: L.recip(self.expand(L, a, prec), SIDE[a.side], prec),
                  check, canon_series, a.side, prec)

    def op_power(self, a, j, prec):
        return Op(
            "power",
            lambda L: L.power(self.expand(L, a, prec), j, SIDE[a.side], prec),
            lambda r: self.same(r, oracle.power(self.own(a, prec), j)),
            canon_series, a.side, prec)

    def op_compose(self, chi, om, prec):
        return Op(
            "compose",
            lambda L: L.compose(self.expand(L, chi, prec),
                                self.expand(L, om, prec), prec),
            lambda r: self.same(r, oracle.compose(self.own(chi, prec),
                                                  self.own(om, prec))),
            canon_series, chi.side, prec)

    def op_inverse(self, om, prec):
        def check(r):
            own = self.own(om, prec)
            bad = self.same(r, oracle.compositional_inverse(own), values=False)
            if bad is None and not oracle.is_monomial_x(
                    oracle.compose(own, self.to_ser(r)), 1):
                bad = "compose(omega, inverse) != x on the window"
            return bad

        return Op("compositional_inverse",
                  lambda L: L.compositional_inverse(self.expand(L, om, prec), prec),
                  check, canon_series, om.side, prec)


# -- matrix-chain -----------------------------------------------------------------------

CLASSES = {"L+": ("below", 1), "L-": ("below", -1),
           "U+": ("above", 1), "U-": ("above", -1)}
DEFINED = (("L+", "L+"), ("L+", "L-"), ("L-", "U+"), ("L-", "U-"),
           ("U+", "U+"), ("U+", "U-"), ("U-", "L+"), ("U-", "L-"))
UNDEFINED = tuple((a, b) for a in CLASSES for b in CLASSES
                  if (a, b) not in DEFINED)
APPLY_SIDE = {"L+": "below", "L-": "above", "U+": "above", "U-": "below"}
CHAIN_STEPS = ("reversal window", "collapsed product", "inverse transform",
               "final matrix", "family actions")


def _families(d):
    return (
        ("simplex boundary", [math.comb(d + 2, t) for t in range(d + 2)]),
        ("cross-polytope", [2**t * math.comb(d + 1, t) for t in range(d + 2)]),
        ("solid simplex", [math.comb(d + 1, t) for t in range(d + 2)]),
    )


def _random_fvector(rng, d):
    return [1] + [Fraction(rng.randint(-9, 30), rng.randint(1, 4))
                  for _ in range(d + 1)]


class MatrixWorkload:
    def __init__(self, tiny):
        self.prec = 6 if tiny else 12
        self.sizes = (4,) if tiny else (8, 16, 32)
        self.block = 3 if tiny else 6
        self.chain_dims = 2 if tiny else 9
        self.series = SeriesWorkload("series-q", tiny)

    def mat(self, draw, cls, prec, unit=False):
        side, sign = CLASSES[cls]
        alpha = ratfn(draw, draw.pick((-2, -1, 0, 1, 2)), side, _rational)
        om = ratfn(draw, sign * (1 if unit else draw.pick((1, 2))), side, _rational)
        return alpha, om, prec

    def build(self, L, spec):
        alpha, om, prec = spec
        return L.riordan(self.series.expand(L, alpha, prec),
                         self.series.expand(L, om, prec), precision=prec)

    def own(self, spec):
        alpha, om, prec = spec
        return self.series.own(alpha, prec), self.series.own(om, prec)

    def round(self, draw):
        p = self.prec
        names = sorted(CLASSES)
        ops = [self.op_matmul(self.mat(draw, a, p), self.mat(draw, b, p))
               for a, b in DEFINED]
        for _ in range(2):
            a, b = draw.pick(UNDEFINED)
            ops.append(self.op_refused(self.mat(draw, a, p), self.mat(draw, b, p),
                                       a, b))
        for _ in range(2):
            ops.append(self.op_inverse(self.mat(draw, draw.pick(names), p, unit=True)))
        for _ in range(2):
            cls = draw.pick(names)
            chi = ratfn(draw, draw.pick((-2, -1, 0, 1, 2)), APPLY_SIDE[cls], _rational)
            ops.append(self.op_apply(self.mat(draw, cls, p), chi))
        for k in self.sizes:
            ops.append(self.op_extract(self.mat(draw, draw.pick(names), k), k))
        a, b = draw.pick(DEFINED)
        ops.append(self.op_certify(self.mat(draw, a, p), self.mat(draw, b, p)))
        step = max(1, self.chain_dims // 3)
        for d in range(draw.r % step, self.chain_dims, step):
            ops.append(self.op_chain(d))
        ops.append(self.op_ds(draw))
        draw.rng.shuffle(ops)
        return ops

    def _block(self, alpha, om, cols):
        """Rows whose entries every column in `cols` certifies: the k rows
        nearest the end of the common known region (k = len(cols))."""
        k = cols[1] - cols[0] + 1
        wins = [oracle.column_window(alpha, om, j)
                for j in range(cols[0], cols[1] + 1)]
        if alpha.side == "below":
            hi = min(w[1] for w in wins)
            return (hi - k + 1, hi)
        lo = max(w[0] for w in wins)
        return (lo, lo + k - 1)

    def _entries_match(self, got, alpha, om):
        """A window's entries against the reference columns, modulo Q61."""
        m = oracle.Q61
        cols = oracle.columns(alpha, om, got.col_hi)
        for c in range(len(got.entries[0])):
            col = cols[got.col_lo + c]
            for r, row in enumerate(got.entries):
                want = col.coeff(got.row_lo + r)
                if want is None or oracle.residue(row[c], m) != want:
                    return f"entry ({got.row_lo + r}, {got.col_lo + c}) differs"
        return None

    def op_matmul(self, ms, ns):
        def run(L):
            m, n = self.build(L, ms), self.build(L, ns)
            return m, n, L.matmul(m, n)

        def check(res):
            m, n, prod = res
            (a1, w1), (a2, w2) = self.own(ms), self.own(ns)
            alpha, om = oracle.matmul(a1, w1, a2, w2)
            bad = (self.series.same(prod.alpha, alpha)
                   or self.series.same(prod.omega, om))
            if bad:
                return bad
            cols = (0, 3)
            rows = self._block(alpha, om, cols)
            block = window.extract(prod, rows, cols)
            guard = window.product_guard(m, n, rows, cols)
            if guard[0] <= guard[1]:
                ref = window.oracle_matmul(window.extract(m, rows, guard),
                                           window.extract(n, guard, cols), guard)
            else:
                ref = window.MatrixWindow(rows[0], cols[0], tuple(
                    (Fraction(0),) * len(row) for row in block.entries))
            if ref != block:
                return "product window differs from the guarded oracle"
            return self._entries_match(block, alpha, om)

        return Op("matmul", run, check, lambda res: canon_matrix(res[2]),
                  ms[0].side, self.prec)

    def op_refused(self, ms, ns, a, b):
        def check(exc):
            text = str(exc)
            return None if a in text and b in text else f"message {text!r}"

        return Op("matmul", lambda L: L.matmul(self.build(L, ms), self.build(L, ns)),
                  check, canon_refusal, ms[0].side, self.prec,
                  refuse="UndefinedProductError")

    def op_inverse(self, ms):
        def check(inv):
            alpha, om = oracle.inverse(*self.own(ms))
            return (self.series.same(inv.alpha, alpha)
                    or self.series.same(inv.omega, om))

        return Op("inverse", lambda L: L.inverse(self.build(L, ms)), check,
                  canon_matrix, ms[0].side, self.prec)

    def op_apply(self, ms, chi):
        prec = ms[2]

        def run(L):
            m, x = self.build(L, ms), self.series.expand(L, chi, prec)
            return m, x, L.apply(m, x)

        def check(res):
            m, x, got = res
            want = oracle.apply(*self.own(ms), self.series.own(chi, prec))
            bad = self.series.same(got, want)
            if bad:
                return bad
            lo, hi = want.window
            rows = (lo, min(hi, lo + 3)) if want.side == "below" else (max(lo, hi - 3), hi)
            guard = window.apply_guard(m, x, rows)
            vec = window.oracle_apply(window.extract(m, rows, guard),
                                      window.vector_from_series(x, *guard), guard)
            if vec.values != tuple(got[i] for i in range(rows[0], rows[1] + 1)):
                return "action differs from the guarded oracle"
            return None

        return Op("apply", run, check, lambda res: canon_series(res[2]),
                  ms[0].side, self.prec)

    def op_extract(self, ms, k):
        cols = (0, k - 1)
        rows = self._block(*self.own(ms), cols)

        def check(w):
            alpha, om = self.own(ms)
            if (w.row_lo, w.row_hi, w.col_lo, w.col_hi) != (*rows, *cols):
                return "block has the wrong shape"
            return self._entries_match(w, alpha, om)

        return Op("extract", lambda L: L.extract(self.build(L, ms), rows, cols),
                  check, lambda w: window.render(w), ms[0].side, k)

    def op_certify(self, ms, ns):
        (a1, w1), (a2, w2) = self.own(ms), self.own(ns)
        alpha, om = oracle.matmul(a1, w1, a2, w2)
        cols = (0, self.block - 1)
        rows = self._block(alpha, om, cols)

        def run(L):
            m, n = self.build(L, ms), self.build(L, ns)
            guard = L.product_guard(m, n, rows, cols)
            return L.oracle_matmul(L.extract(m, rows, guard),
                                   L.extract(n, guard, cols), guard)

        return Op("certify", run, lambda w: self._entries_match(w, alpha, om),
                  lambda w: window.render(w), ms[0].side, self.prec)

    def op_chain(self, d):
        lines = []
        for label, f in _families(d):
            h = oracle.h_vector(f)
            zero = not any(oracle.residuals(f))
            lines.append(f"{label}: h={tuple(str(c) for c in h)} "
                         f"palindromic={h == h[::-1]} residuals zero={zero}")
        want = "\n".join(lines)

        def check(trace):
            if trace.d != d or tuple(s.name for s in trace.steps) != CHAIN_STEPS:
                return "proof trace has the wrong steps"
            if trace.steps[-1].detail != want:
                return "family actions disagree with the reference h-vectors"
            return None

        return Op("verify_theorem_chain", lambda L: L.verify_theorem_chain(d),
                  check, lambda t: json.dumps(t.as_dict()), prec=d)

    def op_ds(self, draw):
        d = draw.pick(range(13))
        f = (_random_fvector(draw.rng, d) if draw.pick((True, False))
             else draw.pick(_families(d))[1])
        text = ",".join(str(c) for c in f)

        def run(L):
            fv = L.from_text(text)
            return L.f_to_h(fv), L.dehn_sommerville_residuals(fv)

        def check(res):
            hv, res_ = res
            if list(hv.h) != oracle.h_vector(f) or list(res_) != oracle.residuals(f):
                return "h-vector or residuals differ from math.comb"
            return None

        return Op("ds", run, check,
                  lambda res: " ".join(map(str, (*res[0].h, *res[1]))), prec=d)


# -- cli-ds -------------------------------------------------------------------------------

README_RUNS = (
    (("series", "compose", "--chi", "1/(1-x)", "--omega", "x^-1", "--side",
      "below", "--prec", "5"),
     0, "1 + x^-1 + x^-2 + x^-3 + x^-4 + O(x^-5)\nside: bounded-above\n"),
    (("series", "invert", "--omega", "x/(1-x)", "--prec", "5"),
     0, "x - x^2 + x^3 - x^4 + O(x^5)\nside: bounded-below\n"),
    (("series", "compose", "--chi", "1/(1-x)", "--omega", "2+x"), 1, ""),
    (("matrix", "classify", "--omega", "x/(1-x)"), 0, "L+\n"),
    (("matrix", "mul", "--omega", "x^2", "--chi", "x^3"), 0,
     "alpha: 1\nomega: x^6\n"),
    (("matrix", "mul", "--omega", "x/(1-x)", "--chi", "x^2/(x-1)",
      "--other-side", "above"), 1, ""),
    (("matrix", "window", "--alpha", "1+x", "--omega", "x", "--rows", "0..2",
      "--cols", "0..2"), 0, "[1] 0  0\n 1  1  0\n 0  1  1\n"),
)

MALFORMED = (
    ("series", "eval", "--expr", "1+*x"),
    ("series", "eval", "--expr", "(1+x"),
    ("series", "eval", "--expr", "1/0"),
    ("series", "eval", "--expr", "x", "--prec", "0"),
    ("series", "pow", "--a", "1+x"),
    ("matrix", "window", "--omega", "x", "--rows", "3..1", "--cols", "0..1"),
)


def cli_runner(root):
    """`python -m biriordan argv` from the checkout; returns (code, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def process(argv):
        done = subprocess.run([sys.executable, "-m", "biriordan", *argv],
                              cwd=root, env=env, capture_output=True,
                              timeout=60)
        return done.returncode, done.stdout

    return process


def _ds_text(f, h, res, as_json):
    fmt = lambda values: [str(Fraction(v)) for v in values]
    pal = h == h[::-1]
    if as_json:
        return json.dumps({"d": len(f) - 2, "f": fmt(f), "h": fmt(h),
                           "palindromic": pal, "residuals": fmt(res)}) + "\n"
    return (f"d: {len(f) - 2}\nf: {', '.join(fmt(f))}\nh: {', '.join(fmt(h))}\n"
            f"palindromic: {'yes' if pal else 'no'}\n"
            f"residuals: {', '.join(fmt(res))}\n")


class CliWorkload:
    def __init__(self, tiny):
        self.max_d = 3 if tiny else 12
        self.max_trace_d = 1 if tiny else 4
        self.mismatches = 0

    def round(self, draw):
        """Ten processes: five ds runs, two ds --trace runs, two README
        examples and one malformed command line."""
        rng = draw.rng
        ops = []
        for i in range(5):
            d = draw.pick(range(self.max_d + 1))
            f = (_random_fvector(rng, d) if i in (2, 3)
                 else draw.pick(_families(d))[1])
            ops.append(self.op_ds(f, as_json=bool(i % 2), trace=False))
        for as_json in (False, True):
            d = draw.pick(range(self.max_trace_d + 1))
            ops.append(self.op_ds(draw.pick(_families(d))[1], as_json, trace=True))
        for examples in (README_RUNS[:3], README_RUNS[3:]):
            argv, code, out = draw.pick(examples)
            ops.append(self.op_fixed("readme", argv, code, out.encode()))
        if draw.pick((True, False)):
            argv = draw.pick(MALFORMED)
        else:
            f = [str(c) for c in _random_fvector(rng, draw.pick(range(5)))]
            f[rng.randrange(len(f))] = draw.pick(("x", "", "1/0", "2//3", "1.5"))
            argv = ("ds", "--f", ",".join(f))
        ops.append(self.op_fixed("malformed", argv, 2, b""))
        rng.shuffle(ops)
        return ops

    def _op(self, kind, argv, code, check_stdout, replay_extra=None, prec=None):
        """A CLI process op.  Its replay runs cli.main in-process on the same
        argv (plus the simplicial calls behind it) beside the timed op; an
        exit code that differs from the expected one or from the replay's
        counts as a mismatch."""

        def replay(L, result):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                replayed = L.main(list(argv))
            if replay_extra:
                replay_extra(L)
            self.mismatches += replayed != result[0]

        def check(res):
            if res[0] != code:
                self.mismatches += 1
                return f"exit {res[0]}, expected {code}"
            return check_stdout(res[1])

        return Op(kind, lambda L: L.process(list(argv)), check,
                  lambda res: f"{res[0]} {res[1].decode()}", prec=prec,
                  replay=replay)

    def op_ds(self, f, as_json, trace):
        h, res = oracle.h_vector(f), oracle.residuals(f)
        code = 0 if not any(res) else 3
        text = ",".join(str(c) for c in f)
        argv = ["ds", "--f", text] + (["--json"] if as_json else []) + (
            ["--trace"] if trace else [])
        head = _ds_text(f, h, res, as_json)
        d = len(f) - 2

        def check(stdout):
            if not trace:
                return None if stdout == head.encode() else "stdout differs"
            if as_json:
                payload = json.loads(stdout)
                steps = tuple(s["name"] for s in payload.pop("trace")["steps"])
                ok = json.dumps(payload) + "\n" == head and steps == CHAIN_STEPS
            else:
                text_out = stdout.decode()
                heads = tuple(line[3:] for line in text_out.splitlines()
                              if line.startswith("== "))
                ok = text_out.startswith(head) and heads == CHAIN_STEPS
            return None if ok else "stdout differs"

        def extra(L):
            fv = L.from_text(text)
            L.f_to_h(fv)
            L.dehn_sommerville_residuals(fv)
            if trace:
                L.verify_theorem_chain(d)

        return self._op("ds-trace" if trace else "ds", argv, code, check, extra,
                        prec=d)

    def op_fixed(self, kind, argv, code, stdout):
        return self._op(kind, argv, code,
                        lambda out: None if out == stdout else "stdout differs")


def make(name, tiny):
    if name == "matrix-chain":
        return MatrixWorkload(tiny)
    if name == "cli-ds":
        return CliWorkload(tiny)
    return SeriesWorkload(name, tiny)


def rounds(workload, name, seed):
    """Round r's ops depend only on (workload, seed, r)."""
    r = 0
    while True:
        yield workload.round(Draw(random.Random(f"{name}:{seed}:{r}"), r))
        r += 1
