"""Spans around the benchmark's calls into biriordan's public functions.

Nothing inside the library is instrumented: every span starts and ends in
the benchmark, around one call it makes.  Spans are kept in memory as records
(name, start, end, parent index, op id, error type, work count) and written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

LAYERS = ("series", "riordan", "window", "simplicial", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op_id,
                           None, None])
        self.stack.append(len(self.spans) - 1)

    def close(self, error=None, work=None):
        span = self.spans[self.stack.pop()]
        span[2] = perf_counter()
        span[5] = error
        span[6] = work

    def wrap(self, name, fn, work=None):
        """fn with a span around each call; work(result) counts its output."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(type(exc).__name__)
                raise
            self.close(None, work(result) if work else None)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as out:
            for name, t0, t1, parent, op, err, work in self.spans:
                out.write(json.dumps({"name": name, "start": t0, "end": t1,
                                      "parent": parent, "op": op,
                                      "error": err, "work": work}) + "\n")


class Namespace:
    """The public functions the workloads call, optionally traced."""

    def __init__(self, functions, tracer=None, work=None):
        work = work or {}
        for name, fn in functions.items():
            if tracer is not None:
                fn = tracer.wrap(name, fn, work.get(name))
            setattr(self, name.rsplit(".", 1)[1], fn)


def _ms(spans):
    return [(s[2] - s[1]) * 1e3 for s in spans]


def _median(values):
    return statistics.median(values) if values else 0.0


def _slope(points):
    """Least-squares slope of log(ms) over log(precision)."""
    pts = [(math.log(p), math.log(ms)) for p, ms in points if ms > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def layer_metrics(tracer, ops):
    """Per-layer numbers from the spans; ops maps op id to (kind, side, prec).

    Only spans under an op's root span count towards self time; spans under
    a "replay" root (work done beside the timed op) count towards the
    per-function medians only.
    """
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    out = {}

    def p50(name, pick=None):
        chosen = [s for s in by_name.get(name, []) if pick is None or pick(s)]
        return _median(_ms(chosen))

    for fn in ("parse", "mul", "recip", "power", "compose",
               "compositional_inverse"):
        out[f"series.{fn}.ms_p50"] = p50(f"series.{fn}")
    for fn in ("recip", "compose", "compositional_inverse"):
        for side in ("below", "above"):
            out[f"series.{fn}.{side}_ms_p50"] = p50(
                f"series.{fn}", lambda s: ops.get(s[4], (None, None))[1] == side)
    for fn in ("mul", "recip", "compose", "compositional_inverse"):
        per_prec = {}
        for s in by_name.get(f"series.{fn}", []):
            if s[4] in ops:
                per_prec.setdefault(ops[s[4]][2], []).append(s)
        out[f"series.{fn}.scaling_exp"] = _slope(
            [(p, _median(_ms(v))) for p, v in per_prec.items() if p])

    for fn in ("matmul", "inverse", "apply"):
        out[f"riordan.{fn}.ms_p50"] = p50(f"riordan.{fn}")
    out["riordan.matmul.refusals"] = sum(
        1 for s in by_name.get("riordan.matmul", [])
        if s[5] == "UndefinedProductError")

    extracts = by_name.get("window.extract", [])
    entries = sum(s[6] or 0 for s in extracts)
    out["window.extract.ms_p50"] = p50("window.extract")
    out["window.extract.us_per_entry"] = (
        sum(s[2] - s[1] for s in extracts) * 1e6 / entries if entries else 0.0)
    out["window.product_guard.ms_p50"] = p50("window.product_guard")
    out["window.oracle_matmul.ms_p50"] = p50("window.oracle_matmul")

    chain = _ms(by_name.get("simplicial.verify_theorem_chain", []))
    out["simplicial.verify_theorem_chain.ms_p50"] = _median(chain)
    out["simplicial.verify_theorem_chain.ms_max"] = max(chain, default=0.0)
    out["simplicial.f_to_h.ms_p50"] = p50("simplicial.f_to_h")
    out["simplicial.dehn_sommerville_residuals.ms_p50"] = p50(
        "simplicial.dehn_sommerville_residuals")
    out["cli.main.ms_p50"] = p50("cli.main")

    # self time: a span's duration minus the part its children cover
    child_time = [0.0] * len(spans)
    root_of = [None] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
            root_of[i] = root_of[s[3]]
        else:
            root_of[i] = i
    op_time = sum(s[2] - s[1] for s in spans
                  if s[3] is None and s[0].startswith("op."))
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        if layer in self_time and spans[root_of[i]][0].startswith("op."):
            self_time[layer] += s[2] - s[1] - child_time[i]
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / op_time if op_time else 0.0
    return out
