"""One benchmark worker process: set up, run the closed loop, check results.

Started by run.py from the root of a checkout.  Prints one JSON object with
its readiness time (time.monotonic, comparable across processes) and, unless
--setup-only, the run's metrics.  With --trace 1 it runs the loop twice, for
half the time each: once untraced, then with spans around every library call,
and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


_TERMS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(36)]


def fraction_convolution():
    """Reference work for in-process workloads: pure-Python Fraction
    arithmetic, like the library's kernels but sharing no code with them."""
    out = [Fraction(0)] * (2 * len(_TERMS))
    for i, a in enumerate(_TERMS):
        for j, b in enumerate(_TERMS):
            out[i + j] += a * b


class Reference:
    """Times a fixed piece of reference work every `every` seconds.

    On a shared machine the speed of the CPU drifts by tens of percent over
    minutes.  Dividing an op's latency by the reference time measured next to
    it cancels that drift; the result is in units of the reference work
    ("ref").  The reference time at a moment is the median of the last five
    samples, and an op uses the mean of that at its start and at its end.
    """

    def __init__(self, work, every):
        self.work, self.every = work, every
        self.samples = []
        self.last = float("-inf")

    def now(self):
        if perf_counter() - self.last >= self.every:
            t0 = perf_counter()
            self.work()
            self.last = perf_counter()
            self.samples.append(self.last - t0)
        return statistics.median(self.samples[-5:])


def run_loop(wl, name, seed, seconds, L, ref, tracer=None, op_table=None):
    """Whole rounds until `seconds` have passed; returns per-op latencies,
    the reference time next to each, failure descriptions and the first
    round's results."""
    latencies, refs, failures, first = [], [], [], []
    by_kind = {}
    deadline = perf_counter() + seconds
    for r, ops in enumerate(workloads.rounds(wl, name, seed)):
        if r and perf_counter() >= deadline:
            break
        for op in ops:
            ref_start = ref.now()
            if tracer is not None:
                tracer.op_id = len(op_table)
                op_table[tracer.op_id] = (op.kind, op.side, op.prec)
                tracer.open("op." + op.kind)
            t0 = perf_counter()
            try:
                result = op.run(L)
            except Exception as exc:  # a refusal or a failure, judged below
                result = exc
            latencies.append(perf_counter() - t0)
            by_kind.setdefault(op.kind, []).append(latencies[-1])
            if tracer is not None:
                tracer.close()
            refs.append((ref_start + ref.now()) / 2)
            bad = verdict(op, result)
            if bad:
                failures.append(f"round {r} {op.kind}: {bad}")
            if op.replay is not None and tracer is not None \
                    and not isinstance(result, Exception):
                tracer.open("replay." + op.kind)
                op.replay(L, result)
                tracer.close()
            if r == 0:
                first.append((op, result))
    return latencies, refs, failures, first, by_kind


def verdict(op, result):
    """None when the op's result (or refusal) is right, else why not."""
    if isinstance(result, Exception):
        if type(result).__name__ != op.refuse:
            return f"raised {type(result).__name__}: {result}"
    elif op.refuse:
        return f"returned instead of raising {op.refuse}"
    try:
        return op.check(result)
    except Exception as exc:  # the check's own library calls refused
        return f"check raised {type(exc).__name__}: {exc}"


def digest(first):
    h = hashlib.sha256()
    for i, (op, result) in enumerate(first):
        text = (workloads.canon_refusal(result) if isinstance(result, Exception)
                else op.canon(result))
        h.update(f"{i} {op.kind} {text}\n".encode())
    return h.hexdigest()


def latency_stats(latencies, refs, by_kind, tail_percentile):
    """Throughput, median and tail (nearest rank at the workload's tail
    percentile), in milliseconds and in reference units."""
    n = len(latencies)
    tail = max(0, math.ceil(tail_percentile / 100 * n) - 1)
    ms = sorted(latencies)
    rel = sorted(t / r for t, r in zip(latencies, refs))
    return {
        "ops_per_ref": n / sum(rel),
        "latency_p50_ref": statistics.median(rel),
        "latency_tail_ref": rel[tail],
        "ops_per_s": n / sum(ms),
        "latency_p50_ms": statistics.median(ms) * 1e3,
        "latency_tail_ms": ms[tail] * 1e3,
        "reference_ms": statistics.median(refs) * 1e3,
        "tail_percentile": tail_percentile,
        "samples_beyond_tail": n - 1 - tail,
        "samples": n,
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
    }


def spawn_ms(argv, env, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def field_metrics(first):
    bits, certified = [], 0
    for _, result in first:
        values = workloads.scalars(result)
        certified += len(values)
        bits.extend(workloads.bits(c) for c in values if c)
    return {
        "field.coeff_bits_max": max(bits, default=0),
        "field.coeff_bits_mean": statistics.fmean(bits) if bits else 0.0,
        "field.coeffs_certified": certified,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    name, tiny = args.workload, args.size == "tiny"
    process = workloads.cli_runner(ROOT)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if name == "cli-ds":  # process latency tracks a bare interpreter start
        ref = Reference(lambda: subprocess.run(
            [sys.executable, "-c", "pass"], env=env, capture_output=True,
            timeout=60, check=True), 0.5)
    else:
        ref = Reference(fraction_convolution, 0.25)
    wl = workloads.make(name, tiny)
    plain = tracing.Namespace(workloads.functions(process))
    next(workloads.rounds(wl, name, args.seed))  # input generation
    ref.now()
    # warm-up: one op of each kind at the tiny shape, unchecked
    warm = {op.kind: op for op in next(
        workloads.rounds(workloads.make(name, True), name, -1))}
    for op in warm.values():
        try:
            op.run(plain)
        except Exception:  # refusals are part of the round
            pass
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    report = {"ready": ready}
    pct = workloads.TAIL_PERCENTILE[name]
    if not args.trace:
        lat, refs, failures, first, by_kind = run_loop(
            wl, name, args.seed, args.seconds, plain, ref)
        report.update(latency_stats(lat, refs, by_kind, pct))
    else:
        lat, refs, failures, first, by_kind = run_loop(
            wl, name, args.seed, args.seconds / 2, plain, ref)
        untraced = latency_stats(lat, refs, by_kind, pct)["ops_per_ref"]
        tracer, op_table = tracing.Tracer(), {}
        traced = tracing.Namespace(workloads.functions(process), tracer,
                                   workloads.WORK)
        wl = workloads.make(name, tiny)
        lat2, refs2, failures2, first2, by_kind2 = run_loop(
            wl, name, args.seed, args.seconds / 2, traced, ref, tracer, op_table)
        if digest(first2) != digest(first):
            failures2.append("traced first round differs from the untraced one")
        lat, failures = lat + lat2, failures + failures2
        layers = tracing.layer_metrics(tracer, op_table)
        layers.update(field_metrics(first))
        floor = spawn_ms([sys.executable, "-c", "pass"], env)
        layers["cli.interpreter_ms"] = floor
        layers["cli.import_ms"] = spawn_ms(
            [sys.executable, "-c", "import biriordan"], env) - floor
        layers["cli.exit_mismatches"] = getattr(wl, "mismatches", 0)
        layers["trace.overhead_ratio"] = (
            latency_stats(lat2, refs2, by_kind2, pct)["ops_per_ref"] / untraced)
        report["per_layer"] = layers
        tracer.dump(os.path.join(args.out, f"spans-{name}-s{args.seed}.jsonl"))
    who = resource.RUSAGE_CHILDREN if name == "cli-ds" else resource.RUSAGE_SELF
    report.update({
        "attempted": len(lat),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "digest": digest(first),
        "digest_ops": len(first),
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
