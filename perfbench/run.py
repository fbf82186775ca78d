"""Benchmark entry point; run it from the root of a biriordan checkout:

    python3 perfbench/run.py --workload series-q --seed 1 --seconds 20 --trace 0

Starts several workers to time set-up (the median is `setup_s`), lets the
last one run the closed loop, and prints a provenance/report line followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones.  Run files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


def start_worker(args, out_dir, setup_only):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--out", out_dir]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=60 if setup_only else 170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["ready"] - started, report


def provenance(seed):
    def git(*cmd):
        try:
            return subprocess.run(["git", *cmd], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    commit = None
    if os.path.realpath(git("rev-parse", "--show-toplevel") or "/nonexistent") \
            == os.path.realpath(os.getcwd()):
        commit = git("rev-parse", "HEAD") or None
    src = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk("src/biriordan")):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                src.update(path.encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every op, for the smoke run")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "biriordan", "__init__.py")):
        print("perfbench: run from the root of a biriordan checkout "
              "(src/biriordan not found)", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    # set-up is timed on untraced runs only
    setups = [start_worker(args, out_dir, True)[0]
              for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    setup, report = start_worker(args, out_dir, False)
    setups.append(setup)

    if args.trace:
        values = report["per_layer"]
    else:
        values = dict(report, setup_s=statistics.median(setups),
                      success_rate=1 - report["failed"] / report["attempted"])
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "setup_samples_s": setups,
        "error_rate": report["failed"] / report["attempted"],
        **{k: report.get(k) for k in (
            "ops_per_s", "latency_p50_ms", "latency_tail_ms", "reference_ms",
            "tail_percentile", "samples_beyond_tail", "samples",
            "kind_p50_ms")},
        "digest": report["digest"],
        "digest_ops": report["digest_ops"],
        "failures": report["failures"],
        "metrics": metrics,
    }
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(summary, fh, indent=1)
    print("perfbench report: " + json.dumps(
        {k: v for k, v in summary.items() if k != "metrics"}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
