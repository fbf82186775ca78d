"""Smoke run of every workload at the tiny size, untraced and traced.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Fails (exit 1) unless each run exits 0,
checks every result correct with no failed op, and emits exactly the metrics
BENCHMARK.json declares for its mode, each a finite number.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys


def problems(spec, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=180)
    if done.returncode:
        return [f"exit {done.returncode}: {done.stderr.strip()[-400:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    found = []
    if not result["correct"] or result["failed"]:
        found.append(f"{result['failed']} of {result['attempted']} ops failed")
    declared = spec["per_layer" if trace else "end_to_end"]
    if [(k, v["unit"]) for k, v in result["metrics"].items()] != [
            (m["name"], m["unit"]) for m in declared]:
        found.append("metrics differ from BENCHMARK.json")
    found += [f"{k} is not a finite number" for k, v in result["metrics"].items()
              if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    return found


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = problems(spec, workload, trace)
            failed = failed or bool(found)
            print(f"{'FAIL' if found else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in found), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
