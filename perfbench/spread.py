#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and spread (interquartile range over median), next to its bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload serve-2d --seeds 1-5

Run from the repository root. Builds through the same command the
benchmark is declared with, so set CARGO_TARGET_DIR as for a normal run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        t0 = time.monotonic()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        wall = time.monotonic() - t0
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        steal = next((w.split("=")[1] for l in lines if l.startswith("meta ")
                      for w in l.split() if w.startswith("host_steal_frac=")), "?")
        print(f"seed {seed}: wall {wall:.1f}s host_steal_frac={steal} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<44} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<44} {med:>14.6g} {spread:>8.3f} {bound if bound is not None else '-':>6}{flag}")
        if args.values:
            print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
