#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads media-1w fleet-crowd --seeds 1 2 3 4 5

Run from the repository root. For every workload and end-to-end metric it
prints the median over the seeds and the distance between the first and
third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. Sim metrics should also repeat exactly for a repeated seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        results = [run(spec, w, s, args.trace) for s in args.seeds]
        correct = all(r["correct"] and r["failed"] == 0 for r in results)
        ok &= correct
        print(f"{w}: {len(results)} seeds, all correct: {correct}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and not spread <= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {m['name']:<28} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
