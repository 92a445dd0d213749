#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with another seed, and reports for every end-to-end metric the
median and the quartile spread (Q3 - Q1, as statistics.quantiles(n=4) gives
them) as a share of the median, against the metric's bound. Run it from the
root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --json set1.json
    python3 perfbench/steadiness.py --runs 10 --json set2.json --compare set1.json

A set passes when every spread is within its metric's bound; with
--compare it also fails when a median is worse than the earlier set's by
more than the bound. Exit code 1 on failure.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--json", help="write the medians and spreads here")
    ap.add_argument("--compare", help="an earlier --json file to compare medians against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    ok = True
    summary = {}
    for w in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            res = run_once(bench["command"], w, args.first_seed + i, bench["run_seconds"], 0)
            if not res["correct"]:
                ok = False
                print(f"{w} seed {args.first_seed + i}: correct=false")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        summary[w] = {}
        for m, spec in bounds.items():
            vs = values[m]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > spec["bound"]:
                verdict, ok = "SPREAD", False
            prev = earlier.get(w, {}).get(m)
            if prev is not None:
                worse = (med - prev["median"]) / prev["median"]
                if spec["better"] == "higher":
                    worse = -worse
                if worse > spec["bound"]:
                    verdict, ok = "WORSE", False
            summary[w][m] = {"median": med, "spread": spread, "values": vs}
            print(f"{w:14s} {m:14s} median {med:12.6g} spread {spread:7.4f} "
                  f"bound {spec['bound']:.2f} (1/3: {spec['bound'] / 3:.3f}) {verdict}")
            sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
