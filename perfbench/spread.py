#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, for every
end-to-end metric, the median and the interquartile spread as a share of the
median (statistics.quantiles(values, n=4)), against the metric's bound in
BENCHMARK.json. A metric passes when its spread is within its bound; the
target is a third of the bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads pop_pool,gs2_fleet]
                                [--out .bench_build/spread.json]

Exits 1 when a run fails, a run is incorrect, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "spread.json"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    table = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect (%d failed)" % (workload, seed, result["failed"]))
                ok = False
            runs.append(result)
        table[workload] = {}
        print("%s (%d seeds)" % (workload, len(seeds)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, s = spread(values)
            table[workload][name] = {"values": values, "median": med, "spread": s}
            verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if s > bound:
                ok = False
            print("  %-18s median %-14.6g spread %6.3f  bound %.2f  %s"
                  % (name, med, s, bound, verdict))
        sys.stdout.flush()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(table, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
