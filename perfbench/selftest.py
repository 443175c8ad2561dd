#!/usr/bin/env python3
"""Self-test of the benchmark's gate.

1. A/A: two result sets of the same build must flag nothing.
2. Injected slowdown: a spin added through the benchmark's own substrate
   wrapper to every substrate call of pop_pool only must flag tune_s and
   evals_per_s on pop_pool and nothing on any other workload.
3. Intermittent slowdown: a longer spin on every 8th substrate call of
   pop_pool only (one evaluation in eight stalls) must flag the tail,
   rt_p90_ms, on pop_pool and nothing on any other workload.

    python3 perfbench/selftest.py [--seeds 1-3] [--seconds S] [--delay-us 300]
                                  [--stall-us 1000]

Runs last BENCHMARK.json's run_seconds unless --seconds says otherwise: the
A/A half is only meaningful at the length the gate itself measures. The sets
are interleaved: for every workload and seed, the runs of all sets follow
each other (in an order that rotates with the seed), so a slow phase of a
shared host lands on every set alike instead of on whichever set ran in it.

Exits 0 when all three hold; prints the rows that tripped either way.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import flagged_rows  # noqa: E402
from spread import ROOT, parse_seeds, run_once  # noqa: E402

INJECTED = "pop_pool"


def result_sets(workloads, seeds, seconds, variants):
    """Run the variants on every (workload, seed), interleaved, and return one
    table of per-metric medians per variant. A variant is None (no injection)
    or (delay_us, every), which only INJECTED runs; on the other workloads an
    injecting variant reads the last uninjected variant's runs."""
    plain = max(v for v, inject in enumerate(variants) if inject is None)
    runs = [{} for _ in variants]
    for workload in workloads:
        active = [v for v, inject in enumerate(variants)
                  if inject is None or workload == INJECTED]
        for i, seed in enumerate(seeds):
            k = i % len(active)
            for v in active[k:] + active[:k]:
                inject = variants[v]
                extra = () if inject is None else (
                    "--inject-delay-us", str(inject[0]), "--inject-every", str(inject[1]))
                r = run_once(workload, seed, seconds, extra=extra)
                if not r["correct"]:
                    raise RuntimeError("%s produced an incorrect run" % workload)
                runs[v].setdefault(workload, []).append(r)
        for v in range(len(variants)):
            runs[v].setdefault(workload, runs[plain][workload])
    return [{w: {name: {"median": statistics.median(r["metrics"][name]["value"] for r in rs)}
                 for name in rs[0]["metrics"]}
             for w, rs in table.items()}
            for table in runs]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    # About 1.5x a median POP short run, so the slowdown dwarfs run-to-run noise.
    ap.add_argument("--delay-us", type=float, default=300.0)
    # A stall must outgrow the spread of the short-run times (p90 about 2x
    # the median) to move their p90 by more than its bound.
    ap.add_argument("--stall-us", type=float, default=1000.0)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    checks = [((args.delay_us, 1), {"tune_s", "evals_per_s"}),
              ((args.stall_us, 8), {"rt_p90_ms"})]
    base, again, *slowed = result_sets(workloads, seeds, args.seconds,
                                       [None, None] + [inject for inject, _ in checks])
    aa = flagged_rows(base, again, bench)
    print("A/A: %s" % (aa or "nothing flagged"))

    ok = not aa
    for ((delay_us, every), must_trip), table in zip(checks, slowed):
        rows = flagged_rows(base, table, bench)
        print("injected %.0f us on every %d. substrate call of %s: %s"
              % (delay_us, every, INJECTED, rows))
        tripped = {(w, m) for w, m, _, _ in rows}
        ok &= {(INJECTED, m) for m in must_trip} <= tripped
        ok &= all(w == INJECTED for w, _ in tripped)
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
