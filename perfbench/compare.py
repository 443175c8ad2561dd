#!/usr/bin/env python3
"""Compare two spread.py result sets (base, head) and flag every end-to-end
metric whose head median is worse than the base median by more than the
metric's bound in BENCHMARK.json, in the metric's "better" direction.

    python3 perfbench/compare.py BASE.json HEAD.json

Prints one line per flagged (workload, metric) row; exits 1 if any row
tripped.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flagged_rows(base, head, bench):
    """(workload, metric, base_median, head_median) rows that got worse."""
    rows = []
    for metric in bench["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in sorted(set(base) & set(head)):
            b = base[workload][name]["median"]
            h = head[workload][name]["median"]
            worse = (h - b) / b if better == "lower" else (b - h) / b
            if b and worse > bound:
                rows.append((workload, name, b, h))
    return rows


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        head = json.load(f)
    rows = flagged_rows(base, head, bench)
    for workload, name, b, h in rows:
        print("%s %s: %.6g -> %.6g" % (workload, name, b, h))
    if not rows:
        print("no metric worse than its bound")
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
