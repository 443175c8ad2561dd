#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload pop_pool --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call builds the benchmark program
(and the repository libraries it links) into .bench_build/perfbench with CMake; later
calls rebuild only what changed.

The last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The same object, plus a machine fingerprint, is saved under
.bench_build/results/, beside the run's full output. Exits non-zero without
a result line when the build or the run fails, or when the metrics printed
differ from those BENCHMARK.json declares.
"""

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("petsc_sles32", "pop_pool", "gs2_fleet", "server_online")
RUN_TIMEOUT_S = 170


def build():
    """Configure until it succeeds once, then let make decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return False
    return os.path.exists(BINARY)


def fingerprint():
    """Machine fingerprint saved with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout.splitlines()
        if version:
            compiler = version[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type, "kernel": platform.release()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-delay-us", type=float, default=0.0,
                    help="self-test: spin this long in substrate calls")
    ap.add_argument("--inject-every", type=int, default=1,
                    help="self-test: spin on every N-th substrate call only")
    args = ap.parse_args()

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inject-delay-us", repr(args.inject_delay_us),
           "--inject-every", str(args.inject_every)]
    start = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: %s exited with %d\n" % (args.workload, proc.returncode))
        return 1
    result = json.loads(lines[-1])
    # The program's metric set must be the one BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(set(result["metrics"]) ^ declared))
        return 1
    fp = fingerprint()
    for line in lines[:-1]:
        print(line)
    print("machine: " + json.dumps(fp))
    print("wall: %.1f s" % (time.time() - start))

    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "machine": fp, "result": result}, f, indent=1)
    with open(os.path.join(results, name + ".log"), "w") as f:
        f.write(proc.stdout)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
