#!/usr/bin/env python3
"""Builds mmmbench from this checkout and runs one workload of it.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root and is reused by later runs; the store, the
run envelope and the trace are written there too. Prints mmmbench's report,
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). Exits non-zero, without that line, if the
benchmark cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    """Configures (once) and builds mmmbench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench", "suite"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "mmmbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "mmmbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "mmmbench")
    # Compiler and runtime temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    if binary is None:
        print("mmmbench did not build", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]

    envelope_path = os.path.join(build_dir, "envelope-%s.json" % args.workload)
    if os.path.exists(envelope_path):
        os.remove(envelope_path)
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--json=" + envelope_path,
               "--workdir=" + os.path.join(build_dir, "work")]
    if args.trace:
        command.append("--trace=" + os.path.join(build_dir,
                                                 "trace-%s.json" % args.workload))
    try:
        code = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stdout,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("mmmbench timed out", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if not os.path.exists(envelope_path):
        print("mmmbench wrote no results", file=sys.stderr)
        return 1
    with open(envelope_path) as f:
        result = json.load(f)["workloads"][args.workload]

    metrics = {}
    for metric in listed:
        measured = result["metrics"].get(metric["name"])
        if measured is not None:
            metrics[metric["name"]] = {"value": measured["value"],
                                       "unit": measured["unit"]}
    correct = code == 0 and result["failed"] == 0 and len(metrics) == len(listed)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
