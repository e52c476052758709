#!/usr/bin/env python3
"""GreenNFV end-to-end benchmark.

Builds the perfbench binary (and the GreenNFV libraries it links) from the
source tree that contains this directory, then runs one workload:

    python3 perfbench/run.py --workload fleet-churn --seed 42 --seconds 10 --trace 0

`--workload all` runs every workload in turn and prints one table. Run it
from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), artifacts and Perfetto traces to .bench_out. The last
stdout line of a single-workload run is the JSON result object; see
perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["fleet-churn", "fleet-steady", "timeline-mega", "train-ee"]
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configures and builds the perfbench binary; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_workload(binary, workload, seed, seconds, trace):
    """Runs the perfbench binary once; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(l for l in lines if not l.startswith('{"correct"')))
        fail(f"{workload} exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines))
        fail(f"{workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} result has keys {sorted(result)}")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = os.path.abspath(build(bench_dir, build_dir))

    if args.workload != "all":
        lines, _ = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace)
        print("\n".join(lines))
        return

    rows = []
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, args.seed,
                                     args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        for name, metric in sorted(result["metrics"].items()):
            rows.append((workload, name, metric["unit"], metric["value"]))
        rows.append((workload, "failed/attempted", "count",
                     f"{result['failed']}/{result['attempted']}"))
        if not result["correct"]:
            rows.append((workload, "correct", "", "false"))
    print(f"\n{'workload':<14} {'metric':<32} {'unit':<9} value")
    for workload, name, unit, value in rows:
        text = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"{workload:<14} {name:<32} {unit:<9} {text}")


if __name__ == "__main__":
    main()
