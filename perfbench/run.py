#!/usr/bin/env python3
"""Builds and runs the FXRZ end-to-end benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <dump|serve|bulk> --seed <n> \
      --seconds <s> --trace <0|1>

builds the library and the benchmark from source into .bench_build/ (the
first run configures and compiles; later runs only check that the build is
current), then runs one workload and passes its output through. The last
line of standard output is the JSON result record.

  python3 perfbench/run.py --steady <N> --workload <w> [--seconds <s>]
      [--first-seed <k>]

is the steadiness mode: it runs the workload untraced on N consecutive
seeds, prints the median and quartiles of every end-to-end metric with the
quartile spread as a share of the median, then runs the first seed once
traced and prints the tracing overhead on request_p50_ms.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fxrz_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        print("run.py: run from the root of an FXRZ checkout (CMakeLists.txt, "
              "src/ and perfbench/ are needed)", file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fxrz_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the benchmark's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_once(workload, seed, seconds, trace, echo):
    """Runs the binary; returns (exit code, stdout text)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def text_metrics(stdout):
    """Every `metric <name> <value> <unit>` line of a run, as a dict."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = float(parts[2])
    return out


def steady(args):
    seeds = range(args.first_seed, args.first_seed + args.steady)
    values = {}
    failed_shares = set()
    for seed in seeds:
        code, stdout = run_once(args.workload, seed, args.seconds, False, False)
        if code != 0:
            print(f"seed {seed}: exit code {code}", file=sys.stderr)
            return code
        record = json.loads(stdout.strip().splitlines()[-1])
        if not record["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
            return 1
        failed_shares.add(record["failed"] / record["attempted"])
        for name, m in record["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {record['attempted']} "
              f"failed {record['failed']}", flush=True)
    print(f"\n{args.workload}: {args.steady} runs of {args.seconds} s, "
          f"failed shares {sorted(failed_shares)}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
          "  per-seed values")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{name:<20} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{(q3 - q1) / med:8.4f}  " + " ".join(f"{x:.4g}" for x in v))

    code, traced = run_once(args.workload, args.first_seed, args.seconds,
                            True, False)
    if code != 0:
        print(f"traced run: exit code {code}", file=sys.stderr)
        return code
    layers = text_metrics(traced)
    print(f"\ntraced run (seed {args.first_seed}):")
    for name, value in layers.items():
        if name not in values:
            print(f"  {name:<34} {value:.5g}")
    # One run moves by several percent with the host's speed, so the traced
    # run is set against the median of all the untraced ones.
    untraced = statistics.median(values["request_p50_ms"])
    with_trace = layers["trace.request_p50_ms"]
    print(f"\ntracing overhead on request_p50_ms: {untraced:.5g} ms untraced "
          f"(median of {args.steady} runs), {with_trace:.5g} ms traced "
          f"(seed {args.first_seed}), {100 * (with_trace / untraced - 1):+.2f}%")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["dump", "serve", "bulk"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.steady == 1:
        parser.error("--steady needs at least two runs for its quartiles")
    if not build():
        return 1
    if args.steady:
        return steady(args)
    code, _ = run_once(args.workload, args.seed, args.seconds,
                       bool(args.trace), True)
    return code


if __name__ == "__main__":
    sys.exit(main())
