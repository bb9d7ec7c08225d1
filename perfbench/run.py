#!/usr/bin/env python3
"""End-to-end benchmark of bundlecharge.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the library and the workload binary from source on first use
(Release, into $CARGO_TARGET_DIR or .bench_build), runs the arithmetic
self-test, then one workload. The binary's output is passed through, except
its last line: the verdict and the metric values by name. BENCHMARK.json
owns the names and units of each mode (end-to-end with --trace 0, per-layer
with --trace 1); the run must report exactly those names, and this script
prints each with its unit, then the verdict line with units attached.
Exits non-zero when the build, the self-test or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
WORKLOADS = ("bc_opt_euclid_1k", "shard_euclid_10k", "bc_opt_obstacle_200",
             "service_mix_300")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", "4", "--target",
              "perfbench_workload", "perfbench_selftest"]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr.fileno()).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def self_test(out):
    result = subprocess.run([os.path.join(out, "perfbench_selftest")],
                            stdout=sys.stderr.fileno(), timeout=60)
    if result.returncode != 0:
        fail("arithmetic self-test failed")


def declared_metrics(trace):
    """(name, unit) of the mode's metrics, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build()
    self_test(out)
    if args.self_test:
        return 0

    env = dict(os.environ, BC_THREADS="1")
    command = [os.path.join(out, "perfbench_workload"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        verdict = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(result.stdout)
        fail(f"workload exited {result.returncode} without a result line")
    values = verdict.get("metrics", {})
    declared = declared_metrics(args.trace == 1)
    missing = sorted({name for name, _ in declared} - set(values))
    unexpected = sorted(set(values) - {name for name, _ in declared})
    if missing or unexpected:
        sys.stderr.write(result.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {unexpected}")
    verdict["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in declared}
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    for name, unit in declared:
        print(f"metric {name:32s} {values[name]:.6g} {unit}")
    print(json.dumps(verdict))
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
