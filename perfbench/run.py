#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build, runs it, checks
its result line against BENCHMARK.json (every end-to-end metric for
--trace 0, every per-layer metric for --trace 1, each with its unit)
and prints the program's report followed by the result as the last
line. Exits non-zero, without a result line, when the checkout cannot
be built or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"

TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout):
    """Run cmd to completion; the child is killed and reaped on timeout."""
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def check_result(line, spec, traced):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    wanted = spec["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        missing = sorted({m["name"] for m in wanted} - set(got))
        extra = sorted(set(got) - {m["name"] for m in wanted})
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unlisted {extra}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got[m['name']]['unit']}, BENCHMARK.json says {m['unit']}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench/test_run.py")
    args = ap.parse_args()

    for need in ("BENCHMARK.json", "dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET], BUILD_TIMEOUT)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = run(cmd, RUN_TIMEOUT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = check_result(lines[-1], spec, args.trace == 1)
    print(f"host: nproc={os.cpu_count()}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
