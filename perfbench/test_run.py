#!/usr/bin/env python3
"""The benchmark's own test: a tiny run of every workload prints every
metric BENCHMARK.json names, with its unit, plus the run stamp, the
output digest and the workload's named end-to-end figures; and a
directory holding only the benchmark fails without a result line.

Run from the root of a checkout:

    python3 perfbench/test_run.py

Takes well under a minute (inputs are shrunk with --smoke).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

# The end-to-end figures each workload prints under their own names on "named"
# lines, next to the gated generic metrics.
NAMED = {
    "embed-cold": ["embed_nodes_per_s", "embed_op_p50_s", "bound_misses", "error_rate"],
    "serve-hot": ["serve_rps", "serve_rtt_p50_ms", "serve_rtt_p99_ms", "serve_rtt_samples", "error_rate"],
    "netsim": ["sim_hops_per_s", "sim_case_p50_ms", "sim_slowdown_max", "error_rate"],
}


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_workload(spec, workload, trace):
    p = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert p.returncode == 0, f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr}"
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines), m
        if not trace:
            assert got["value"] > 0, f"{workload}: end-to-end metric {m['name']} is {got['value']}"
    assert len(result["metrics"]) == len(wanted)
    stamp = next(line for line in lines if line.startswith("stamp: "))
    for key in ("cpus=", "domain_budget=", "seed=7", "ocaml="):
        assert key in stamp, (key, stamp)
    assert any(line.startswith("host: nproc=") for line in lines)
    assert any(line.startswith("digest: ") and len(line) == len("digest: ") + 32 for line in lines)
    for name in NAMED[workload]:
        assert any(line.startswith(f"named {name} = ") for line in lines), (workload, name)


def check_digest_is_deterministic(workload):
    def digest():
        p = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"])
        return next(line for line in p.stdout.splitlines() if line.startswith("digest: "))
    assert digest() == digest(), workload


def check_bare_directory_fails():
    with tempfile.TemporaryDirectory(dir=".") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        p = run(["--workload", "netsim", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert p.returncode != 0
        assert p.stdout.strip() == "", p.stdout


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(NAMED)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
            print(f"ok {w['name']} trace={trace}")
    check_digest_is_deterministic("serve-hot")
    print("ok digest is deterministic")
    check_bare_directory_fails()
    print("ok bare directory fails without a result")


if __name__ == "__main__":
    main()
