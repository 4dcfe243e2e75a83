#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2e_bench/run.py --workload analytics --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library and the measuring driver
from source into .bench_build/ (or $CARGO_TARGET_DIR), prepares the seeded
inputs for the workload (cached per seed under .bench_build/inputs/), runs
the driver, and prints its result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes a Chrome trace to .bench_build/out/). Exits
non-zero, without a result line, when the build, the preparation or the run
cannot complete; exits non-zero after the result line when an output check
failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "out-of-core", "update-stream")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[e2e_bench] {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd with its output on stderr; True when it exits 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build(build_dir):
    return (call(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) and
            call(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "e2e_driver"], BUILD_TIMEOUT_S))


def prepare(driver, inputs_root, workload, seed):
    """Returns the input directory for (workload, seed), preparing it once.
    Inputs of the workload's other seeds are removed to bound disk use."""
    name = f"{workload}-seed{seed}"
    final = os.path.join(inputs_root, name)
    if os.path.exists(os.path.join(final, "READY")):
        return final
    os.makedirs(inputs_root, exist_ok=True)
    for old in os.listdir(inputs_root):
        if old.startswith(workload + "-seed") and old != name:
            shutil.rmtree(os.path.join(inputs_root, old), ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    started = time.monotonic()
    if not call([driver, "prepare", "--workload", workload, "--seed",
                 str(seed), "--dir", final], RUN_TIMEOUT_S):
        return None
    open(os.path.join(final, "READY"), "w").close()
    log(f"prepared {name} in {time.monotonic() - started:.1f} s")
    return final


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(stdout, trace):
    """The driver's JSON result, restricted to the metrics BENCHMARK.json
    names. Per-layer metrics of layers a workload does not exercise are
    reported as 0; a missing end-to-end metric is an error."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    measured = result["metrics"]
    metrics = {}
    for m in expected_metrics(trace):
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                log(f"driver did not report {m['name']}")
                return None
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1
    driver = os.path.join(build_dir, "e2e_driver")
    inputs = prepare(driver, os.path.join(build_dir, "inputs"),
                     args.workload, args.seed)
    if inputs is None:
        log("input preparation failed")
        return 1
    cmd = [driver, "run", "--workload", args.workload, "--input", inputs,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    try:
        result = result_line(proc.stdout, args.trace == 1)
    except (ValueError, KeyError) as e:
        log(f"unreadable driver output: {e}")
        result = None
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
