#!/usr/bin/env python3
"""Builds and runs the SNE end-to-end benchmark.

    python3 perfbench/run.py --workload gesture-offline --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The harness (perfbench/src) and the simulator
sources (src/) are compiled together as a Release build into the directory
named by CARGO_TARGET_DIR (default .bench_build); the binary's stdout is
passed through, and its last line is the JSON result. The metric names in
that line are checked against BENCHMARK.json. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gesture-offline", "gateway-infer", "gateway-session")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "sne_perfbench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.cpp")):
        return fail("simulator sources (src/) not found next to perfbench/", 2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return fail("build failed")

    cmd = [os.path.join(build_dir, "sne_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return fail(f"sne_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        return fail("last output line is not the JSON result")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        sys.stderr.write(proc.stdout)
        return fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
