#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and compiles the
program's runtime libraries and the benchmark binary (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The binary's output is passed through; its last line
is the result object {"correct", "attempted", "failed", "metrics"}. Traced
runs also write their spans and ledger under <build dir>/traces/.

Workload parameters (kernels, thread budget, set-up repetitions, server rates
and latency limit) live in perfbench/workloads.json. The benchmark refuses to
run with any CIP_* variable set, because those select other program paths.

Exit codes: 0 all outputs correct, 1 a wrong output, a failed build or a
timeout, 2 bad arguments or environment.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(1, "build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def source_revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def binary_args(args, config, out_dir):
    wl = config["workloads"][args.workload]
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(config["threads"]),
           "--setup-reps", str(wl["setup_reps"]),
           "--commit", source_revision()]
    if "rates_rps" in wl:
        rates = wl["rates_rps"]
        cmd += ["--rates", ",".join(repr(rates[p]) for p in ("low", "mid", "high")),
                "--latency-limit", repr(wl["latency_limit_s"]),
                "--min-requests", str(wl["min_requests_per_rate"])]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    return cmd


def main():
    config = load_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(config["workloads"]))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")
    knobs = sorted(k for k in os.environ if k.startswith("CIP_"))
    if knobs:
        fail(2, "refusing to measure a reconfigured program; unset "
             + ", ".join(knobs))
    if config["threads"] > (os.cpu_count() or 1):
        fail(2, f"thread budget {config['threads']} exceeds nproc")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary] + binary_args(args, config, out_dir)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail(1, f"benchmark binary exited {proc.returncode} without a result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
