#!/usr/bin/env python3
"""Builds and runs the two-node block-lifecycle benchmark.

    python3 e2ebench/run.py --workload mainnet --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --selftest

Run from the root of a checkout.  Each call configures and builds the
benchmark (and the repository's libraries it links) with CMake under
$CARGO_TARGET_DIR, default .bench_build; only the first call compiles
everything, later ones rebuild what changed.  Build output goes to
stderr.  The benchmark's own output goes to stdout, and its last line is
one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and the
per-layer metrics with --trace 1.  A failed build, a failed correctness
check, or a traced run whose trace file does not parse exits non-zero
without printing that line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(out_dir):
    """Configures and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "e2ebench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from correct/attempted/failed/metrics"
    if result["correct"] is not True or result["attempted"] < 1:
        return "result is not a correct run"
    missing = set(expected_metrics(trace)) ^ set(result["metrics"])
    if missing:
        return ("metrics differ from BENCHMARK.json: " +
                ", ".join(sorted(missing)))
    return None


def check_trace(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return "trace file %s does not parse: %s" % (path, e)
    if not events:
        return "trace file %s holds no spans" % path
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["mainnet", "feewar", "compute"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([binary, "--selftest", "--db-root", out_dir],
                              timeout=RUN_TIMEOUT_S).returncode

    trace_out = os.path.join(out_dir, "trace-%s.json" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--db-root", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("e2ebench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode
    error = check_result(lines[-1], args.trace)
    if error is None and args.trace:
        error = check_trace(trace_out)
    if error is not None:
        sys.stderr.write(proc.stdout)
        print("e2ebench: " + error, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
