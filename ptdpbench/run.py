#!/usr/bin/env python3
"""Builds the ptdp benchmark from this checkout's sources and runs one workload.

Usage (from the repository root):
    python3 ptdpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train-pt, train-dp-bf16, serve-chat, serve-long (ptdpbench/README.md).

The C++ binary ptdp_bench is configured and built with CMake into the
directory named by CARGO_TARGET_DIR (default .bench_build), relative to the
repository root. Build output goes to stderr. The binary's report goes to stdout; with --trace 1 its
Chrome trace is checked with tools/validate_trace.py. The last stdout line is
the JSON result {"correct", "attempted", "failed", "metrics"}; the metric names
are checked against BENCHMARK.json. Exits 0 only when every check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-pt", "train-dp-bf16", "serve-chat", "serve-long")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds ptdp_bench; returns the binary path."""
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # The generated Makefile exists only after a successful configure.
        if not os.path.exists(os.path.join(out_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", out_dir, "--target", "ptdp_bench",
                        "-j", jobs], stdout=sys.stderr, check=True, env=env)
    return os.path.join(out_dir, "ptdp_bench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(out_dir, "traces", f"{args.workload}.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"run.py: ptdp_bench exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)

    problems = []
    if proc.returncode != 0:
        problems.append(f"ptdp_bench exited {proc.returncode}")
    if trace_path is not None:
        span = "train_step" if args.workload.startswith("train") else "serve.step"
        check = subprocess.run([sys.executable,
                                os.path.join(ROOT, "tools", "validate_trace.py"),
                                trace_path, "--expect-span", span],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            problems.append("trace failed tools/validate_trace.py")
    want = expected_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        problems.append("metric names differ from BENCHMARK.json: "
                        f"missing {sorted(want - set(result['metrics']))}, "
                        f"extra {sorted(set(result['metrics']) - want)}")
    for p in problems:
        print(f"FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
