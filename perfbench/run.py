#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dma_mix --seed 1 --seconds 20 --trace 0

The first call configures and builds the simulator libraries from src/
plus the perfbench binary (CMake, Release) under the build directory
named by CARGO_TARGET_DIR (default .bench_build); later calls only
re-check the build. The binary's stdout is passed through; its last line
is the JSON result. Build output goes to stderr. Without the simulator
sources next to this directory the script exits with status 2 and prints
no result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NUM_WORKLOADS = 4  # what "--workload all" runs


def guard_budget(seconds):
    """Host budget of one workload run, as the binary's hang guard
    (HangGuard::budget in main.cc) computes it."""
    return min(165.0, seconds + 120.0)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build once; serialized by a lock so concurrent
    invocations in one checkout never race on the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build step failed: %s" % " ".join(cmd))
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench binary")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", os.path.join(ROOT, ".perfbench")]
    # Time out just after the hang guard's budget, so the guard gets to
    # print its result first.
    runs = NUM_WORKLOADS if args.workload == "all" else 1
    timeout = runs * guard_budget(args.seconds) + 5
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench did not finish within %.0f s" % timeout, 1)
    text = out.decode(errors="replace")
    sys.stdout.write(text)
    sys.stdout.flush()

    lines = [l for l in text.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        fail("perfbench exited %d after %.1f s without a result"
             % (proc.returncode, time.monotonic() - start), 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
