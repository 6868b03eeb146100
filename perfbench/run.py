#!/usr/bin/env python3
"""Build and run the tacos benchmark harness.

    python3 perfbench/run.py --workload <paper-sweep|eval-stream|power-sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the harness (perfbench/CMakeLists.txt,
which compiles the library from ../src) into .bench_build/perfbench, runs
one workload in its own process, and relays its output: the last line of
stdout is one JSON object with "correct", "attempted", "failed" and
"metrics".  Build output goes to stderr.  The exit code is the harness's
(1 when the correctness gate fails), or 1 when the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
