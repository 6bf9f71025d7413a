#!/usr/bin/env python3
"""Build and run the CA-RAM repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the CA-RAM libraries from
src/ plus the benchmark program) into .bench_build/; later calls rebuild
incrementally.  The program's output is passed through; its last line is the
JSON result.  Traced runs (--trace 1) also write their spans to
.bench_build/spans/<workload>.csv.  Exits non-zero, without a result line,
when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "caram_perfbench")
# One benchmark process must finish well inside three minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr (stdout stays clean)."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CA-RAM sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--", f"-j{jobs}"], BUILD_TIMEOUT_S)


def main(argv):
    build()
    args = list(argv)
    selftest = "--selftest" in args
    if not selftest and "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1" and "--workload" in args:
            name = args[args.index("--workload") + 1]
            os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
            args += ["--spans", os.path.join(BUILD, "spans", f"{name}.csv")]
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}")
    if not selftest:
        try:
            result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        except ValueError:
            fail("benchmark printed no JSON result")
        if set(result) != RESULT_KEYS:
            fail("benchmark result has the wrong keys")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
