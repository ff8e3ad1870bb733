#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; build output goes to stderr so that the last line of
standard output is the program's JSON result. The traced run also writes its
spans to <build dir>/traces/<workload>-seed<n>.json. Exits non-zero when
the build fails, the arguments are invalid or a result check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_checked(cmd, BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_checked(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "perfbench")


def flag_value(argv, flag):
    for i in range(len(argv) - 1):
        if argv[i] == flag:
            return argv[i + 1]
    return None


def main(argv):
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary] + argv
    if flag_value(argv, "--trace") == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag_value(argv, "--workload"),
                                   flag_value(argv, "--seed"))
        cmd += ["--trace-out", os.path.join(traces, os.path.basename(name))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
