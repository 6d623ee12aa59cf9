#!/usr/bin/env python3
"""Builds and runs the CG-KGR loop benchmark (see NOTES.md).

    python3 perfbench/run.py --workload pipeline --seed 3 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench, runs one workload in .bench_work/, and passes
the benchmark's stdout through: its last line is the JSON result. Build
output goes to stderr. Exits non-zero, printing no result, when the
sources are missing or the build fails.
"""

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
BINARY = BUILD_DIR / "cgkgr_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group and returns its exit code.

    On timeout the whole group (make's compilers included) is killed and
    reaped, and the code is 1.
    """
    proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s exceeded %d s" % (command[0], timeout),
              file=sys.stderr)
        return 1


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources at %s" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "cgkgr_perfbench", "-j", jobs])
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr):
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--short", action="store_true",
                        help="self-test mode: one round of at most 3 epochs")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work_dir", str(WORK_DIR)]
    if args.short:
        command.append("--short")
    sys.stdout.flush()
    code = run(command, RUN_TIMEOUT_S)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
