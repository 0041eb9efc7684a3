#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload closed-titanB --seed 1 \
        --seconds 20 --trace 0

Every argument is passed to perfbench_driver, which validates it
(malformed or out-of-range input: "error: ..." and exit 2). The last
line of standard output is the driver's JSON result. Build output goes
to .bench_build/perfbench-build.log and, on failure, to standard error.

    python3 perfbench/run.py --selftest [workload...]

builds and runs the benchmark's own tests instead.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench-build.log"


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    with open(LOG, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                tail = LOG.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {LOG})")
    return BUILD / target


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = sys.argv[1:]
    if args[:1] == ["--selftest"]:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)] + args[1:], cwd=ROOT).returncode)
    binary = build("perfbench_driver")
    sys.exit(subprocess.run([str(binary)] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
