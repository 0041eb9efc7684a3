#!/usr/bin/env python3
"""Host ledger: wall time and peak RSS of a fixed bench set.

Runs fig8, fig9, sec62, bench_sim_speedup, ext_sharding --quick and
ext_recovery --quick at --sim-threads 1 and 4 from an existing build
tree, and records each run's wall time and peak RSS (the child's own
rusage, from os.wait4) under one label of a JSON ledger:

    python3 tools/perf_ledger.py --build build --label change \\
        --out ledger.json [--reps 3]

An existing ledger file keeps its other labels, so the same file can
hold a "parent" and a "change" side measured from two checkouts. The
numbers are host measurements: they vary with the machine and its load
and are never compared byte for byte. Build the tree in Release for
numbers that match perfbench. A bench that exits nonzero fails the
ledger run (exit 1).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (ledger name, binary under <build>/bench, extra arguments)
BENCHES = [
    ("fig8", "fig8_throughput_efficiency", []),
    ("fig9", "fig9_pcie_bound", []),
    ("sec62", "sec62_scaling", []),
    ("bench_sim_speedup", "bench_sim_speedup", []),
    ("ext_sharding_quick", "ext_sharding", ["--quick"]),
    ("ext_recovery_quick", "ext_recovery", ["--quick"]),
]
THREADS = [1, 4]


def run_once(cmd):
    """Runs @cmd with output discarded; returns (exit code, wall s, MB)."""
    start = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # Reaped here, so tell Popen the child is gone.
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def build_type(build):
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        return "unknown"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1] or "unset"
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build",
                    help="build tree holding bench/<binary> (default build)")
    ap.add_argument("--label", required=True,
                    help="ledger section to write, e.g. parent or change")
    ap.add_argument("--out", required=True, help="ledger JSON file")
    ap.add_argument("--reps", type=int, default=3,
                    help="runs per bench and thread count (default 3)")
    args = ap.parse_args()

    if args.reps < 1:
        ap.error("--reps must be at least 1")
    build = Path(args.build).resolve()
    for _, binary, _ in BENCHES:
        if not (build / "bench" / binary).is_file():
            ap.error(f"{build / 'bench' / binary} is missing: build first")

    runs = {}
    failed = False
    for name, binary, extra in BENCHES:
        for t in THREADS:
            cmd = [str(build / "bench" / binary), *extra, f"--sim-threads={t}"]
            walls, rss = [], []
            for _ in range(args.reps):
                code, wall, mb = run_once(cmd)
                if code != 0:
                    print(f"error: {' '.join(cmd)} exited {code}",
                          file=sys.stderr)
                    failed = True
                walls.append(round(wall, 3))
                rss.append(round(mb, 1))
            key = f"{name}@{t}t"
            runs[key] = {
                "args": extra + [f"--sim-threads={t}"],
                "wall_s": walls,
                "wall_s_median": round(statistics.median(walls), 3),
                "peak_rss_mb": rss,
                "peak_rss_mb_max": max(rss),
            }
            print(f"{key:28s} wall {statistics.median(walls):7.2f} s "
                  f"(min {min(walls):.2f}, max {max(walls):.2f})  "
                  f"rss {max(rss):7.1f} MB", flush=True)

    out = Path(args.out)
    ledger = json.loads(out.read_text()) if out.is_file() else {}
    ledger[args.label] = {
        "host": {
            "cpus": os.cpu_count(),
            "cpu_model": cpu_model(),
            "build_type": build_type(build),
            "reps": args.reps,
        },
        "runs": runs,
    }
    out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
