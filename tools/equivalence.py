#!/usr/bin/env python3
"""Equivalence matrix: rhythm_sim runs whose outputs must be byte-identical.

Usage:
    equivalence.py BUILD_DIR [OUT_DIR]

Threads, host-stage fan-out, the overlapped pipeline, explicit default
policies, fusion and fleet size may change wall-clock or modeled timing,
never the outputs they claim not to touch. Each MATRIX row is a group of
flag sets: every run writes the group's outputs (--json, --trace-out,
--digest-out) and each later run's compared outputs must equal the first
run's byte for byte. A flag set that several groups write the same
outputs for runs once. Outputs stay in OUT_DIR (default
BUILD_DIR/equivalence) as NN.<output>, NN's command line in runs.txt; a
mismatch names both runs and the differing files. Exit code 0 when all
comparisons hold and every run exits 0, 1 otherwise.
"""

import filecmp
import os
import shlex
import subprocess
import sys
from typing import NamedTuple, Optional

# Output name -> (rhythm_sim flag, file suffix).
OUTPUTS = {
    "json": ("--json", ".json"),
    "trace": ("--trace-out", ".trace.json"),
    "digest": ("--digest-out", ".digest"),
}
JT = ("json", "trace")
JD = ("json", "digest")
THREADS = (1, 8)
OFF_ON = ("off", "on")


class Group(NamedTuple):
    name: str
    writes: tuple  # outputs every run of the group writes
    runs: list  # flag sets; each later run is compared with the first
    compare: Optional[tuple] = None  # compared outputs (default: writes)


def t(n):
    return f"--sim-threads={n}"


BASE = ("--cohorts=3",)


def overlap(ty, ov, n):
    return ("--platform=titanA", f"--type={ty}", "--cohorts=10",
            "--users=2000", "--lane-sample=128", f"--overlap={ov}", t(n))


def fusion(fu, n):
    return ("--workload=banking", "--cohort-size=128", "--lane-sample=128",
            "--cohorts=30", "--arrival=poisson", "--arrival-rate=50000",
            "--contexts=1024", "--seed=7", f"--fusion={fu}", t(n))


def fleet(d, *extra):
    return ("--workload=banking", f"--devices={d}", "--arrival=poisson",
            "--arrival-rate=4000000", "--cohorts=10",
            "--cross-shard=0.005") + extra


MATRIX = [
    # The parallel engine's determinism contract: --sim-threads only
    # changes wall-clock, never results. (Memoization has no flag: the
    # C++ tests compare it with the uncached reference through
    # Engine::setProfileCache, DESIGN.md Section 6e.)
    Group("threads", JT, [BASE, BASE + (t(8),)]),
    # DESIGN.md Section 6f: handler stages run lane-parallel except the
    # audited serial ones — Login's session-creating stage and Logout's
    # session-destroying stage. These two types mix serial and parallel
    # stages in one cohort, the sharpest probe of the stage-major
    # driver's canonical merge.
    *[Group(f"host-stage-{ty}", JT,
            [BASE + (f"--type={ty}", t(n)) for n in THREADS])
      for ty in ("login", "logout")],
    # Chat and search run every stage lane-parallel (chat posts mutate
    # the room store in the serial merge): identical across threads.
    *[Group(f"host-stage-{w}", JD,
            [(f"--workload={w}", "--cohorts=3", t(n)) for n in THREADS])
      for w in ("chat", "search")],
    # DESIGN.md Section 6h: the overlapped pipeline double-buffers
    # parser batches and scissors PCIe transfers, but must never change
    # a response byte. Logout mixes a serial session-destroying stage
    # into the pipelined parse; post payee is the most PCIe-bound POST.
    # Each mode is identical across threads, and the response digest is
    # identical with overlap off and on.
    *[Group(f"overlap-{ty.replace(' ', '_')}-{ov}", JD,
            [overlap(ty, ov, n) for n in THREADS])
      for ty in ("logout", "post payee") for ov in OFF_ON],
    *[Group(f"overlap-{ty.replace(' ', '_')}", JD,
            [overlap(ty, ov, 1) for ov in OFF_ON], compare=("digest",))
      for ty in ("logout", "post payee")],
    # DESIGN.md Section 6i: every adaptive code path is gated on
    # --batching=adaptive, so an explicit --batching=fixed
    # --arrival=closed run is byte-identical to the flagless default.
    *[Group(f"adaptive-fixed-{n}", JD,
            [BASE + (t(n),),
             BASE + (t(n), "--batching=fixed", "--arrival=closed")])
      for n in THREADS],
    Group("adaptive-default-threads", JD, [BASE + (t(n),) for n in THREADS],
          compare=("json",)),
    # The adaptive flash run: every early dispatch, preemption and
    # admission decision flows from completion-fed EWMAs — the sharpest
    # single-binary probe of the determinism contract under the policy.
    Group("adaptive-flash", JD,
          [BASE + (t(n), "--batching=adaptive", "--arrival=flash",
                   "--arrival-rate=60000") for n in THREADS]),
    # DESIGN.md Section 6j: cohort fusion repacks tail warps but never
    # changes a response byte. Proven in the completion-independent
    # configuration (open-loop Poisson, fixed batching, contexts sized
    # so dispatch never waits on a completion), where cohort
    # composition is a pure function of the arrival sequence: all four
    # runs share one digest, and each arm's JSON is identical across
    # threads.
    Group("fusion-digest", JD,
          [fusion(fu, n) for fu in OFF_ON for n in THREADS],
          compare=("digest",)),
    *[Group(f"fusion-{fu}", JD, [fusion(fu, n) for n in THREADS],
            compare=("json",))
      for fu in OFF_ON],
    # DESIGN.md Section 6k: --devices=1 takes the single-Titan path
    # untouched, and an N-device fleet (per-device event streams merged
    # canonically) is identical across --sim-threads exactly like one
    # device.
    Group("fleet-d1", JT, [BASE, BASE + ("--devices=1",)]),
    *[Group(f"fleet-d{d}", JD, [fleet(d, t(1)), fleet(d, t(8))])
      for d in (2, 4)],
]


def main(argv):
    if len(argv) not in (2, 3):
        raise SystemExit(__doc__)
    sim = os.path.join(argv[1], "tools", "rhythm_sim")
    out = argv[2] if len(argv) == 3 else os.path.join(argv[1], "equivalence")
    os.makedirs(out, exist_ok=True)

    runs = {}  # (flags, writes) -> file stem, in first-use order
    for group in MATRIX:
        for flags in group.runs:
            runs.setdefault((flags, group.writes),
                            os.path.join(out, f"{len(runs):02d}"))

    failures = []
    with open(os.path.join(out, "runs.txt"), "w") as index:
        for (flags, writes), stem in runs.items():
            files = {o: stem + OUTPUTS[o][1] for o in writes}
            for path in files.values():  # no stale output can pass
                if os.path.exists(path):
                    os.remove(path)
            cmd = [sim, *flags] + [
                f"{OUTPUTS[o][0]}={path}" for o, path in files.items()]
            index.write(f"{os.path.basename(stem)}: {shlex.join(cmd)}\n")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                failures.append(f"{shlex.join(cmd)} exited "
                                f"{proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")

    compared = 0
    for group in MATRIX:
        ref = group.runs[0]
        for flags in group.runs[1:]:
            for o in group.compare or group.writes:
                a = runs[(ref, group.writes)] + OUTPUTS[o][1]
                b = runs[(flags, group.writes)] + OUTPUTS[o][1]
                compared += 1
                if not (os.path.exists(a) and os.path.exists(b)
                        and filecmp.cmp(a, b, shallow=False)):
                    failures.append(
                        f"{group.name}: {o} differs\n"
                        f"  rhythm_sim {shlex.join(ref)} -> {a}\n"
                        f"  rhythm_sim {shlex.join(flags)} -> {b}")

    for msg in failures:
        print(f"FAIL: {msg}")
    print(f"equivalence: {len(runs)} runs, {compared} comparisons, "
          f"{len(failures)} failure(s); outputs in {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
