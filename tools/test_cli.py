#!/usr/bin/env python3
"""Command-line boundary checks for rhythm_sim, every bench binary and
the example programs.

Each binary's --help is generated from its option table, so the help
text is the list of flags to probe:

  test_cli.py boundary BUILD_DIR
      For every flag a binary declares, non-numeric, nan, -1, 1e30 and
      3x values, plus one unknown and one repeated flag, must each exit
      2 with `error:` on stderr -- never 0, never a signal. So must the
      shared-family flags a bench does not read (UNDECLARED). Each example
      program's positional integers get the same bad values, each
      position's out-of-range values, and one surplus argument. A
      flagless run of each HELP_DEFAULTS bench must record each flag
      it records under the flag's name at its --help default.
  test_cli.py edges BUILD_DIR
      rhythm_sim at --cohorts=1 --cohort-size=64 with each numeric
      flag at, and just outside, both ends of its declared range must
      exit 0 or 2 -- never a signal.
  test_cli.py docs BUILD_DIR SOURCE_DIR
      Every --flag named in README.md, DESIGN.md and EXPERIMENTS.md
      exists in some binary's table.

micro_simulator is not probed: it hands its arguments to
google-benchmark, which rejects unknown ones itself.
"""

import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

BAD_VALUES = ["abc", "nan", "-1", "1e30", "3x"]

# Flags of other programs the documents name (check_bench.py, ctest and
# cmake command lines), which no option table declares.
FOREIGN_FLAGS = {"host-tolerance", "test-dir", "build"}

# rhythm_sim flags whose upper range edge scales the run itself (a
# million cohorts, ten million bank users); only their edge just above
# the range, which is rejected at parse time, is run.
SCALE_FLAGS = {"cohorts", "users"}

# Example programs take positional integers instead of flags: the number
# of positions, and argument lists with one value just outside its range
# (earlier positions hold the in-range value 1).
EXAMPLES = {
    "banking_server": (3, [["0"], ["100001"], ["1", "0"], ["1", "10001"],
                           ["1", "1", "0"], ["1", "1", "65537"]]),
    "search_server": (3, [["0"], ["1000001"], ["1", "0"],
                          ["1", "10000001"], ["1", "1", "0"],
                          ["1", "1", "65537"]]),
    "platform_explorer": (1, [["14"]]),
    "similarity_study": (1, [["0"], ["1001"]]),
}

# Shared-family flags these benches never read, so do not declare: each
# must be rejected as unknown (exit 2, error:), not accepted and ignored.
SHAPE = ["--arrival=flash", "--flash-start-ms=1", "--flash-dur-ms=1",
         "--diurnal-period-ms=10", "--diurnal-trough=0.5"]
NO_RECOVERY = ["--recovery", "--checkpoint-interval=10"]
UNDECLARED = {
    "ext_sharding": SHAPE + ["--devices=2", "--balance=least",
                             "--cross-shard=0.1", "--flash-mult=2"],
    "ext_overlap": ["--overlap=on"],
    "ext_adaptive_batching": SHAPE + NO_RECOVERY + [
        "--batching=adaptive", "--deadline-default-ms=5",
        "--deadline-ms-transfer=3"],
    "ext_warp_fusion": SHAPE + NO_RECOVERY + ["--fusion=on"],
    "ext_chat_workload": NO_RECOVERY,
    "ext_search_workload": NO_RECOVERY,
    "ext_timeout_tradeoff": NO_RECOVERY,
}

# Benches whose flagless --json config is checked against their --help.
HELP_DEFAULTS = ["ext_overlap"]

HELP_LINE = re.compile(
    r"^  --(?P<neg>\[no-\])?(?P<name>[a-z0-9-]+)(?P<prefix><type>)?"
    r"(?P<arg>\[=on\|off\]|=\S+)?\s")
RANGE = re.compile(r"in (?P<open>[\[(])(?P<lo>[-0-9.e+]+), (?P<hi>[-0-9.e+]+)\]")
DEFAULT = re.compile(r"\(default (?P<value>[^)]+)\)$")


def binaries(build):
    out = [os.path.join(build, "tools", "rhythm_sim")]
    bench = os.path.join(build, "bench")
    for name in sorted(os.listdir(bench)):
        path = os.path.join(bench, name)
        if (name != "micro_simulator" and os.path.isfile(path)
                and os.access(path, os.X_OK)):
            out.append(path)
    return out


def run(cmd, timeout=120):
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)


def flags_of(binary):
    """[(name, kind, help line)] from the binary's --help."""
    result = run([binary, "--help"])
    if result.returncode != 0:
        raise SystemExit(f"{binary} --help exited {result.returncode}")
    flags = []
    for line in result.stdout.splitlines():
        m = HELP_LINE.match(line)
        if not m or m["name"] == "help":
            continue
        if m["neg"]:
            kind = "bool"
        elif m["prefix"]:
            kind = "prefix"
        elif not m["arg"]:
            kind = "switch"
        else:
            kind = {"=N": "u64", "=X": "real", "=PATH": "path"}.get(
                m["arg"], "enum")
        flags.append((m["name"], kind, line))
    if not flags:
        raise SystemExit(f"{binary} --help lists no flags")
    return flags


def spell(name, kind, value):
    if kind == "prefix":
        return f"--{name}transfer={value}"
    return f"--{name}={value}"


def check_all(cases, accept):
    """Runs (description, argv) cases in parallel; returns failures."""
    failures = []

    def one(case):
        desc, cmd = case
        try:
            result = run(cmd)
        except subprocess.TimeoutExpired:
            return f"{desc}: timed out"
        return accept(desc, result)

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for problem in pool.map(one, cases):
            if problem:
                failures.append(problem)
    return failures


def expect_usage_error(desc, result):
    if result.returncode < 0:
        return f"{desc}: killed by signal {-result.returncode}"
    if result.returncode != 2 or "error:" not in result.stderr:
        return (f"{desc}: exit {result.returncode}, stderr "
                f"{result.stderr.strip()[:200]!r}")
    return None


def expect_no_signal(desc, result):
    if result.returncode < 0:
        return f"{desc}: killed by signal {-result.returncode}"
    if result.returncode not in (0, 2):
        return (f"{desc}: exit {result.returncode}, stderr "
                f"{result.stderr.strip()[-200:]!r}")
    if result.returncode == 2 and "error:" not in result.stderr:
        return f"{desc}: exit 2 without error:"
    return None


def boundary(build):
    cases = []
    for binary in binaries(build):
        short = os.path.basename(binary)
        for name, kind, _ in flags_of(binary):
            if kind == "path":
                continue  # any text names a file
            for value in BAD_VALUES:
                arg = spell(name, kind, value)
                cases.append((f"{short} {arg}", [binary, arg]))
        cases.append((f"{short} unknown flag",
                      [binary, "--no-such-flag=1"]))
        cases.append((f"{short} repeated flag",
                      [binary, "--sim-threads=1", "--sim-threads=1"]))
    for name, args in UNDECLARED.items():
        binary = os.path.join(build, "bench", name)
        cases += [(f"{name} {arg}", [binary, arg]) for arg in args]
    for name, (positions, out_of_range) in EXAMPLES.items():
        binary = os.path.join(build, "examples", name)
        args = [["1"] * p + [value] for p in range(positions)
                for value in BAD_VALUES]
        args += out_of_range + [["1"] * (positions + 1)]
        cases += [(f"{name} {' '.join(a)}", [binary] + a) for a in args]
    failures = check_all(cases, expect_usage_error)
    print(f"{len(cases)} malformed command lines checked")
    return failures + help_defaults(build)


def help_defaults(build):
    failures = []
    for name in HELP_DEFAULTS:
        binary = os.path.join(build, "bench", name)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            run([binary, f"--json={path}"], timeout=600)
            with open(path, encoding="utf-8") as f:
                config = json.load(f)["config"]
        for flag, _, line in flags_of(binary):
            key, m = flag.replace("-", "_"), DEFAULT.search(line.rstrip())
            if key in config and (not m or float(m["value"]) != config[key]):
                failures.append(f"{name}: a flagless run records "
                                f"{key}={config[key]}, --help says {line}")
    return failures


def edge_values(kind, line):
    m = RANGE.search(line)
    if not m:
        return []
    lo, hi = float(m["lo"]), float(m["hi"])
    fmt = (lambda v: str(int(v))) if kind == "u64" else repr
    values = []
    if m["open"] == "(":
        values += [fmt(lo), fmt(lo + 1e-9)]
    else:
        values += [fmt(lo), fmt(lo - 1 if kind == "u64" else lo - 1e-3)]
    return values + [fmt(hi), fmt(hi + 1 if kind == "u64" else hi * 1.5)]


def edges(build):
    binary = os.path.join(build, "tools", "rhythm_sim")
    base = {"cohorts": "--cohorts=1", "cohort-size": "--cohort-size=64"}
    cases = []
    for name, kind, line in flags_of(binary):
        if kind not in ("u64", "real", "prefix"):
            continue
        values = edge_values("real" if kind == "prefix" else kind, line)
        if name in SCALE_FLAGS:
            values = [v for i, v in enumerate(values) if i != 2]
        for value in values:
            arg = spell(name, kind, value)
            cmd = [binary] + [a for k, a in base.items() if k != name]
            cases.append((f"rhythm_sim {arg}", cmd + [arg]))
    failures = check_all(cases, expect_no_signal)
    print(f"{len(cases)} range edges checked")
    return failures


def docs(build, source):
    names, prefixes = set(FOREIGN_FLAGS) | {"help"}, set()
    for binary in binaries(build):
        for name, kind, _ in flags_of(binary):
            names.add(name)
            if kind == "bool":
                names.add("no-" + name)
            if kind == "prefix":
                prefixes.add(name)
    failures = []
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        with open(os.path.join(source, doc), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for flag in re.findall(r"(?<![\w-])--([a-z][a-z0-9_-]*)",
                                       line):
                    if flag not in names and not any(
                            flag.startswith(p) for p in prefixes):
                        failures.append(f"{doc}:{lineno}: --{flag} is in "
                                        "no binary's option table")
    print(f"{len(names)} declared flags; documents checked")
    return failures


def main(argv):
    if len(argv) < 3 or argv[1] not in ("boundary", "edges", "docs"):
        raise SystemExit(__doc__)
    if argv[1] == "boundary":
        failures = boundary(argv[2])
    elif argv[1] == "edges":
        failures = edges(argv[2])
    else:
        failures = docs(argv[2], argv[3])
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
