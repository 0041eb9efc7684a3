/**
 * @file
 * The benchmark's own tests.
 *
 * Determinism: for every workload, two repetitions with one seed give
 * identical simulated end-to-end and per-layer values and an identical
 * order-insensitive response digest; a different seed changes them
 * (so the seed reaches the inputs). Argument parsing: malformed or
 * out-of-range values, unknown names and missing flags are rejected.
 *
 * Usage: perfbench_selftest [workload...]   (default: all workloads)
 * Exit status 0 when every check passes.
 */

#include <iostream>
#include <string>
#include <vector>

#include "args.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

bool
rejects(const std::vector<std::string> &argv)
{
    try {
        parseArgs(argv, workloadNames());
    } catch (const ArgError &) {
        return true;
    }
    return false;
}

void
argTests()
{
    const std::string w = "--workload=chat-closed";
    check(!rejects({w, "--seed", "7"}), "args: minimal command line");
    check(!rejects({w, "--seed=18446744073709551615", "--seconds", "600",
                    "--trace", "1"}),
          "args: upper bounds accepted");
    const Options o = parseArgs({w, "--seed", "42", "--trace=1"},
                                workloadNames());
    check(o.seed == 42 && o.trace && o.workload == "chat-closed",
          "args: values parsed");
    const std::vector<std::vector<std::string>> bad = {
        {w},                                         // missing seed
        {"--seed", "1"},                             // missing workload
        {"--workload", "nope", "--seed", "1"},       // unknown workload
        {w, "--seed", "-1"},                         // signed
        {w, "--seed", "1x"},                         // trailing junk
        {w, "--seed", ""},                           // empty
        {w, "--seed", "18446744073709551616"},       // overflow
        {w, "--seed", "1", "--seconds", "0"},        // below range
        {w, "--seed", "1", "--seconds", "601"},      // above range
        {w, "--seed", "1", "--trace", "2"},          // not 0|1
        {w, "--seed", "1", "--seed", "2"},           // repeated
        {w, "--seed", "1", "--bogus", "1"},          // unknown flag
        {w, "--seed"},                               // missing value
        {w, "--seed", "1", "stray"},                 // positional
    };
    for (const auto &argv : bad) {
        std::string line;
        for (const std::string &a : argv)
            line += " " + a;
        check(rejects(argv), "args: rejects" + line);
    }
}

void
determinismTests(std::string_view workload)
{
    const std::string name(workload);
    const RepResult a = runRep(workload, 1, false);
    const RepResult b = runRep(workload, 1, true);
    const RepResult c = runRep(workload, 2, false);
    check(a.correct && b.correct && c.correct,
          name + ": outputs pass the correctness gate (" + a.error +
              b.error + c.error + ")");
    check(a.failed == 0 && a.attempted > 0, name + ": no operation fails");
    check(sameSimulation(a, b),
          name + ": same seed, traced or not, simulates identically");
    bool values_differ = false;
    for (size_t i = 0; i < a.simEndToEnd.size(); ++i)
        values_differ |= a.simEndToEnd[i].value != c.simEndToEnd[i].value;
    check(a.digest != c.digest && values_differ,
          name + ": another seed changes the outputs");
    double sum = 0.0;
    for (const double s : b.spans.selfSeconds)
        sum += s;
    check(b.spans.wallSeconds > 0 && b.spans.unrootedSeconds == 0.0 &&
              sum > 0.999 * b.spans.wallSeconds &&
              sum < 1.001 * b.spans.wallSeconds,
          name + ": traced self times account for the timed phase");
}

} // namespace

int
main(int argc, char **argv)
{
    argTests();
    std::vector<std::string_view> workloads(argv + 1, argv + argc);
    if (workloads.empty())
        workloads = workloadNames();
    for (const std::string_view w : workloads) {
        rhythm::util::setSimThreads(workloadThreads(w));
        determinismTests(w);
    }
    std::cout << (failures ? "FAILED: " : "passed: ") << failures
              << " failing checks\n";
    return failures ? 1 : 0;
}
