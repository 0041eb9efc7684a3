/**
 * @file
 * Fail-closed command-line parsing for the benchmark driver.
 *
 * Every value is checked in full: a malformed number, an out-of-range
 * value, an unknown flag or workload, or a missing required flag is an
 * ArgError. Nothing falls back to a default silently.
 */

#ifndef PERFBENCH_ARGS_HH
#define PERFBENCH_ARGS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** A rejected command line; the message is printed after "error: ". */
class ArgError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Parsed driver options. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    /** Measurement budget: repetitions run until it is spent. */
    uint32_t seconds = 10;
    /** Run the traced variant (per-layer metrics) instead of the
     *  end-to-end one. */
    bool trace = false;
};

/**
 * Parses the driver's argv (flags as `--name value` or `--name=value`).
 * @param workloads The accepted workload names.
 * @throws ArgError on any malformed, missing or out-of-range input.
 */
Options parseArgs(const std::vector<std::string> &argv,
                  const std::vector<std::string_view> &workloads);

/** Usage text (printed after an error). */
std::string usage(const std::vector<std::string_view> &workloads);

} // namespace perfbench

#endif // PERFBENCH_ARGS_HH
