/**
 * @file
 * Fail-closed positional arguments for the example programs: every
 * argument is a decimal integer checked against an explicit range, and
 * malformed, out-of-range or surplus input prints `error: ...` and
 * exits 2 before any simulation object exists.
 */

#ifndef RHYTHM_EXAMPLES_EXAMPLE_ARGS_HH
#define RHYTHM_EXAMPLES_EXAMPLE_ARGS_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "util/strings.hh"

namespace rhythm::examples {

/** One positional argument: its name, inclusive range and default. */
struct PositionalArg
{
    std::string_view name;
    uint64_t lo;
    uint64_t hi;
    uint64_t fallback;
};

[[noreturn]] inline void
exitArgError(std::string_view usage, std::string_view message)
{
    std::cerr << "error: " << message << "\nusage: " << usage << "\n";
    std::exit(2);
}

/**
 * Rejects more than @p count positional arguments (error:, exit 2).
 * Call before reading any argument, so surplus input is never ignored.
 */
inline void
expectAtMost(int argc, int count, std::string_view usage)
{
    if (argc - 1 > count)
        exitArgError(usage, "too many arguments");
}

/**
 * Positional argument @p index (1-based) of @p argv, or the default
 * when absent; anything but a decimal integer in [lo, hi] prints
 * `error:` and exits 2.
 */
inline uint64_t
positionalArg(int argc, char **argv, int index, const PositionalArg &arg,
              std::string_view usage)
{
    if (argc <= index)
        return arg.fallback;
    uint64_t value = 0;
    if (!parseU64(argv[index], value) || value < arg.lo || value > arg.hi)
        exitArgError(usage, std::string(arg.name) +
                                " must be an integer in [" +
                                std::to_string(arg.lo) + ", " +
                                std::to_string(arg.hi) + "], got '" +
                                argv[index] + "'");
    return value;
}

} // namespace rhythm::examples

#endif // RHYTHM_EXAMPLES_EXAMPLE_ARGS_HH
