#include "args.hh"

#include <algorithm>
#include <limits>

namespace perfbench {
namespace {

/** Upper bound on --seconds. */
constexpr uint32_t kMaxSeconds = 600;

/**
 * Parses an unsigned decimal integer in [lo, hi]: digits only, no sign,
 * no whitespace, no overflow. @p what names the flag in the error.
 */
uint64_t
parseUnsigned(std::string_view text, uint64_t lo, uint64_t hi,
              std::string_view what)
{
    const std::string name(what);
    if (text.empty())
        throw ArgError(name + ": empty value");
    uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            throw ArgError(name + ": not an unsigned decimal integer: '" +
                           std::string(text) + "'");
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            throw ArgError(name + ": value out of range: " +
                           std::string(text));
        value = value * 10 + digit;
    }
    if (value < lo || value > hi)
        throw ArgError(name + ": " + std::string(text) +
                       " is outside [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
    return value;
}

} // namespace

Options
parseArgs(const std::vector<std::string> &argv,
          const std::vector<std::string_view> &workloads)
{
    Options opt;
    bool have_workload = false;
    bool have_seed = false;
    std::vector<std::string> seen;
    for (size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw ArgError("unexpected argument: '" + arg + "'");
        std::string name = arg.substr(2);
        std::string value;
        const size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        } else {
            if (i + 1 >= argv.size())
                throw ArgError("--" + name + " needs a value");
            value = argv[++i];
        }
        if (std::find(seen.begin(), seen.end(), name) != seen.end())
            throw ArgError("--" + name + " given twice");
        seen.push_back(name);

        if (name == "workload") {
            if (std::find(workloads.begin(), workloads.end(), value) ==
                workloads.end())
                throw ArgError("unknown workload: '" + value + "'");
            opt.workload = value;
            have_workload = true;
        } else if (name == "seed") {
            opt.seed = parseUnsigned(value, 0,
                                     std::numeric_limits<uint64_t>::max(),
                                     "--seed");
            have_seed = true;
        } else if (name == "seconds") {
            opt.seconds = static_cast<uint32_t>(
                parseUnsigned(value, 1, kMaxSeconds, "--seconds"));
        } else if (name == "trace") {
            opt.trace = parseUnsigned(value, 0, 1, "--trace") == 1;
        } else {
            throw ArgError("unknown flag: --" + name);
        }
    }
    if (!have_workload)
        throw ArgError("--workload is required");
    if (!have_seed)
        throw ArgError("--seed is required");
    return opt;
}

std::string
usage(const std::vector<std::string_view> &workloads)
{
    std::string text = "usage: perfbench_driver --workload ";
    for (size_t i = 0; i < workloads.size(); ++i) {
        if (i)
            text += '|';
        text += workloads[i];
    }
    text += " --seed N [--seconds 1..600] [--trace 0|1]\n";
    return text;
}

} // namespace perfbench
