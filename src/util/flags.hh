/**
 * @file
 * Typed, table-driven command-line options for the tools and benches.
 *
 * A binary declares what it accepts as groups of Flag rows: name, type,
 * range, default, help line and (optionally) the config key under which
 * a run records the value. Parsing, range checks, `--help` and config
 * recording are all generated from those rows, so a flag means the same
 * thing in every binary that declares it.
 *
 * Parsing is fail-closed: a malformed, non-finite or out-of-range value,
 * an unknown flag, a repeated flag or a stray positional argument is an
 * error naming the offending flag — never a silent fallback to the
 * default. Accepted forms: --name=value, --name value, --name for
 * switches and booleans, and --no-name for booleans.
 */

#ifndef RHYTHM_UTIL_FLAGS_HH
#define RHYTHM_UTIL_FLAGS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rhythm {

class Flags;

/** Value type of a flag. */
enum class FlagType : uint8_t
{
    U64,    //!< non-negative integer (--name=N)
    Double, //!< finite real (--name=X)
    Bool,   //!< --name, --no-name, --name=on|off|true|false|yes|no|1|0
    Enum,   //!< one word of a fixed '|'-separated vocabulary
    Path,   //!< free text, e.g. an output file
    Switch, //!< presence only (--name)
};

/**
 * When a flag's value is written to a run's config record. Every
 * condition applies only while the flag's group records at all (see
 * FlagGroup::recordGate).
 */
enum class Record : uint8_t
{
    No,      //!< never
    Always,  //!< whenever the group records
    Given,   //!< when the flag was on the command line
    Nonzero, //!< when the value is not 0
    When,    //!< when Flag::when ("flag=value") holds
};

/** A recorded config value: numbers and booleans as double, words as text. */
using ConfigValue = std::variant<double, std::string>;

/** The largest U64 range bound (every uint64_t value is in range). */
inline constexpr double kU64Max = 18446744073709551615.0;

/** One row of an option table. */
struct Flag
{
    /** Name without "--"; a trailing '-' declares a prefix family
     *  (e.g. "deadline-ms-" accepts --deadline-ms-<type>=X). */
    std::string_view name;
    FlagType type = FlagType::Switch;
    /** Default as command-line text; empty = none (check given()). */
    std::string_view def;
    std::string_view help;
    /** Numeric range [lo, hi]; lo itself is excluded when loOpen. */
    double lo = 0.0;
    double hi = 0.0;
    bool loOpen = false;
    /** Enum vocabulary, '|'-separated. */
    std::string_view choices;
    /** Config record key; empty = not recorded. */
    std::string_view configKey;
    Record record = Record::No;
    /** Record::When condition, "flag=value". */
    std::string_view when;
    /** Computes the recorded value when it is not the flag's own. */
    ConfigValue (*derive)(const Flags &) = nullptr;

    static constexpr Flag
    make(std::string_view name, FlagType type, std::string_view def,
         std::string_view help, double lo = 0.0, double hi = 0.0)
    {
        Flag f;
        f.name = name;
        f.type = type;
        f.def = def;
        f.help = help;
        f.lo = lo;
        f.hi = hi;
        return f;
    }
    static constexpr Flag
    u64(std::string_view name, double lo, double hi, std::string_view def,
        std::string_view help)
    {
        return make(name, FlagType::U64, def, help, lo, hi);
    }
    static constexpr Flag
    real(std::string_view name, double lo, double hi, std::string_view def,
         std::string_view help)
    {
        return make(name, FlagType::Double, def, help, lo, hi);
    }
    /** A real in (0, hi]. */
    static constexpr Flag
    positive(std::string_view name, double hi, std::string_view def,
             std::string_view help)
    {
        Flag f = make(name, FlagType::Double, def, help, 0.0, hi);
        f.loOpen = true;
        return f;
    }
    static constexpr Flag
    boolean(std::string_view name, std::string_view def,
            std::string_view help)
    {
        return make(name, FlagType::Bool, def, help);
    }
    static constexpr Flag
    oneOf(std::string_view name, std::string_view choices,
          std::string_view def, std::string_view help)
    {
        Flag f = make(name, FlagType::Enum, def, help);
        f.choices = choices;
        return f;
    }
    static constexpr Flag
    path(std::string_view name, std::string_view help)
    {
        return make(name, FlagType::Path, {}, help);
    }
    static constexpr Flag
    toggle(std::string_view name, std::string_view help)
    {
        return make(name, FlagType::Switch, {}, help);
    }

    /** This row, recorded under @p key when @p record holds. */
    constexpr Flag
    records(std::string_view key, Record record = Record::Always,
            std::string_view when = {}) const
    {
        Flag f = *this;
        f.configKey = key;
        f.record = record;
        f.when = when;
        return f;
    }
    /** This row, recording @p fn's value instead of its own. */
    constexpr Flag
    derived(ConfigValue (*fn)(const Flags &)) const
    {
        Flag f = *this;
        f.derive = fn;
        return f;
    }
};

/** A titled set of rows declared together (a flag "family"). */
struct FlagGroup
{
    std::string_view title;
    std::span<const Flag> flags;
    /** Whether the group records its config at all; nullptr = when
     *  any of its flags was given. */
    bool (*recordGate)(const Flags &) = nullptr;
};

/**
 * The rows of @p table named in @p names, in that order: a binary that
 * reads only part of a shared family declares just those rows, so the
 * rest are rejected as unknown instead of accepted and ignored. A name
 * the table lacks fails the constant evaluation.
 */
template <size_t N>
constexpr std::array<Flag, N>
pickFlags(std::span<const Flag> table, const std::string_view (&names)[N])
{
    std::array<Flag, N> rows{};
    for (size_t i = 0; i < N; ++i) {
        const auto row = std::ranges::find(table, names[i], &Flag::name);
        if (row == table.end())
            throw "pickFlags: no such row";
        rows[i] = *row;
    }
    return rows;
}

/** The rows of @p table except the @p names ones (each must exist). */
template <size_t N, size_t K>
constexpr std::array<Flag, N - K>
omitFlags(const Flag (&table)[N], const std::string_view (&names)[K])
{
    std::array<Flag, N - K> rows{};
    size_t kept = 0;
    for (const Flag &row : table)
        if (std::ranges::find(names, row.name) == std::end(names))
            rows.at(kept++) = row; // throws when a name is missing
    return rows;
}

/** Record gate for groups whose Always rows are recorded on every run. */
inline bool
recordAlways(const Flags &)
{
    return true;
}

/** A command line parsed against a set of FlagGroups. */
class Flags
{
  public:
    using Groups = std::span<const FlagGroup *const>;

    /**
     * Parses argv against @p groups (the FlagGroups themselves must
     * outlive this object).
     * @return false with error() set on the first bad argument.
     */
    bool parse(int argc, const char *const *argv, Groups groups);

    /** Why parse() failed ("" after a successful parse). */
    const std::string &error() const { return error_; }

    /** True when --help was given (every binary accepts it). */
    bool helpRequested() const { return help_; }

    /** Writes the generated `--help` text. */
    void printHelp(std::ostream &out, std::string_view prog) const;

    /** True when @p name was on the command line. */
    bool given(std::string_view name) const;

    /** True when any flag of @p group was on the command line. */
    bool anyGiven(const FlagGroup &group) const;

    /** Typed values (the given one, else the default). Reading a flag
     *  that was not declared with that type is a program bug. */
    uint64_t u64(std::string_view name) const;
    double real(std::string_view name) const;
    bool on(std::string_view name) const;
    const std::string &text(std::string_view name) const;

    /** A prefix family's values as (suffix, value), in argv order. */
    const std::vector<std::pair<std::string, double>> &
    each(std::string_view prefix) const;

    /** The (key, value) entries @p group records for this run, in row
     *  order (empty when its record gate does not hold). */
    std::vector<std::pair<std::string_view, ConfigValue>>
    config(const FlagGroup &group) const;

  private:
    struct Slot
    {
        const Flag *flag = nullptr;
        bool given = false;
        uint64_t u = 0;
        double num = 0.0;
        std::string text;
        std::vector<std::pair<std::string, double>> each;
    };

    Slot *find(std::string_view name);
    const Slot &slot(std::string_view name, FlagType type) const;
    bool assign(Slot &slot, const std::string &flag,
                std::string_view value);
    bool fail(std::string message);

    std::vector<const FlagGroup *> groups_;
    std::vector<Slot> slots_;
    std::string error_;
    bool help_ = false;
};

/**
 * Parses argv for a binary. On a bad argument prints `error: <reason>`
 * to stderr and exits 2; on --help prints the help text and exits 0.
 */
Flags parseFlagsOrExit(int argc, const char *const *argv,
                       Flags::Groups groups);

/** Prints `error: <message>` plus a --help hint and exits 2. */
[[noreturn]] void exitUsageError(std::string_view message);

} // namespace rhythm

#endif // RHYTHM_UTIL_FLAGS_HH
