#include "util/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "util/logging.hh"
#include "util/strings.hh"

namespace rhythm {

namespace {

/** Formats a range bound: integers exactly, anything else as %g. */
std::string
bound(double v)
{
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

std::string
rangeText(const Flag &f)
{
    return std::string(f.loOpen ? "(" : "[") + bound(f.lo) + ", " +
           bound(f.hi) + "]";
}

bool
inRange(const Flag &f, double v)
{
    return (f.loOpen ? v > f.lo : v >= f.lo) && v <= f.hi;
}

bool
isPrefix(const Flag &f)
{
    return f.name.ends_with('-');
}

bool
parseBool(std::string_view v, bool &out)
{
    out = v == "on" || v == "true" || v == "yes" || v == "1";
    return out || v == "off" || v == "false" || v == "no" || v == "0";
}

bool
parseReal(std::string_view v, double &out)
{
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    return !v.empty() && ec == std::errc() && ptr == end &&
           std::isfinite(out);
}

bool
isChoice(const Flag &f, std::string_view v)
{
    for (std::string_view c : split(f.choices, '|'))
        if (c == v)
            return true;
    return false;
}

/** "--name=N"-style spelling of a row for the help text. */
std::string
spelling(const Flag &f)
{
    const std::string name(f.name);
    switch (f.type) {
      case FlagType::U64:
        return "--" + name + (isPrefix(f) ? "<type>" : "") + "=N";
      case FlagType::Double:
        return "--" + name + (isPrefix(f) ? "<type>" : "") + "=X";
      case FlagType::Bool:
        return "--[no-]" + name + "[=on|off]";
      case FlagType::Enum:
        return "--" + name + "=" + std::string(f.choices);
      case FlagType::Path:
        return "--" + name + "=PATH";
      case FlagType::Switch:
        return "--" + name;
    }
    return "--" + name;
}

} // namespace

Flags::Slot *
Flags::find(std::string_view name)
{
    for (Slot &s : slots_)
        if (!isPrefix(*s.flag) && s.flag->name == name)
            return &s;
    return nullptr;
}

const Flags::Slot &
Flags::slot(std::string_view name, FlagType type) const
{
    for (const Slot &s : slots_) {
        if (s.flag->name != name)
            continue;
        const FlagType t = s.flag->type;
        const bool ok = t == type ||
                        (type == FlagType::Bool && t == FlagType::Switch) ||
                        (type == FlagType::Path && t == FlagType::Enum);
        RHYTHM_ASSERT(ok, "flag --", name, " read with the wrong type");
        RHYTHM_ASSERT(s.given || !s.flag->def.empty() || isPrefix(*s.flag) ||
                          t == FlagType::Path || t == FlagType::Switch,
                      "flag --", name, " has no default; check given()");
        return s;
    }
    RHYTHM_PANIC("flag --", name, " is not declared");
}

bool
Flags::fail(std::string message)
{
    error_ = std::move(message);
    return false;
}

bool
Flags::assign(Slot &s, const std::string &flag, std::string_view value)
{
    const Flag &f = *s.flag;
    const std::string shown = flag + ": '" + std::string(value) + "'";
    switch (f.type) {
      case FlagType::U64: {
        uint64_t v = 0;
        if (!parseU64(value, v))
            return fail(shown + " is not a non-negative integer");
        if (!inRange(f, static_cast<double>(v)))
            return fail(shown + " is out of range " + rangeText(f));
        s.u = v;
        break;
      }
      case FlagType::Double: {
        double v = 0.0;
        if (!parseReal(value, v))
            return fail(shown + " is not a finite number");
        if (!inRange(f, v))
            return fail(shown + " is out of range " + rangeText(f));
        s.num = v;
        break;
      }
      case FlagType::Bool: {
        bool v = false;
        if (!parseBool(value, v))
            return fail(shown + " is not on|off|true|false|yes|no|1|0");
        s.u = v;
        break;
      }
      case FlagType::Enum:
        if (!isChoice(f, value))
            return fail(shown + " is not one of " +
                        std::string(f.choices));
        break;
      case FlagType::Path:
        if (value.empty())
            return fail(flag + " needs a value");
        break;
      case FlagType::Switch:
        return fail(flag + " takes no value");
    }
    s.text = std::string(value);
    return true;
}

bool
Flags::parse(int argc, const char *const *argv, Groups groups)
{
    groups_.assign(groups.begin(), groups.end());
    slots_.clear();
    for (const FlagGroup *group : groups_) {
        for (const Flag &f : group->flags) {
            RHYTHM_ASSERT(f.name != "help" && !find(f.name),
                          "flag --", f.name, " declared twice");
            Slot &s = slots_.emplace_back();
            s.flag = &f;
            const std::string flag = "--" + std::string(f.name);
            if (!f.def.empty() && !assign(s, flag, f.def))
                RHYTHM_PANIC("bad default: ", error_);
        }
    }
    error_.clear();
    help_ = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!startsWith(arg, "--"))
            return fail("unexpected argument '" + std::string(arg) + "'");
        const std::string_view body = arg.substr(2);
        if (body.empty())
            return fail("bare '--' is not a flag");
        const size_t eq = body.find('=');
        const std::string_view name = body.substr(0, eq);
        const bool has_value = eq != std::string_view::npos;
        std::string_view value =
            has_value ? body.substr(eq + 1) : std::string_view();
        if (name == "help") {
            if (has_value)
                return fail("--help takes no value");
            help_ = true;
            continue;
        }

        Slot *s = find(name);
        bool negated = false;
        if (!s && startsWith(name, "no-")) {
            s = find(name.substr(3));
            negated = s && s->flag->type == FlagType::Bool;
            if (!negated)
                s = nullptr;
        }
        std::string_view suffix;
        if (!s) {
            for (Slot &p : slots_) {
                if (isPrefix(*p.flag) && startsWith(name, p.flag->name) &&
                    name.size() > p.flag->name.size()) {
                    s = &p;
                    suffix = name.substr(p.flag->name.size());
                }
            }
        }
        if (!s)
            return fail("unknown flag: --" + std::string(name));
        const Flag &f = *s->flag;
        const std::string flag = "--" + std::string(name);

        bool repeated = s->given;
        for (const auto &[seen, v] : s->each)
            repeated = repeated || seen == suffix;
        if (repeated)
            return fail("repeated flag: " + flag);

        if (f.type == FlagType::Switch || negated) {
            if (has_value)
                return fail(flag + " takes no value");
            s->u = !negated;
            s->given = true;
            continue;
        }
        if (f.type == FlagType::Bool && !has_value) {
            s->u = 1;
            s->given = true;
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc || startsWith(argv[i + 1], "--"))
                return fail(flag + " needs a value");
            value = argv[++i];
        }
        if (suffix.empty()) {
            if (!assign(*s, flag, value))
                return false;
            s->given = true;
            continue;
        }
        // A prefix family's member parses into a temporary slot.
        Slot member;
        member.flag = &f;
        if (!assign(member, flag, value))
            return false;
        s->each.emplace_back(std::string(suffix), member.num);
    }
    return true;
}

void
Flags::printHelp(std::ostream &out, std::string_view prog) const
{
    out << "usage: " << prog << " [flags]\n"
        << "Every flag accepts --name=value or --name value; values are "
           "range-checked.\n";
    for (const FlagGroup *group : groups_) {
        if (group->flags.empty())
            continue;
        out << "\n" << group->title << ":\n";
        for (const Flag &f : group->flags) {
            std::string left = "  " + spelling(f);
            left.resize(std::max<size_t>(left.size() + 2, 34), ' ');
            out << left << f.help;
            if (f.type == FlagType::U64 || f.type == FlagType::Double) {
                if (f.hi < kU64Max)
                    out << ", in " << rangeText(f);
            }
            if (!f.def.empty())
                out << " (default " << f.def << ")";
            out << "\n";
        }
    }
    out << "\n  --help                          print this help and exit\n";
}

bool
Flags::given(std::string_view name) const
{
    for (const Slot &s : slots_)
        if (s.flag->name == name)
            return s.given || !s.each.empty();
    RHYTHM_PANIC("flag --", name, " is not declared");
}

bool
Flags::anyGiven(const FlagGroup &group) const
{
    for (const Flag &f : group.flags)
        if (given(f.name))
            return true;
    return false;
}

uint64_t
Flags::u64(std::string_view name) const
{
    return slot(name, FlagType::U64).u;
}

double
Flags::real(std::string_view name) const
{
    return slot(name, FlagType::Double).num;
}

bool
Flags::on(std::string_view name) const
{
    return slot(name, FlagType::Bool).u != 0;
}

const std::string &
Flags::text(std::string_view name) const
{
    return slot(name, FlagType::Path).text;
}

const std::vector<std::pair<std::string, double>> &
Flags::each(std::string_view prefix) const
{
    return slot(prefix, FlagType::Double).each;
}

std::vector<std::pair<std::string_view, ConfigValue>>
Flags::config(const FlagGroup &group) const
{
    std::vector<std::pair<std::string_view, ConfigValue>> out;
    if (group.recordGate ? !group.recordGate(*this) : !anyGiven(group))
        return out;
    for (const Flag &f : group.flags) {
        if (f.record == Record::No)
            continue;
        ConfigValue value;
        if (f.derive)
            value = f.derive(*this);
        else if (f.type == FlagType::U64)
            value = static_cast<double>(u64(f.name));
        else if (f.type == FlagType::Double)
            value = real(f.name);
        else if (f.type == FlagType::Bool || f.type == FlagType::Switch)
            value = on(f.name) ? 1.0 : 0.0;
        else
            value = text(f.name);
        bool keep = true;
        if (f.record == Record::Given)
            keep = given(f.name);
        else if (f.record == Record::Nonzero)
            keep = !std::holds_alternative<double>(value) ||
                   std::get<double>(value) != 0.0;
        else if (f.record == Record::When) {
            const size_t eq = f.when.find('=');
            keep = text(f.when.substr(0, eq)) == f.when.substr(eq + 1);
        }
        if (keep)
            out.emplace_back(f.configKey, std::move(value));
    }
    return out;
}

void
exitUsageError(std::string_view message)
{
    std::cerr << "error: " << message
              << "\n(run with --help for the flag list)\n";
    std::exit(2);
}

Flags
parseFlagsOrExit(int argc, const char *const *argv, Flags::Groups groups)
{
    Flags flags;
    if (!flags.parse(argc, argv, groups))
        exitUsageError(flags.error());
    if (flags.helpRequested()) {
        std::string_view prog = argc > 0 ? argv[0] : "prog";
        prog = prog.substr(prog.find_last_of('/') + 1);
        flags.printHelp(std::cout, prog);
        std::exit(0);
    }
    return flags;
}

} // namespace rhythm
