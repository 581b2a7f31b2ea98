#include "support/options.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/logging.hpp"
#include "support/strings.hpp"

namespace slambench::support {

namespace {

/** @return the range as shown in messages: "a|b", ">= 1", "0..1". */
std::string
describeRange(const std::string &range)
{
    const size_t dots = range.find("..");
    if (dots == std::string::npos)
        return range;
    const std::string lo = range.substr(0, dots);
    const std::string hi = range.substr(dots + 2);
    if (hi.empty())
        return ">= " + lo;
    if (lo.empty())
        return "<= " + hi;
    return range;
}

const char *
typeMetavar(const OptionSpec &spec, bool has_choices)
{
    switch (spec.type) {
    case OptionType::Flag:
        return "";
    case OptionType::Integer:
        return "N";
    case OptionType::Real:
        return "X";
    case OptionType::List:
        return "N,N,...";
    case OptionType::String:
        break;
    }
    return has_choices ? "NAME" : "FILE";
}

} // namespace

Options::Options(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

Options &
Options::section(std::string title)
{
    section_ = std::move(title);
    return *this;
}

Options &
Options::add(std::initializer_list<OptionSpec> rows)
{
    for (const OptionSpec &row : rows) {
        if (!startsWith(row.name, "--") || declared(row.name))
            panic("options: bad or duplicate option " + row.name);
        Entry entry;
        entry.spec = row;
        entry.section = section_;
        const size_t dots = row.range.find("..");
        if (dots != std::string::npos) {
            const std::string lo = row.range.substr(0, dots);
            const std::string hi = row.range.substr(dots + 2);
            if ((!lo.empty() && !parseDouble(lo, entry.min)) ||
                (!hi.empty() && !parseDouble(hi, entry.max)))
                panic("options: bad range for " + row.name);
        } else if (!row.range.empty()) {
            entry.choices = split(row.range, '|');
        }
        if (!row.defaultValue.empty()) {
            const std::string problem = assign(entry, row.defaultValue);
            if (!problem.empty())
                panic("options: bad default for " + row.name + ": " +
                      problem);
        }
        entries_.push_back(std::move(entry));
    }
    return *this;
}

Options &
Options::passThrough(std::string prefix)
{
    passThroughPrefix_ = std::move(prefix);
    return *this;
}

std::string
Options::assign(Entry &entry, const std::string &text)
{
    // Numbers are checked against the choices by their canonical
    // text, else against the interval.
    auto check = [&entry](double value, const std::string &shown) {
        if (!entry.choices.empty())
            return std::find(entry.choices.begin(), entry.choices.end(),
                             shown) != entry.choices.end()
                       ? std::string()
                       : "'" + shown + "' is not one of " +
                             entry.spec.range;
        return value >= entry.min && value <= entry.max
                   ? std::string()
                   : shown + " is out of range (want " +
                         describeRange(entry.spec.range) + ")";
    };

    std::string problem;
    switch (entry.spec.type) {
    case OptionType::Flag:
        return "takes no value";
    case OptionType::Integer: {
        long value = 0;
        if (!parseLong(text, value))
            return "'" + text + "' is not an integer";
        problem = check(static_cast<double>(value), std::to_string(value));
        entry.integer = value;
        break;
    }
    case OptionType::Real: {
        double value = 0.0;
        if (!parseDouble(text, value) || !std::isfinite(value))
            return "'" + text + "' is not a number";
        problem = check(value, text);
        entry.real = value;
        break;
    }
    case OptionType::String:
        problem = check(0.0, text);
        entry.text = text;
        break;
    case OptionType::List:
        entry.list.clear();
        for (const std::string &field : split(text, ',')) {
            long value = 0;
            if (!parseLong(field, value))
                return "'" + text + "': '" + field +
                       "' is not an integer";
            problem = check(static_cast<double>(value),
                            std::to_string(value));
            if (!problem.empty())
                return "'" + text + "': " + problem;
            entry.list.push_back(value);
        }
        break;
    }
    entry.hasValue = problem.empty();
    return problem;
}

std::string
Options::parse(const std::vector<std::string> &args)
{
    for (const std::string &arg : args)
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return "";
        }
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (!passThroughPrefix_.empty() &&
            startsWith(arg, passThroughPrefix_)) {
            passedThrough_.push_back(arg);
            continue;
        }
        auto found = std::find_if(
            entries_.begin(), entries_.end(),
            [&arg](const Entry &entry) { return entry.spec.name == arg; });
        if (found == entries_.end())
            return startsWith(arg, "-")
                       ? "unknown option '" + arg + "'"
                       : "unexpected argument '" + arg + "'";
        Entry &entry = *found;
        if (entry.given)
            return arg + ": given twice";
        entry.given = true;
        if (entry.spec.type == OptionType::Flag)
            continue;
        // No value legitimately starts with "--"; treat one as the
        // next option, i.e. this option's value is missing.
        if (i + 1 == args.size() || startsWith(args[i + 1], "--"))
            return arg + ": missing value";
        const std::string problem = assign(entry, args[++i]);
        if (!problem.empty())
            return arg + ": " + problem;
    }
    return "";
}

void
Options::parseOrExit(int argc, char **argv)
{
    const std::string problem =
        parse(std::vector<std::string>(argv + 1, argv + argc));
    if (!problem.empty())
        fail(problem);
    if (helpRequested_) {
        std::fputs(help().c_str(), stdout);
        std::exit(0);
    }
}

void
Options::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s (see --help)\n", program_.c_str(),
                 message.c_str());
    std::exit(2);
}

const Options::Entry *
Options::find(const std::string &name) const
{
    for (const Entry &entry : entries_)
        if (entry.spec.name == name)
            return &entry;
    return nullptr;
}

const Options::Entry &
Options::lookup(const std::string &name, OptionType type) const
{
    const Entry *entry = find(name);
    if (!entry || entry->spec.type != type)
        panic("options: " + name + " is not declared with this type");
    // Flags and strings are never valueless; the other types need a
    // default or an explicit given() check first.
    if (!entry->hasValue && type != OptionType::Flag &&
        type != OptionType::String)
        panic("options: " + name + " has no value and no default");
    return *entry;
}

bool
Options::declared(const std::string &name) const
{
    return find(name) != nullptr;
}

bool
Options::given(const std::string &name) const
{
    const Entry *entry = find(name);
    if (!entry)
        panic("options: " + name + " is not declared");
    return entry->given;
}

bool
Options::flag(const std::string &name) const
{
    return lookup(name, OptionType::Flag).given;
}

long
Options::integer(const std::string &name) const
{
    return lookup(name, OptionType::Integer).integer;
}

double
Options::real(const std::string &name) const
{
    return lookup(name, OptionType::Real).real;
}

const std::string &
Options::string(const std::string &name) const
{
    return lookup(name, OptionType::String).text;
}

const std::vector<long> &
Options::list(const std::string &name) const
{
    return lookup(name, OptionType::List).list;
}

std::string
Options::help() const
{
    std::string out = "usage: " + program_ + " [options]\n" + summary_ +
                      "\n";
    std::string section;
    for (const Entry &entry : entries_) {
        if (entry.section != section) {
            section = entry.section;
            out += "\n" + section + ":\n";
        }
        const OptionSpec &spec = entry.spec;
        std::string line = "  " + spec.name;
        const std::string metavar =
            spec.metavar.empty()
                ? typeMetavar(spec, !entry.choices.empty())
                : spec.metavar;
        if (!metavar.empty())
            line += " " + metavar;
        line += line.size() < 28 ? std::string(28 - line.size(), ' ')
                                 : "  ";
        line += spec.help;
        std::string detail;
        if (!spec.range.empty())
            detail = describeRange(spec.range);
        if (!spec.defaultValue.empty())
            detail += (detail.empty() ? "default " : "; default ") +
                      spec.defaultValue;
        if (!detail.empty())
            line += " [" + detail + "]";
        out += line + "\n";
    }
    out += "\n  --help                    print this help and exit (also "
           "-h)\n";
    if (!passThroughPrefix_.empty())
        out += "\nArguments starting with " + passThroughPrefix_ +
               " are passed through unparsed.\n";
    out += "Unknown options, missing or malformed values and "
           "out-of-range values exit 2.\n";
    return out;
}

} // namespace slambench::support
