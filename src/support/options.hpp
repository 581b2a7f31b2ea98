#ifndef SLAMBENCH_SUPPORT_OPTIONS_HPP
#define SLAMBENCH_SUPPORT_OPTIONS_HPP

/**
 * @file
 * Declarative command-line options: every binary declares its flags
 * once, as a table of OptionSpec rows (name, type, default, range or
 * choices, one help line), and both parsing and `--help` are derived
 * from that table. Unknown flags, missing values, malformed numbers
 * and out-of-range values are usage errors that exit 2 before any
 * work starts.
 */

#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

namespace slambench::support {

/** Value type of one option. */
enum class OptionType {
    Flag,    ///< present or absent; takes no value
    Integer, ///< one base-10 integer (full-string strtol)
    Real,    ///< one finite number (full-string strtod)
    String,  ///< one word, free-form or from a set of choices
    List,    ///< comma-separated integers, e.g. "10,5,4"
};

/**
 * One row of an option table.
 *
 * `range` is either a numeric interval "lo..hi" (either bound may be
 * omitted: "1..", "..100", "0..1"), or a set of choices "a|b|c"
 * compared against the value's text (for integers and list elements,
 * its canonical decimal text). An empty range accepts any value of
 * the type. List ranges apply to each element.
 */
struct OptionSpec
{
    std::string name;         ///< "--frames"
    OptionType type;          ///< value type
    std::string defaultValue; ///< parsed like a command-line value; "" = none
    std::string range;        ///< "lo..hi", "a|b|c", or "" (any)
    std::string help;         ///< one line for `--help`
    /**
     * Value placeholder in `--help`; "" derives it from the type:
     * N (integer), X (real), N,N,... (list), NAME (string with
     * choices), FILE (other strings).
     */
    std::string metavar = "";
};

/**
 * A parsed option table.
 *
 * Declare the rows with add() (grouped for help by section()), call
 * parse(), then read values by name. Reading a name that was never
 * declared, or with the wrong accessor, is a program bug and panics.
 */
class Options
{
  public:
    /**
     * @param program Binary name used in messages and the usage line.
     * @param summary One line describing the binary, shown in help.
     */
    Options(std::string program, std::string summary);

    /** Group the rows added next under @p title in the help. */
    Options &section(std::string title);

    /**
     * Declare option rows. Panics on a duplicate name, a malformed
     * range, or a default that does not satisfy its own row.
     */
    Options &add(std::initializer_list<OptionSpec> rows);

    /**
     * Let arguments starting with @p prefix (e.g. "--benchmark_")
     * through unparsed; they are collected by passedThrough().
     */
    Options &passThrough(std::string prefix);

    /**
     * Parse @p args (the command line without the program name).
     *
     * @return empty on success, else the usage error. A "--help" or
     *     "-h" anywhere sets helpRequested() and parses nothing else.
     */
    std::string parse(const std::vector<std::string> &args);

    /**
     * Parse argv; print the help and exit 0 on `--help`/`-h`, or
     * fail() on a usage error.
     */
    void parseOrExit(int argc, char **argv);

    /** Print "<program>: <message>" to stderr and exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** @return true after parse() saw "--help" or "-h". */
    bool helpRequested() const { return helpRequested_; }

    /** @return true when @p name is a declared option. */
    bool declared(const std::string &name) const;
    /** @return true when @p name appeared on the command line. */
    bool given(const std::string &name) const;

    /** @return whether the flag @p name was given. */
    bool flag(const std::string &name) const;
    /** @return the integer value (given, else the default). */
    long integer(const std::string &name) const;
    /** @return the real value (given, else the default). */
    double real(const std::string &name) const;
    /** @return the string value (given, else the default, else ""). */
    const std::string &string(const std::string &name) const;
    /** @return the list value (given, else the default). */
    const std::vector<long> &list(const std::string &name) const;

    /** @return the pass-through arguments, in command-line order. */
    const std::vector<std::string> &passedThrough() const
    {
        return passedThrough_;
    }

    /** @return the help text generated from the table. */
    std::string help() const;

  private:
    struct Entry
    {
        OptionSpec spec;
        std::string section;
        double min = -std::numeric_limits<double>::infinity();
        double max = std::numeric_limits<double>::infinity();
        std::vector<std::string> choices;
        bool given = false;
        bool hasValue = false;
        long integer = 0;
        double real = 0.0;
        std::string text;
        std::vector<long> list;
    };

    const Entry *find(const std::string &name) const;
    const Entry &lookup(const std::string &name, OptionType type) const;
    static std::string assign(Entry &entry, const std::string &text);

    std::string program_;
    std::string summary_;
    std::string section_;
    std::string passThroughPrefix_;
    std::vector<Entry> entries_;
    std::vector<std::string> passedThrough_;
    bool helpRequested_ = false;
};

} // namespace slambench::support

#endif // SLAMBENCH_SUPPORT_OPTIONS_HPP
