#ifndef SLAMBENCH_SUPPORT_STRINGS_HPP
#define SLAMBENCH_SUPPORT_STRINGS_HPP

/**
 * @file
 * Small string helpers shared by configuration parsing and output
 * formatting.
 */

#include <string>
#include <vector>

namespace slambench::support {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(const std::string &text, char sep);

/** Remove ASCII whitespace from both ends. */
std::string trim(const std::string &text);

/** Lower-case ASCII copy of @p text. */
std::string toLower(const std::string &text);

/** @return true when @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted text.
 */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Parse a double, reporting success.
 *
 * @param text Input text (leading/trailing spaces allowed).
 * @param[out] value Parsed value on success.
 * @return true when the whole trimmed string parsed and is in range.
 */
bool parseDouble(const std::string &text, double &value);

/**
 * Parse a long integer, reporting success.
 *
 * @param text Input text (leading/trailing spaces allowed).
 * @param[out] value Parsed value on success.
 * @return true when the whole trimmed string parsed and is in range.
 */
bool parseLong(const std::string &text, long &value);

} // namespace slambench::support

#endif // SLAMBENCH_SUPPORT_STRINGS_HPP
