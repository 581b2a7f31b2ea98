#include "support/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace slambench::support {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> fields;
    std::string current;
    for (char c : text) {
        if (c == sep) {
            fields.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    fields.push_back(current);
    return fields;
}

std::string
trim(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::string
toLower(const std::string &text)
{
    std::string lower = text;
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return lower;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return "";
    }
    std::string text(static_cast<size_t>(needed), '\0');
    std::vsnprintf(text.data(), text.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return text;
}

bool
parseDouble(const std::string &text, double &value)
{
    const std::string t = trim(text);
    if (t.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(t.c_str(), &end);
    if (end != t.c_str() + t.size() || errno == ERANGE)
        return false;
    value = parsed;
    return true;
}

bool
parseLong(const std::string &text, long &value)
{
    const std::string t = trim(text);
    if (t.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(t.c_str(), &end, 10);
    if (end != t.c_str() + t.size() || errno == ERANGE)
        return false;
    value = parsed;
    return true;
}

} // namespace slambench::support
