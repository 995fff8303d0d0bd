/**
 * @file
 * Entry-point guard and argument parsers for the CLI executables.
 *
 * Every CLI wraps its body in guardedMain(), so a rejected configuration
 * (ConfigError from the validate() layer) prints one actionable line and
 * exits with status 2 instead of an unhandled-exception abort, and an
 * integrity failure (SimInvariantError) exits with status 3 after its
 * diagnostic dump.  parseUnsigned() and parseChoice() reject an argument
 * they cannot read the same way, rather than guessing at it.
 */

#ifndef DBSIM_CORE_CLI_GUARD_HPP
#define DBSIM_CORE_CLI_GUARD_HPP

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

#include "common/errors.hpp"

namespace dbsim::core {

/**
 * Argument @p name (a flag such as "--jobs", or a positional name) read
 * as a decimal integer in [@p min, @p max].  Digits only: "", "8x",
 * "-1", "+3" and out-of-range values throw ConfigError instead of being
 * read as 8, 2^64-1 or 3.
 */
template <typename T = std::uint64_t>
T
parseUnsigned(const std::string &name, const std::string &text,
              std::type_identity_t<T> min = 0,
              std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && ptr == end && v >= min && v <= max)
        return v;
    std::string want = "a decimal integer";
    if (max < std::numeric_limits<T>::max())
        want += " in [" + std::to_string(min) + ", " + std::to_string(max) +
                "]";
    else if (min > 0)
        want += " >= " + std::to_string(min);
    throw ConfigError("cli." + name.substr(name.find_first_not_of('-')),
                      name + " wants " + want + ", got \"" + text + "\"");
}

/**
 * Position of @p text in @p words; any other word throws ConfigError
 * naming argument @p name (a flag or a positional name) and the words
 * it takes.
 */
inline std::size_t
parseChoice(const std::string &name, const std::string &text,
            std::initializer_list<const char *> words)
{
    std::size_t i = 0;
    std::string want;
    for (const char *w : words) {
        if (text == w)
            return i;
        want += i++ ? "|" : "";
        want += w;
    }
    throw ConfigError("cli." + name.substr(name.find_first_not_of('-')),
                      name + " wants " + want + ", got \"" + text + "\"");
}

template <typename Fn>
int
guardedMain(Fn &&body)
{
    try {
        return body();
    } catch (const ConfigError &e) {
        std::cerr << "dbsim: " << e.what() << "\n";
        return 2;
    } catch (const SimInvariantError &e) {
        std::cerr << "dbsim: " << e.what() << "\n";
        return 3;
    } catch (const std::exception &e) {
        std::cerr << "dbsim: fatal: " << e.what() << "\n";
        return 1;
    }
}

} // namespace dbsim::core

#endif // DBSIM_CORE_CLI_GUARD_HPP
