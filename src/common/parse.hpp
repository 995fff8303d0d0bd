/**
 * @file
 * The one reader of unsigned decimal text: CLI flags and positional
 * arguments, the DBSIM_JOBS and DBSIM_DEBUG environment variables, and
 * the numbers of a fuzz repro file.
 */

#ifndef DBSIM_COMMON_PARSE_HPP
#define DBSIM_COMMON_PARSE_HPP

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "common/errors.hpp"

namespace dbsim {

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

} // namespace dbsim

#endif // DBSIM_COMMON_PARSE_HPP
