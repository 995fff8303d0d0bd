/**
 * @file
 * Entry-point guard and argument parsers for the CLI executables.
 *
 * Every CLI wraps its body in guardedMain(), so a rejected configuration
 * (ConfigError from the validate() layer) prints one actionable line and
 * exits with status 2 instead of an unhandled-exception abort, and an
 * integrity failure (SimInvariantError) exits with status 3 after its
 * diagnostic dump.  parseUnsigned() (common/parse.hpp) and parseChoice()
 * reject an argument they cannot read the same way, rather than guessing
 * at it.
 */

#ifndef DBSIM_CORE_CLI_GUARD_HPP
#define DBSIM_CORE_CLI_GUARD_HPP

#include <cstddef>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <string>

#include "common/errors.hpp"
#include "common/parse.hpp"

namespace dbsim::core {

// Declared in common/parse.hpp; the CLIs call it as core::parseUnsigned.
using dbsim::parseUnsigned;

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
