/**
 * @file
 * R1: determinism rules.  The simulator's output contract (DESIGN.md
 * §5c) requires bitwise-identical reports, dumps, and traces across
 * runs; these passes flag the classic ways that breaks: a hash
 * container whose iteration order is unspecified, reading the host
 * clock, C rand(), and formatting pointer values.
 */

#include <set>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

const std::set<std::string> &
wallclockTokens()
{
    static const std::set<std::string> kTokens = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "localtime",
        "gmtime",        "strftime",      "sleep_for",
        "sleep_until",
    };
    return kTokens;
}

const std::set<std::string> &
unorderedTokens()
{
    static const std::set<std::string> kTokens = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    return kTokens;
}

const std::set<std::string> &
randTokens()
{
    static const std::set<std::string> kTokens = {
        "rand", "srand", "rand_r", "drand48", "random_device",
    };
    return kTokens;
}

void
checkTokenList(const SourceFile &f, const std::set<std::string> &bad,
               const char *rule, const std::string &what,
               std::vector<RawFinding> &out)
{
    int last_line = 0; // one finding per line is enough
    for (const Token &tk : f.tokens) {
        if (tk.kind != Tok::Ident || !bad.count(tk.text) ||
            tk.line == last_line)
            continue;
        last_line = tk.line;
        out.push_back({rule, f.rel, tk.line,
                       "'" + tk.text + "' " + what, 0});
    }
}

void
checkPointerFormat(const SourceFile &f, std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind == Tok::String &&
            t[i].text.find("%p") != std::string::npos) {
            out.push_back({kRulePointerFormat, f.rel, t[i].line,
                           "\"%p\" formats a pointer value: addresses vary "
                           "run to run (ASLR) and must not reach "
                           "deterministic output",
                           0});
        }
        // Streaming a raw pointer of a named object: `<< &x` (string
        // and char data pointers excluded by the & requirement).
        if (t[i].kind == Tok::Punct && t[i].text == "<<" &&
            i + 2 < t.size() && t[i + 1].text == "&" &&
            t[i + 2].kind == Tok::Ident) {
            out.push_back({kRulePointerFormat, f.rel, t[i].line,
                           "streaming '&" + t[i + 2].text +
                               "' prints a host address, which varies run "
                               "to run (ASLR) and must not reach "
                               "deterministic output",
                           0});
        }
    }
}

} // namespace

void
runDeterminismRules(const Corpus &c, std::vector<RawFinding> &out)
{
    for (const SourceFile &f : c.files) {
        checkTokenList(f, unorderedTokens(), kRuleUnorderedContainer,
                       "iterates in an unspecified order: use std::map / "
                       "std::set, whose order is the key order",
                       out);
        checkTokenList(f, wallclockTokens(), kRuleWallclock,
                       "reads the host clock: wall time must stay inside "
                       "annotated host-timing code and never feed "
                       "simulated state or reported statistics",
                       out);
        checkTokenList(f, randTokens(), kRuleRand,
                       "is non-deterministic randomness: use the seeded "
                       "dbsim RNG (common/rng.hpp) so runs replay "
                       "bit-identically",
                       out);
        checkPointerFormat(f, out);
    }
}

} // namespace dbsim::analyze
