/**
 * @file
 * R1: determinism rules.  The simulator's output contract (DESIGN.md
 * §5c) requires bitwise-identical reports, dumps, and traces across
 * runs; these passes flag the classic ways that breaks: iterating an
 * unordered container into an output path, reading the host clock, C
 * rand(), and formatting pointer values.
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
randTokens()
{
    static const std::set<std::string> kTokens = {
        "rand", "srand", "rand_r", "drand48", "random_device",
    };
    return kTokens;
}

void
checkUnorderedIteration(const Corpus &c, const SourceFile &f,
                        std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for whose range expression names an unordered variable.
        if (t[i].kind == Tok::Ident && t[i].text == "for" &&
            i + 1 < t.size() && t[i + 1].text == "(") {
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close = 0;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (t[j].kind != Tok::Punct)
                    continue;
                if (t[j].text == "(")
                    ++depth;
                else if (t[j].text == ")" && --depth == 0) {
                    close = j;
                    break;
                } else if (t[j].text == ":" && depth == 1 && colon == 0)
                    colon = j;
                else if (t[j].text == ";" && depth == 1) {
                    colon = 0; // classic for loop, not a range-for
                    break;
                }
            }
            if (colon && close) {
                // snap::sortedKeys() is the sanctioned sorted-snapshot
                // helper (common/snapshot.hpp): a range expression that
                // routes the container through it is exactly the fix
                // this rule's message demands, so it must not re-flag.
                bool sanctioned = false;
                for (std::size_t j = colon + 1; j < close; ++j)
                    if (t[j].kind == Tok::Ident &&
                        t[j].text == "sortedKeys")
                        sanctioned = true;
                for (std::size_t j = colon + 1; !sanctioned && j < close;
                     ++j) {
                    if (t[j].kind == Tok::Ident &&
                        c.unordered_vars.count(t[j].text)) {
                        out.push_back(
                            {kRuleUnorderedIter, f.rel, t[i].line,
                             "range-for over unordered container '" +
                                 t[j].text +
                                 "': iteration order is not deterministic "
                                 "and must not reach any output path "
                                 "(sort a snapshot instead)",
                             0});
                        break;
                    }
                }
            }
        }
        // Explicit iterator walk: <unordered>.begin() / .cbegin().
        if (t[i].kind == Tok::Ident && c.unordered_vars.count(t[i].text) &&
            i + 2 < t.size() && t[i + 1].kind == Tok::Punct &&
            (t[i + 1].text == "." || t[i + 1].text == "->") &&
            t[i + 2].kind == Tok::Ident &&
            (t[i + 2].text == "begin" || t[i + 2].text == "cbegin")) {
            out.push_back({kRuleUnorderedIter, f.rel, t[i].line,
                           "iterator over unordered container '" +
                               t[i].text +
                               "': iteration order is not deterministic "
                               "and must not reach any output path "
                               "(sort a snapshot instead)",
                           0});
        }
    }
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
        checkUnorderedIteration(c, f, out);
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
