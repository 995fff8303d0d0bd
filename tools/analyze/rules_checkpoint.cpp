/**
 * @file
 * R5: checkpoint-purity.  The checkpoint/restore layer (DESIGN.md §5g)
 * demands that serialized machine state be byte-stable across processes
 * and runs: the bytes feed both checkpoint() and the epoch FNV
 * state hashes, so anything host-dependent in a serialization
 * body silently breaks restore determinism and divergence bisection.
 *
 * The pass locates the *definitions* of the functions that construct
 * state bytes (saveState, serializeState, stateHash, configSignature,
 * checkpoint) and flags, inside their bodies only:
 *
 *   - reinterpret_cast: host pointer bits written into the stream
 *     (addresses vary run to run under ASLR);
 *   - host-clock reads (steady_clock, gettimeofday, ...): wall-clock
 *     values serialized into supposedly replayable state.
 *
 * Container order needs no check here: determinism-unordered-container
 * keeps hash containers out of src/, so every keyed container
 * serializes in key order.
 */

#include <set>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

const std::set<std::string> &
serializerNames()
{
    static const std::set<std::string> kNames = {
        "saveState", "serializeState", "stateHash", "configSignature",
        "checkpoint",
    };
    return kNames;
}

const std::set<std::string> &
wallclockTokens()
{
    static const std::set<std::string> kTokens = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "localtime",
        "gmtime",        "strftime",
    };
    return kTokens;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Tok::Punct && t.text == text;
}

/**
 * If tokens[i] starts a function *definition* of one of the
 * serializer names, return true and set [body_begin, body_end) to the
 * token range of its braced body.  Declarations (`... saveState(...)
 * ;`) and call sites (`x.saveState(w);`) are left alone.
 */
bool
matchSerializerDefinition(const std::vector<Token> &t, std::size_t i,
                          std::size_t &body_begin, std::size_t &body_end)
{
    if (t[i].kind != Tok::Ident || !serializerNames().count(t[i].text))
        return false;
    // A call site is preceded by `.` or `->`; a definition never is.
    if (i > 0 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")))
        return false;
    if (i + 1 >= t.size() || !isPunct(t[i + 1], "("))
        return false;

    // Skip the parameter list.
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < t.size(); ++j) {
        if (isPunct(t[j], "("))
            ++depth;
        else if (isPunct(t[j], ")") && --depth == 0)
            break;
    }
    if (j >= t.size())
        return false;

    // Skip trailing qualifiers (const, noexcept, override, ...).
    ++j;
    while (j < t.size() &&
           (t[j].kind == Tok::Ident || isPunct(t[j], "&&")))
        ++j;
    if (j >= t.size() || !isPunct(t[j], "{"))
        return false;

    body_begin = j + 1;
    depth = 1;
    for (std::size_t k = body_begin; k < t.size(); ++k) {
        if (isPunct(t[k], "{"))
            ++depth;
        else if (isPunct(t[k], "}") && --depth == 0) {
            body_end = k;
            return true;
        }
    }
    return false;
}

void
checkBody(const SourceFile &f, const std::string &fn,
          std::size_t begin, std::size_t end,
          std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    int last_clock_line = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (t[i].kind != Tok::Ident)
            continue;

        if (t[i].text == "reinterpret_cast") {
            out.push_back(
                {kRuleCheckpointPurity, f.rel, t[i].line,
                 "reinterpret_cast inside " + fn +
                     "(): host pointer bits must never enter "
                     "serialized state (addresses vary run to run)",
                 0});
            continue;
        }

        if (wallclockTokens().count(t[i].text) &&
            t[i].line != last_clock_line) {
            last_clock_line = t[i].line;
            out.push_back(
                {kRuleCheckpointPurity, f.rel, t[i].line,
                 "'" + t[i].text + "' inside " + fn +
                     "(): wall-clock values must never enter "
                     "serialized state (they differ on every run)",
                 0});
        }
    }
}

} // namespace

void
runCheckpointRules(const Corpus &c, std::vector<RawFinding> &out)
{
    for (const SourceFile &f : c.files) {
        const std::vector<Token> &t = f.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::size_t begin = 0, end = 0;
            if (matchSerializerDefinition(t, i, begin, end)) {
                checkBody(f, t[i].text, begin, end, out);
                i = begin; // bodies never nest serializer definitions
            }
        }
    }
}

} // namespace dbsim::analyze
