/**
 * @file
 * R4: repo conventions:
 *
 *  - no raw assert() in src/ (use DBSIM_ASSERT, on in release builds)
 *  - no stdout writes in src/ (reports own stdout; logs go to stderr)
 *  - include guards must spell DBSIM_<DIRS>_<FILE>_HPP
 *  - catch (...) must rethrow, wrap, or carry an allow() annotation
 */

#include <cctype>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

void
checkAsserts(const SourceFile &f, std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind == Tok::Ident && t[i].text == "assert" &&
            t[i + 1].text == "(") {
            out.push_back({kRuleAssert, f.rel, t[i].line,
                           "raw assert() compiles out under NDEBUG; use "
                           "DBSIM_ASSERT (common/assert.hpp), which stays "
                           "on in release builds",
                           0});
        }
    }
}

void
checkStdout(const SourceFile &f, std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::Ident)
            continue;
        const std::string prev = i > 0 ? t[i - 1].text : std::string();
        const std::string next =
            i + 1 < t.size() ? t[i + 1].text : std::string();
        const bool member = prev == "." || prev == "->";
        if (t[i].text == "cout" && prev == "::" && i >= 2 &&
            t[i - 2].text == "std") {
            out.push_back({kRuleStdout, f.rel, t[i].line,
                           "std::cout in src/: stdout belongs to "
                           "machine-readable reports; log via DBSIM_* "
                           "(stderr) instead",
                           0});
        } else if ((t[i].text == "printf" || t[i].text == "puts") &&
                   next == "(" && !member) {
            out.push_back({kRuleStdout, f.rel, t[i].line,
                           "'" + t[i].text +
                               "' writes to stdout, which belongs to "
                               "machine-readable reports; log via DBSIM_* "
                               "(stderr) instead",
                           0});
        } else if (t[i].text == "fprintf" && next == "(" &&
                   i + 2 < t.size() && t[i + 2].text == "stdout") {
            out.push_back({kRuleStdout, f.rel, t[i].line,
                           "fprintf(stdout, ...) in src/: stdout belongs "
                           "to machine-readable reports; log via DBSIM_* "
                           "(stderr) instead",
                           0});
        }
    }
}

void
checkIncludeGuard(const SourceFile &f, std::vector<RawFinding> &out)
{
    if (!f.isHeader())
        return;
    std::string expected = "DBSIM_";
    for (const char ch : f.rel) {
        if (ch == '/' || ch == '.')
            expected.push_back('_');
        else
            expected.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(ch))));
    }
    // "DBSIM_SIM_SYSTEM_HPP" from "sim/system.hpp": the extension dot
    // became '_' above, so the suffix is already right.
    const PpDirective *ifndef = nullptr;
    const PpDirective *define = nullptr;
    for (const PpDirective &d : f.directives) {
        if (!ifndef) {
            if (d.keyword == "ifndef")
                ifndef = &d;
            else if (d.keyword == "if" || d.keyword == "ifdef")
                return; // unconventional header; pragma-once etc. below
            continue;
        }
        if (d.keyword == "define") {
            define = &d;
            break;
        }
    }
    if (!ifndef) {
        out.push_back({kRuleIncludeGuard, f.rel, 1,
                       "header has no include guard; expected #ifndef " +
                           expected,
                       0});
        return;
    }
    auto firstWord = [](const std::string &s) {
        std::size_t e = 0;
        while (e < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[e])) ||
                s[e] == '_'))
            ++e;
        return s.substr(0, e);
    };
    const std::string got = firstWord(ifndef->rest);
    if (got != expected) {
        out.push_back({kRuleIncludeGuard, f.rel, ifndef->line,
                       "include guard '" + got + "' should be '" +
                           expected + "'",
                       0});
        return;
    }
    if (!define || firstWord(define->rest) != expected) {
        out.push_back({kRuleIncludeGuard, f.rel,
                       define ? define->line : ifndef->line,
                       "include guard #define does not match #ifndef " +
                           expected,
                       0});
    }
}

void
checkCatchSwallow(const SourceFile &f, std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || t[i].text != "catch" ||
            t[i + 1].text != "(" || t[i + 2].text != "..." ||
            t[i + 3].text != ")")
            continue;
        std::size_t j = i + 4;
        while (j < t.size() && t[j].text != "{")
            ++j;
        if (j >= t.size())
            continue;
        int depth = 0;
        bool handled = false;
        int end_line = t[j].line;
        for (; j < t.size(); ++j) {
            const Token &tk = t[j];
            end_line = tk.line;
            if (tk.kind == Tok::Punct) {
                if (tk.text == "{")
                    ++depth;
                else if (tk.text == "}" && --depth == 0)
                    break;
                continue;
            }
            // A rethrow, a structured wrap, or capturing the exception
            // counts as handling it.
            if (tk.kind == Tok::Ident &&
                (tk.text == "throw" || tk.text == "current_exception" ||
                 tk.text == "rethrow_exception" ||
                 tk.text == "DBSIM_PANIC" || tk.text == "DBSIM_FATAL"))
                handled = true;
        }
        if (handled)
            continue;
        out.push_back({kRuleCatchSwallow, f.rel, t[i].line,
                       "catch (...) swallows the exception; rethrow, wrap "
                       "it in a structured failure, or annotate with "
                       "allow(convention-catch-swallow)",
                       end_line});
    }
}

} // namespace

void
runConventionRules(const Corpus &c, std::vector<RawFinding> &out)
{
    for (const SourceFile &f : c.files) {
        checkAsserts(f, out);
        checkStdout(f, out);
        checkIncludeGuard(f, out);
        checkCatchSwallow(f, out);
    }
}

} // namespace dbsim::analyze
