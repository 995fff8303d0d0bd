/**
 * @file
 * Lightweight C++ lexer for dbsim-analyze.
 *
 * This is not a compiler front end: it produces a flat token stream per
 * translation unit, plus the preprocessor directives and the inline
 * suppression comments, which is exactly what the rule passes need.
 * Comments and string/char literals are handled precisely (so rules
 * never match inside them), but no preprocessing or name lookup is
 * performed.
 */

#ifndef DBSIM_TOOLS_ANALYZE_LEXER_HPP
#define DBSIM_TOOLS_ANALYZE_LEXER_HPP

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dbsim::analyze {

enum class Tok : unsigned char {
    Ident,   ///< identifier or keyword
    Number,  ///< numeric literal (pp-number)
    String,  ///< string literal, text is the *contents* (no quotes)
    Char,    ///< character literal, text is the contents
    Punct,   ///< operator / punctuator, multi-char ops kept together
};

struct Token
{
    Tok kind;
    std::string text;
    int line; ///< 1-based
};

/// One #include directive, with the raw target path.
struct IncludeDirective
{
    std::string target;
    int line;
    bool angled; ///< <...> rather than "..."
};

/// Any preprocessor directive (keyword + untokenized remainder).
struct PpDirective
{
    std::string keyword; ///< e.g. "ifndef", "define", "include"
    std::string rest;    ///< remainder of the logical line, trimmed
    int line;
};

/// One `dbsim-analyze: <kind>(<item>[, <item>...])` comment clause, as
/// written.  `allow` is the only kind; the engine rejects any other
/// kind and any allow() item that names no rule.
struct Mark
{
    std::string kind;
    std::vector<std::string> items;
    int line; ///< line of the comment
};

/**
 * A lexed source file.  Suppressions live in comments:
 *     // dbsim-analyze: allow(<rule>[, <rule>...])
 * A mark sharing a line with code applies to that line; a standalone
 * mark applies to the next line that has code.  `allows` maps a line to
 * its suppressed rule ids; `marks` keeps every clause for validation.
 */
struct SourceFile
{
    std::string rel;  ///< path relative to the corpus root, '/'-separated
    std::vector<Token> tokens;
    std::vector<IncludeDirective> includes;
    std::vector<PpDirective> directives;
    std::map<int, std::set<std::string>> allows;
    std::vector<Mark> marks;
    int last_line = 0;

    bool isHeader() const;
    /// First path component of rel ("sim" for "sim/system.hpp"), or ""
    /// for files that live directly in the corpus root.
    std::string dir() const;
};

SourceFile lexSource(std::string rel, std::string_view text);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_LEXER_HPP
