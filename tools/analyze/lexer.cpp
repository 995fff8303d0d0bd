#include "lexer.hpp"

#include <cctype>

namespace dbsim::analyze {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators we must keep whole so rule passes can
/// match "::", "->", "++", "+=" etc. without reassembling fragments.
/// Longest-match first.
const char *const kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||",
};

/**
 * Collect every `dbsim-analyze: <kind>(a, b)` clause in a comment body
 * (possibly several clauses per comment), with its comma-separated
 * items.
 */
std::vector<Mark>
parseMarks(std::string_view body, int line)
{
    std::vector<Mark> marks;
    const std::string_view needle = "dbsim-analyze: ";
    std::size_t pos = 0;
    while ((pos = body.find(needle, pos)) != std::string_view::npos) {
        pos += needle.size();
        std::size_t open = pos;
        while (open < body.size() && identChar(body[open]))
            ++open;
        if (open == pos || open >= body.size() || body[open] != '(')
            continue;
        const std::size_t close = body.find(')', open);
        if (close == std::string_view::npos)
            break;
        Mark m{std::string(body.substr(pos, open - pos)), {}, line};
        std::string_view list = body.substr(open + 1, close - open - 1);
        std::size_t i = 0;
        while (i < list.size()) {
            while (i < list.size() &&
                   (list[i] == ' ' || list[i] == ',' || list[i] == '\t'))
                ++i;
            std::size_t j = i;
            while (j < list.size() && list[j] != ',' && list[j] != ' ' &&
                   list[j] != '\t')
                ++j;
            if (j > i)
                m.items.emplace_back(list.substr(i, j - i));
            i = j;
        }
        marks.push_back(std::move(m));
        pos = close;
    }
    return marks;
}

} // namespace

bool
SourceFile::isHeader() const
{
    return rel.size() >= 4 && (rel.rfind(".hpp") == rel.size() - 4 ||
                               rel.rfind(".h") == rel.size() - 2);
}

std::string
SourceFile::dir() const
{
    const std::size_t slash = rel.find('/');
    return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

SourceFile
lexSource(std::string rel, std::string_view text)
{
    SourceFile out;
    out.rel = std::move(rel);

    int line = 1;
    std::size_t i = 0;
    const std::size_t n = text.size();
    bool line_has_code = false;       // a code token emitted on this line
    std::set<std::string> pending;    // allows waiting for the next code line

    auto newline = [&] {
        ++line;
        line_has_code = false;
    };
    auto emit = [&](Tok kind, std::string t, int at) {
        if (!pending.empty()) {
            out.allows[at].insert(pending.begin(), pending.end());
            pending.clear();
        }
        line_has_code = true;
        out.tokens.push_back(Token{kind, std::move(t), at});
    };
    auto recordMarks = [&](std::string_view body, int start_line) {
        for (Mark &m : parseMarks(body, start_line)) {
            if (m.kind == "allow") {
                auto &into = line_has_code ? out.allows[start_line] : pending;
                into.insert(m.items.begin(), m.items.end());
            }
            out.marks.push_back(std::move(m));
        }
    };

    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            newline();
            ++i;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
            ++i;
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            const std::size_t start = i;
            while (i < n && text[i] != '\n')
                ++i;
            recordMarks(text.substr(start, i - start), line);
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            const int start_line = line;
            const std::size_t start = i;
            i += 2;
            while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n')
                    ++line; // keep line_has_code: same physical line resumes
                ++i;
            }
            i = (i + 1 < n) ? i + 2 : n;
            recordMarks(text.substr(start, i - start), start_line);
            continue;
        }

        // Preprocessor directive (only when nothing but whitespace and
        // comments precede it on the line).
        if (c == '#' && !line_has_code) {
            const int at = line;
            ++i;
            // Logical line with backslash continuations.
            std::string body;
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
                    i += 2;
                    newline();
                    continue;
                }
                if (text[i] == '\n')
                    break;
                body.push_back(text[i]);
                ++i;
            }
            std::size_t p = 0;
            while (p < body.size() &&
                   std::isspace(static_cast<unsigned char>(body[p])))
                ++p;
            std::size_t q = p;
            while (q < body.size() && identChar(body[q]))
                ++q;
            PpDirective d;
            d.keyword = body.substr(p, q - p);
            while (q < body.size() &&
                   std::isspace(static_cast<unsigned char>(body[q])))
                ++q;
            std::size_t e = body.size();
            while (e > q &&
                   std::isspace(static_cast<unsigned char>(body[e - 1])))
                --e;
            d.rest = body.substr(q, e - q);
            d.line = at;
            if (d.keyword == "include" && d.rest.size() >= 2) {
                IncludeDirective inc;
                inc.line = at;
                const char open = d.rest[0];
                const char close = open == '<' ? '>' : '"';
                const std::size_t endq = d.rest.find(close, 1);
                if ((open == '<' || open == '"') &&
                    endq != std::string::npos) {
                    inc.target = d.rest.substr(1, endq - 1);
                    inc.angled = open == '<';
                    out.includes.push_back(std::move(inc));
                }
            }
            out.directives.push_back(std::move(d));
            continue;
        }

        // String literal (with optional encoding/raw prefix already
        // consumed as an identifier -- handle the common R"(...)" form
        // when it directly follows).
        if (c == '"') {
            const int at = line;
            bool raw = false;
            if (!out.tokens.empty() && out.tokens.back().kind == Tok::Ident &&
                out.tokens.back().line == at) {
                const std::string &prev = out.tokens.back().text;
                if (prev == "R" || prev == "u8R" || prev == "uR" ||
                    prev == "LR") {
                    raw = true;
                    out.tokens.pop_back();
                }
            }
            std::string val;
            ++i;
            if (raw) {
                std::string delim;
                while (i < n && text[i] != '(')
                    delim.push_back(text[i++]);
                if (i < n)
                    ++i; // '('
                const std::string terminator = ")" + delim + "\"";
                while (i < n &&
                       text.compare(i, terminator.size(), terminator) != 0) {
                    if (text[i] == '\n')
                        ++line;
                    val.push_back(text[i++]);
                }
                i += (i < n) ? terminator.size() : 0;
            } else {
                while (i < n && text[i] != '"') {
                    if (text[i] == '\\' && i + 1 < n) {
                        val.push_back(text[i]);
                        val.push_back(text[i + 1]);
                        i += 2;
                        continue;
                    }
                    if (text[i] == '\n')
                        ++line; // unterminated; be forgiving
                    val.push_back(text[i++]);
                }
                if (i < n)
                    ++i; // closing quote
            }
            emit(Tok::String, std::move(val), at);
            continue;
        }

        // Character literal.  Distinguish from digit separators: we only
        // get here when ' starts a token.
        if (c == '\'') {
            const int at = line;
            std::string val;
            ++i;
            while (i < n && text[i] != '\'') {
                if (text[i] == '\\' && i + 1 < n) {
                    val.push_back(text[i]);
                    val.push_back(text[i + 1]);
                    i += 2;
                    continue;
                }
                if (text[i] == '\n')
                    break;
                val.push_back(text[i++]);
            }
            if (i < n && text[i] == '\'')
                ++i;
            emit(Tok::Char, std::move(val), at);
            continue;
        }

        if (identStart(c)) {
            std::size_t j = i;
            while (j < n && identChar(text[j]))
                ++j;
            emit(Tok::Ident, std::string(text.substr(i, j - i)), line);
            i = j;
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
            // pp-number: digits, idents, dots, exponent signs, digit
            // separators.
            std::size_t j = i;
            while (j < n) {
                const char d = text[j];
                if (identChar(d) || d == '.') {
                    ++j;
                    continue;
                }
                if (d == '\'' && j + 1 < n && identChar(text[j + 1])) {
                    j += 2;
                    continue;
                }
                if ((d == '+' || d == '-') && j > i &&
                    (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                     text[j - 1] == 'p' || text[j - 1] == 'P')) {
                    ++j;
                    continue;
                }
                break;
            }
            emit(Tok::Number, std::string(text.substr(i, j - i)), line);
            i = j;
            continue;
        }

        // Punctuator: longest match from the table, else single char.
        {
            std::string match(1, c);
            for (const char *p : kPuncts) {
                const std::size_t len = std::char_traits<char>::length(p);
                if (text.compare(i, len, p) == 0) {
                    match.assign(p);
                    break;
                }
            }
            emit(Tok::Punct, match, line);
            i += match.size();
        }
    }

    out.last_line = line;
    return out;
}

} // namespace dbsim::analyze
