#include "corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace dbsim::analyze {

namespace fs = std::filesystem;

namespace {

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

bool
readFile(const fs::path &p, std::string &out, std::string &error)
{
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        error = "cannot open " + p.string();
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/// Collect and lex every C++ source under `root`, with rel paths
/// relative to it, in sorted order (determinism of the tool itself).
bool
scanRoot(const std::string &root, std::vector<SourceFile> &out,
         std::string &error)
{
    std::error_code ec;
    std::vector<fs::path> paths;
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && isSourceFile(it->path()))
            paths.push_back(it->path());
    }
    if (ec) {
        error = "cannot scan " + root + ": " + ec.message();
        return false;
    }
    std::sort(paths.begin(), paths.end());
    const fs::path base(root);
    for (const fs::path &p : paths) {
        std::string text;
        if (!readFile(p, text, error))
            return false;
        out.push_back(
            lexSource(p.lexically_relative(base).generic_string(), text));
    }
    return true;
}

/// Advance `i` past a balanced {...} run; `i` points at '{' on entry.
void
skipBraces(const std::vector<Token> &t, std::size_t &i)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind != Tok::Punct)
            continue;
        if (t[i].text == "{")
            ++depth;
        else if (t[i].text == "}" && --depth == 0) {
            ++i;
            return;
        }
    }
}

bool
isIntFundamental(const std::string &s)
{
    return s == "uint64_t" || s == "uint32_t" || s == "uint16_t" ||
           s == "uint8_t" || s == "int64_t" || s == "int32_t" ||
           s == "size_t" || s == "int" || s == "long" || s == "unsigned";
}

/**
 * Collect `using Alias = <integral>;` aliases so counters typed with
 * repo aliases (Cycles, Addr, ...) are recognized.  Template aliases and
 * pointer aliases are excluded.  One resolution round also picks up
 * aliases of aliases declared earlier in scan order.
 */
void
indexIntAliases(const SourceFile &f, std::set<std::string> &aliases)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || t[i].text != "using" ||
            t[i + 1].kind != Tok::Ident || t[i + 2].text != "=")
            continue;
        bool integral = false, excluded = false;
        for (std::size_t j = i + 3; j < t.size() && t[j].text != ";"; ++j) {
            if (t[j].kind == Tok::Ident &&
                (isIntFundamental(t[j].text) || aliases.count(t[j].text)))
                integral = true;
            if (t[j].kind == Tok::Punct &&
                (t[j].text == "<" || t[j].text == "*" || t[j].text == "("))
                excluded = true;
        }
        if (integral && !excluded)
            aliases.insert(t[i + 1].text);
    }
}

bool
isNonCounterType(const std::string &s)
{
    return s == "double" || s == "float" || s == "bool" || s == "string" ||
           s == "vector" || s == "array" || s == "map" || s == "set" ||
           s == "atomic" || s == "optional" || s == "pair";
}

/**
 * Parse the body of `struct FooStats { ... }` starting with `i` at the
 * opening '{'.  Records integral counter fields, skipping member
 * function bodies and non-integral members.
 */
void
parseStatsBody(const SourceFile &f, std::size_t &i,
               const std::set<std::string> &aliases,
               Corpus::StatsStruct &out)
{
    const std::vector<Token> &t = f.tokens;
    auto isIntCounterType = [&](const std::string &s) {
        return isIntFundamental(s) || aliases.count(s) != 0;
    };
    ++i; // past '{'
    std::vector<std::size_t> stmt; // token indices of the statement
    bool saw_brace_init = false;
    std::size_t brace_init_name = 0;

    auto flush = [&] {
        if (stmt.empty() && !saw_brace_init)
            return;
        bool has_paren = false, has_int = false, has_excl = false;
        bool skip = false;
        for (std::size_t k : stmt) {
            const Token &tk = t[k];
            if (tk.kind == Tok::Punct && tk.text == "(")
                has_paren = true;
            if (tk.kind == Tok::Ident) {
                if (isIntCounterType(tk.text))
                    has_int = true;
                if (isNonCounterType(tk.text))
                    has_excl = true;
                if (tk.text == "using" || tk.text == "typedef" ||
                    tk.text == "friend" || tk.text == "struct" ||
                    tk.text == "enum" || tk.text == "static")
                    skip = true;
            }
        }
        if (!skip && !has_paren && has_int && !has_excl) {
            // Declarator names: idents immediately followed by '=', ','
            // or the end of the statement, plus a brace-initialized one.
            for (std::size_t x = 0; x < stmt.size(); ++x) {
                const Token &tk = t[stmt[x]];
                if (tk.kind != Tok::Ident || isIntCounterType(tk.text) ||
                    tk.text == "std" || tk.text == "const" ||
                    tk.text == "constexpr")
                    continue;
                const bool at_end = x + 1 == stmt.size();
                const std::string next =
                    at_end ? std::string(";") : t[stmt[x + 1]].text;
                if (next == "=" || next == "," || next == ";")
                    out.fields.push_back({tk.text, tk.line});
            }
            if (saw_brace_init && brace_init_name < t.size() &&
                t[brace_init_name].kind == Tok::Ident)
                out.fields.push_back(
                    {t[brace_init_name].text, t[brace_init_name].line});
        }
        stmt.clear();
        saw_brace_init = false;
    };

    while (i < t.size()) {
        const Token &tk = t[i];
        if (tk.kind == Tok::Punct && tk.text == "}") {
            flush();
            ++i;
            if (i < t.size() && t[i].text == ";")
                ++i;
            return;
        }
        if (tk.kind == Tok::Punct && tk.text == "{") {
            bool is_fn = false;
            for (std::size_t k : stmt)
                if (t[k].kind == Tok::Punct && t[k].text == "(") {
                    is_fn = true;
                    break;
                }
            if (is_fn) {
                skipBraces(t, i);
                if (i < t.size() && t[i].text == ";")
                    ++i;
                stmt.clear();
                saw_brace_init = false;
            } else {
                // Brace initializer: remember the declarator just
                // before it, then skip the braces.
                if (!stmt.empty())
                    brace_init_name = stmt.back();
                saw_brace_init = !stmt.empty();
                if (!stmt.empty())
                    stmt.pop_back();
                skipBraces(t, i);
            }
            continue;
        }
        if (tk.kind == Tok::Punct && tk.text == ";") {
            flush();
            ++i;
            continue;
        }
        if (tk.kind == Tok::Punct && tk.text == ":" && stmt.size() == 1 &&
            t[stmt[0]].kind == Tok::Ident &&
            (t[stmt[0]].text == "public" || t[stmt[0]].text == "private" ||
             t[stmt[0]].text == "protected")) {
            stmt.clear();
            ++i;
            continue;
        }
        stmt.push_back(i);
        ++i;
    }
}

void
indexStatsStructs(const SourceFile &f, const std::set<std::string> &aliases,
                  std::vector<Corpus::StatsStruct> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident ||
            (t[i].text != "struct" && t[i].text != "class"))
            continue;
        const Token &name = t[i + 1];
        if (name.kind != Tok::Ident || name.text.size() < 6 ||
            name.text.compare(name.text.size() - 5, 5, "Stats") != 0)
            continue;
        // Find the body '{' (skipping a base-clause); bail on ';' (a
        // forward declaration) or '(' (a constructor-like false match).
        std::size_t j = i + 2;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";" &&
               t[j].text != "(")
            ++j;
        if (j >= t.size() || t[j].text != "{")
            continue;
        Corpus::StatsStruct s;
        s.name = name.text;
        s.file_rel = f.rel;
        s.line = name.line;
        parseStatsBody(f, j, aliases, s);
        if (!s.fields.empty())
            out.push_back(std::move(s));
        i = j ? j - 1 : j;
    }
}

void
indexEnums(const SourceFile &f, std::map<std::string, Corpus::EnumDef> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || t[i].text != "enum")
            continue;
        std::size_t j = i + 1;
        if (j < t.size() && (t[j].text == "class" || t[j].text == "struct"))
            ++j;
        if (j >= t.size() || t[j].kind != Tok::Ident)
            continue;
        Corpus::EnumDef def;
        def.name = t[j].text;
        def.file_rel = f.rel;
        def.line = t[j].line;
        ++j;
        // Optional underlying type, then '{' (';' = opaque declaration).
        while (j < t.size() && t[j].text != "{" && t[j].text != ";")
            ++j;
        if (j >= t.size() || t[j].text != "{")
            continue;
        ++j;
        bool expect_name = true;
        int depth = 1;
        for (; j < t.size() && depth > 0; ++j) {
            const Token &tk = t[j];
            if (tk.kind == Tok::Punct) {
                if (tk.text == "{" || tk.text == "(")
                    ++depth;
                else if (tk.text == "}" || tk.text == ")")
                    --depth;
                else if (tk.text == "," && depth == 1)
                    expect_name = true;
                continue;
            }
            if (depth == 1 && expect_name && tk.kind == Tok::Ident) {
                def.enumerators.push_back(tk.text);
                expect_name = false;
            }
        }
        auto [it, inserted] = out.emplace(def.name, def);
        if (!inserted && it->second.enumerators != def.enumerators)
            it->second.ambiguous = true;
        i = j ? j - 1 : j;
    }
}

} // namespace

bool
buildCorpus(const std::string &corpus_root,
            const std::vector<std::string> &usage_roots, Corpus &out,
            std::string &error)
{
    if (!scanRoot(corpus_root, out.files, error))
        return false;
    for (const std::string &root : usage_roots) {
        std::error_code ec;
        if (!fs::is_directory(root, ec))
            continue; // optional roots: absent is fine
        if (!scanRoot(root, out.usage_files, error))
            return false;
    }

    for (std::size_t i = 0; i < out.files.size(); ++i)
        out.file_index.emplace(out.files[i].rel, static_cast<int>(i));

    // Include edges, resolved corpus-root-relative first (the repo
    // convention), then relative to the including file's directory.
    for (std::size_t i = 0; i < out.files.size(); ++i) {
        const SourceFile &f = out.files[i];
        for (const IncludeDirective &inc : f.includes) {
            if (inc.angled)
                continue; // system headers are outside the corpus
            auto it = out.file_index.find(inc.target);
            if (it == out.file_index.end() && !f.dir().empty())
                it = out.file_index.find(f.dir() + "/" + inc.target);
            if (it != out.file_index.end())
                out.edges.push_back(
                    {static_cast<int>(i), it->second, inc.line});
        }
    }

    // Aliases first: stats-struct indexing needs the full alias set
    // regardless of declaration order across files.
    for (const SourceFile &f : out.files)
        indexIntAliases(f, out.int_aliases);

    for (const SourceFile &f : out.files) {
        indexStatsStructs(f, out.int_aliases, out.stats_structs);
        indexEnums(f, out.enums);
    }
    return true;
}

} // namespace dbsim::analyze
