/**
 * @file
 * Declaration index for dbsim-analyze: classes with their methods, plus
 * every function *definition* (free, member, inline or out-of-line) with
 * its body's token range.
 *
 * This is a best-effort symbol layer on top of the flat token stream --
 * no templates instantiated, no overload resolution, no name lookup
 * beyond bare-name matching.  It is exactly strong enough for the
 * call-graph rules (hot-path lint, counter-reachability), which are
 * designed to degrade gracefully: ambiguous names over-approximate or
 * are skipped, never crash.
 */

#ifndef DBSIM_TOOLS_ANALYZE_DECLS_HPP
#define DBSIM_TOOLS_ANALYZE_DECLS_HPP

#include <map>
#include <string>
#include <vector>

#include "corpus.hpp"

namespace dbsim::analyze {

/** One member-function declaration (definition or not). */
struct MethodDecl
{
    std::string name;
    int line = 0;
    bool is_virtual = false; ///< declared with the `virtual` keyword
};

/** One class/struct declaration with a body. */
struct ClassDecl
{
    std::string name; ///< bare name
    std::string file; ///< rel path of the declaring file
    std::vector<MethodDecl> methods;
};

/** One function definition (has a body). */
struct FunctionDef
{
    std::string cls;  ///< bare class name, "" for free functions
    std::string name; ///< bare function name
    int line = 0;      ///< line of the function name
    int decl_line = 0; ///< first line of the definition statement
                       ///< (return type may sit on an earlier line)
    int file_idx = -1;          ///< index into Corpus::files
    std::size_t body_begin = 0; ///< first token index inside the body
    std::size_t body_end = 0;   ///< token index of the closing '}'
};

struct DeclIndex
{
    std::vector<ClassDecl> classes;
    std::vector<FunctionDef> functions;
    /// Bare name -> indices (a vector: overloads and same-named methods
    /// of different classes collide; consumers decide how to
    /// disambiguate).
    std::map<std::string, std::vector<int>> fn_by_name;
};

/** Scan all corpus files and build the declaration index. */
void buildDecls(const Corpus &corpus, DeclIndex &out);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_DECLS_HPP
