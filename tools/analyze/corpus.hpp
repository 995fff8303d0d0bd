/**
 * @file
 * Corpus model for dbsim-analyze: the scanned file set, the include
 * graph resolved within it, and the cross-file declaration indexes the
 * rule passes consult (*Stats counter structs, enum definitions).
 */

#ifndef DBSIM_TOOLS_ANALYZE_CORPUS_HPP
#define DBSIM_TOOLS_ANALYZE_CORPUS_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace dbsim::analyze {

struct Corpus
{
    /// Files under the corpus root, sorted by rel path.  Findings are
    /// only ever reported against these.
    std::vector<SourceFile> files;
    /// Files under auxiliary usage roots (tests/, bench/, ...): indexed
    /// for the accounting rule's consumption side, never reported on.
    std::vector<SourceFile> usage_files;

    std::map<std::string, int> file_index; ///< rel -> index into files

    /// Include edge between two corpus files.
    struct Edge
    {
        int from;
        int to;
        int line; ///< line of the #include in `from`
    };
    std::vector<Edge> edges;

    /// Type aliases that resolve to integral types (`using Cycles =
    /// std::uint64_t;`), derived from the corpus itself so alias-typed
    /// *Stats counters are covered without a hand-maintained list.
    std::set<std::string> int_aliases;

    struct CounterField
    {
        std::string name;
        int line;
    };
    struct StatsStruct
    {
        std::string name;
        std::string file_rel;
        int line;
        std::vector<CounterField> fields;
    };
    std::vector<StatsStruct> stats_structs;

    struct EnumDef
    {
        std::string name;
        std::string file_rel;
        int line = 0;
        std::vector<std::string> enumerators;
        /// Two distinct enums share this bare name; switches over it
        /// are skipped rather than misjudged.
        bool ambiguous = false;
    };
    std::map<std::string, EnumDef> enums; ///< keyed by bare enum name
};

/**
 * Scan `corpus_root` (and `usage_roots`) for C++ sources, lex them, and
 * build all indexes.  Returns false with `error` set on I/O failure.
 */
bool buildCorpus(const std::string &corpus_root,
                 const std::vector<std::string> &usage_roots, Corpus &out,
                 std::string &error);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_CORPUS_HPP
