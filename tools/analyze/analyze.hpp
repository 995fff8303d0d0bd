/**
 * @file
 * Public interface of the dbsim-analyze engine.
 *
 * dbsim-analyze is the repo's self-hosted static analysis tool: a
 * lightweight lexer + include-graph walker (no libclang) feeding a
 * registry of rule passes that enforce the project's determinism,
 * stats-accounting, layering, and convention contracts (DESIGN.md §5f).
 *
 * Findings can be suppressed inline with
 *     // dbsim-analyze: allow(<rule>[, <rule>...]) -- reason
 * on the offending line or on a comment line directly above it.  An
 * allow() naming an unknown rule, or a mark of any other kind, fails
 * the run.
 */

#ifndef DBSIM_TOOLS_ANALYZE_ANALYZE_HPP
#define DBSIM_TOOLS_ANALYZE_ANALYZE_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace dbsim::analyze {

struct Finding
{
    std::string rule;
    std::string file; ///< corpus-root-relative path
    int line = 0;
    std::string message;
};

struct RuleInfo
{
    const char *id;
    const char *family; ///< "determinism", "accounting", "layering",
                        ///< "conventions", "checkpoint"
    const char *description;
};

/// The full rule catalog, in stable display order.
const std::vector<RuleInfo> &ruleCatalog();

/// True if `id` names a rule in the catalog.
bool knownRule(const std::string &id);

struct Options
{
    /// Directory scanned for findings (typically <repo>/src).
    std::string corpus_root;
    /// Extra roots indexed only for usage (counter consumption lives in
    /// tests/, bench/, tools/, examples/); missing ones are skipped.
    std::vector<std::string> usage_roots;
    /// Rule ids to run; empty = all.
    std::vector<std::string> rules;
};

struct Result
{
    /// Findings not suppressed inline, sorted by (file, line, rule,
    /// message).
    std::vector<Finding> findings;
    std::size_t suppressed = 0;
    std::size_t files_scanned = 0;
};

/// Run the analysis; returns false with `error` set on I/O or usage
/// errors (unknown rule, stale mark, unreadable corpus, ...).
bool runAnalysis(const Options &opt, Result &out, std::string &error);

/// Plain-text report: one "file:line: [rule] message" per finding plus
/// a one-line summary.
void writeText(std::ostream &os, const Result &r);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_ANALYZE_HPP
