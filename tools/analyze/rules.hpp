/**
 * @file
 * Internal rule-pass interface.  Each family pass scans the corpus and
 * appends raw findings; the engine then applies inline suppressions
 * and rule filtering.
 */

#ifndef DBSIM_TOOLS_ANALYZE_RULES_HPP
#define DBSIM_TOOLS_ANALYZE_RULES_HPP

#include <string>
#include <vector>

#include "analyze.hpp"
#include "corpus.hpp"

namespace dbsim::analyze {

/// A finding as produced by a rule pass.  `scan_end` widens the line
/// range searched for an inline allow() (e.g. a whole catch block); 0
/// means just the finding line.
struct RawFinding
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;
    int scan_end = 0;
};

// Rule ids (shared between passes, engine, and tests).
inline constexpr char kRuleUnorderedContainer[] = "determinism-unordered-container";
inline constexpr char kRuleWallclock[] = "determinism-wallclock";
inline constexpr char kRuleRand[] = "determinism-rand";
inline constexpr char kRulePointerFormat[] = "determinism-pointer-format";
inline constexpr char kRuleCounterCoverage[] = "accounting-counter-coverage";
inline constexpr char kRuleSwitchExhaustive[] = "accounting-switch-exhaustive";
inline constexpr char kRuleLayerCycle[] = "layering-cycle";
inline constexpr char kRuleLayerOrder[] = "layering-order";
inline constexpr char kRuleAssert[] = "convention-assert";
inline constexpr char kRuleStdout[] = "convention-stdout";
inline constexpr char kRuleIncludeGuard[] = "convention-include-guard";
inline constexpr char kRuleCatchSwallow[] = "convention-catch-swallow";
inline constexpr char kRuleCheckpointPurity[] = "checkpoint-purity";

void runDeterminismRules(const Corpus &c, std::vector<RawFinding> &out);
void runAccountingRules(const Corpus &c, std::vector<RawFinding> &out);
void runLayeringRules(const Corpus &c, std::vector<RawFinding> &out);
void runConventionRules(const Corpus &c, std::vector<RawFinding> &out);
void runCheckpointRules(const Corpus &c, std::vector<RawFinding> &out);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_RULES_HPP
