#include "analyze.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "corpus.hpp"
#include "rules.hpp"

namespace dbsim::analyze {

namespace {

/// One rule-family pass and the rule ids it produces.
struct Family
{
    void (*pass)(const Corpus &, std::vector<RawFinding> &);
    std::vector<const char *> rules;
};

const std::vector<Family> &
families()
{
    static const std::vector<Family> kFamilies = {
        {runDeterminismRules,
         {kRuleUnorderedContainer, kRuleWallclock, kRuleRand,
          kRulePointerFormat}},
        {runAccountingRules,
         {kRuleCounterCoverage, kRuleSwitchExhaustive}},
        {runLayeringRules, {kRuleLayerCycle, kRuleLayerOrder}},
        {runConventionRules,
         {kRuleAssert, kRuleStdout, kRuleIncludeGuard, kRuleCatchSwallow}},
        {runCheckpointRules, {kRuleCheckpointPurity}},
    };
    return kFamilies;
}

bool
suppressed(const SourceFile &f, const RawFinding &raw)
{
    const int end = std::max(raw.line, raw.scan_end);
    for (int l = raw.line; l <= end; ++l) {
        const auto it = f.allows.find(l);
        if (it != f.allows.end() && it->second.count(raw.rule))
            return true;
    }
    return false;
}

/// A mark that names no known kind or rule is an error, not a silent
/// no-op: a suppression for a deleted rule must not outlive it.
bool
checkMarks(const Corpus &corpus, std::string &error)
{
    for (const SourceFile &f : corpus.files)
        for (const Mark &m : f.marks) {
            const std::string at = f.rel + ":" + std::to_string(m.line);
            if (m.kind != "allow") {
                error = at + ": unknown mark kind '" + m.kind +
                        "' (only allow() is recognised)";
                return false;
            }
            for (const std::string &id : m.items)
                if (!knownRule(id)) {
                    error = at + ": unknown rule '" + id +
                            "' in allow() (see --list-rules)";
                    return false;
                }
        }
    return true;
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog = {
        {kRuleUnorderedContainer, "determinism",
         "No std::unordered_* containers: their iteration order is "
         "unspecified; std::map / std::set iterate in key order "
         "(DESIGN.md §5c)."},
        {kRuleWallclock, "determinism",
         "Host-clock reads are confined to annotated host-timing code "
         "and never feed simulated state or statistics."},
        {kRuleRand, "determinism",
         "Only the seeded dbsim RNG may produce randomness; C rand() "
         "and std::random_device break replay."},
        {kRulePointerFormat, "determinism",
         "Pointer values (ASLR-dependent) must not be formatted into "
         "deterministic output."},
        {kRuleCounterCoverage, "accounting",
         "Every integral counter in a *Stats struct must be updated "
         "somewhere and serialized/read somewhere."},
        {kRuleSwitchExhaustive, "accounting",
         "Switches over enum classes (stall categories above all) must "
         "cover every enumerator or carry a default."},
        {kRuleLayerCycle, "layering",
         "The include graph must be a DAG; cyclic headers are reported "
         "with the full cycle path."},
        {kRuleLayerOrder, "layering",
         "A directory may include only same-layer or lower-layer "
         "headers (common < trace < interconnect < memory < coherence "
         "< cpu < sim < workload < core < verify)."},
        {kRuleAssert, "conventions",
         "Use DBSIM_ASSERT instead of raw assert(); it stays on in "
         "release builds."},
        {kRuleStdout, "conventions",
         "No stdout writes in src/; stdout belongs to machine-readable "
         "reports, logs go to stderr."},
        {kRuleIncludeGuard, "conventions",
         "Include guards spell DBSIM_<DIRS>_<FILE>_HPP."},
        {kRuleCatchSwallow, "conventions",
         "catch (...) must rethrow, wrap the exception in a structured "
         "failure, or carry an allow() annotation."},
        {kRuleCheckpointPurity, "checkpoint",
         "Serialization bodies (saveState/serializeState/stateHash/...) "
         "must stay byte-stable: no host pointer bits, no wall-clock "
         "values (DESIGN.md §5g)."},
    };
    return kCatalog;
}

bool
knownRule(const std::string &id)
{
    for (const RuleInfo &r : ruleCatalog())
        if (id == r.id)
            return true;
    return false;
}

bool
runAnalysis(const Options &opt, Result &out, std::string &error)
{
    for (const std::string &r : opt.rules)
        if (!knownRule(r)) {
            error = "unknown rule '" + r + "' (see --list-rules)";
            return false;
        }
    auto enabled = [&](const std::string &id) {
        return opt.rules.empty() ||
               std::find(opt.rules.begin(), opt.rules.end(), id) !=
                   opt.rules.end();
    };

    Corpus corpus;
    if (!buildCorpus(opt.corpus_root, opt.usage_roots, corpus, error))
        return false;
    out.files_scanned = corpus.files.size();

    if (!checkMarks(corpus, error))
        return false;

    std::vector<RawFinding> raw;
    for (const Family &fam : families()) {
        if (std::any_of(fam.rules.begin(), fam.rules.end(),
                        [&](const char *id) { return enabled(id); }))
            fam.pass(corpus, raw);
    }

    for (const RawFinding &r : raw) {
        if (!enabled(r.rule))
            continue;
        const auto idx = corpus.file_index.find(r.file);
        if (idx != corpus.file_index.end() &&
            suppressed(corpus.files[idx->second], r)) {
            ++out.suppressed;
            continue;
        }
        out.findings.push_back({r.rule, r.file, r.line, r.message});
    }
    std::sort(out.findings.begin(), out.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return true;
}

void
writeText(std::ostream &os, const Result &r)
{
    for (const Finding &f : r.findings)
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    os << "dbsim-analyze: " << r.files_scanned << " files, "
       << r.findings.size() << " finding(s) (" << r.suppressed
       << " suppressed)\n";
}

} // namespace dbsim::analyze
