/**
 * @file
 * Self-tests for dbsim-analyze against the seeded fixture corpus in
 * tests/analyze_fixtures/: every rule must catch its seeded violation,
 * every clean twin must pass, and inline suppressions must apply.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "analyze.hpp"

namespace {

using dbsim::analyze::Finding;
using dbsim::analyze::Options;
using dbsim::analyze::Result;
using dbsim::analyze::RuleInfo;

std::string
fixture(const std::string &name)
{
    return std::string(DBSIM_ANALYZE_FIXTURES) + "/" + name;
}

Result
analyze(const std::string &dir, std::vector<std::string> rules = {})
{
    Options opt;
    opt.corpus_root = fixture(dir);
    opt.rules = std::move(rules);
    Result r;
    std::string err;
    EXPECT_TRUE(dbsim::analyze::runAnalysis(opt, r, err)) << err;
    return r;
}

/// The fixture convention: every seeded violation lives in a file whose
/// name starts with "bad"; everything else is a clean twin.
bool
isSeededFile(const std::string &rel)
{
    const std::size_t slash = rel.rfind('/');
    const std::string base =
        slash == std::string::npos ? rel : rel.substr(slash + 1);
    return base.rfind("bad", 0) == 0;
}

struct SeededCase
{
    const char *dir;
    const char *rule;
    const char *file;
    std::size_t count; ///< findings expected from this rule alone
};

const SeededCase kSeeded[] = {
    {"determinism_unordered", "determinism-unordered-container",
     "bad.cpp", 1},
    {"determinism_wallclock", "determinism-wallclock", "bad.cpp", 1},
    {"determinism_rand", "determinism-rand", "bad.cpp", 1},
    {"determinism_pointer", "determinism-pointer-format", "bad.cpp", 1},
    // misses (updated, never read) + skips (never updated)
    {"accounting_counter", "accounting-counter-coverage",
     "bad_counters.hpp", 2},
    {"accounting_switch", "accounting-switch-exhaustive", "bad.cpp", 1},
    {"layering_order", "layering-order", "common/bad_reach.hpp", 1},
    {"layering_cycle", "layering-cycle", "alpha/bad_y.hpp", 1},
    {"convention_assert", "convention-assert", "bad.cpp", 1},
    {"convention_stdout", "convention-stdout", "bad.cpp", 1},
    {"convention_guard", "convention-include-guard", "bad.hpp", 1},
    {"convention_catch", "convention-catch-swallow", "bad.cpp", 1},
    // pointer bits + wall clock
    {"checkpoint_purity", "checkpoint-purity", "bad.cpp", 2},
};

TEST(Analyze, EveryRuleCatchesItsSeededViolation)
{
    for (const SeededCase &c : kSeeded) {
        SCOPED_TRACE(c.dir);
        const Result r = analyze(c.dir, {c.rule});
        ASSERT_EQ(r.findings.size(), c.count);
        for (const Finding &f : r.findings) {
            EXPECT_EQ(f.rule, c.rule);
            EXPECT_EQ(f.file, c.file);
            EXPECT_GT(f.line, 0);
            EXPECT_FALSE(f.message.empty());
        }
    }
}

TEST(Analyze, CleanTwinsPassUnderAllRules)
{
    // Run the *full* rule set over each fixture: the only findings
    // allowed anywhere are in the seeded bad* files, so the clean twins
    // also stay clean under every other rule (no cross-rule noise).
    for (const SeededCase &c : kSeeded) {
        SCOPED_TRACE(c.dir);
        const Result r = analyze(c.dir);
        EXPECT_FALSE(r.findings.empty());
        for (const Finding &f : r.findings)
            EXPECT_TRUE(isSeededFile(f.file))
                << f.file << ":" << f.line << " [" << f.rule << "] "
                << f.message;
    }
}

TEST(Analyze, SingleRuleFilteringIsolatesFamilies)
{
    // accounting_counter seeds only counter-coverage findings, so any
    // other single rule over it must come back empty.
    const Result r =
        analyze("accounting_counter", {"determinism-unordered-container"});
    EXPECT_TRUE(r.findings.empty());
    EXPECT_GT(r.files_scanned, 0u);
}

TEST(Analyze, UnknownRuleIsAnError)
{
    Options opt;
    opt.corpus_root = fixture("determinism_rand");
    opt.rules = {"no-such-rule"};
    Result r;
    std::string err;
    EXPECT_FALSE(dbsim::analyze::runAnalysis(opt, r, err));
    EXPECT_NE(err.find("no-such-rule"), std::string::npos);
}

TEST(Analyze, InlineSuppressionsApplyAndAreCounted)
{
    const Result r = analyze("suppression");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressed, 2u) << "one allow() above the line, one "
                                   "trailing on the line";
}

TEST(Analyze, ResultsAreDeterministicAndSorted)
{
    const Result a = analyze("accounting_counter");
    const Result b = analyze("accounting_counter");
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
        EXPECT_EQ(a.findings[i].file, b.findings[i].file);
        EXPECT_EQ(a.findings[i].line, b.findings[i].line);
        EXPECT_EQ(a.findings[i].message, b.findings[i].message);
    }
    EXPECT_TRUE(std::is_sorted(
        a.findings.begin(), a.findings.end(),
        [](const Finding &x, const Finding &y) {
            return std::tie(x.file, x.line, x.rule, x.message) <=
                   std::tie(y.file, y.line, y.rule, y.message);
        }));
}

TEST(Analyze, RuleCatalogIsConsistent)
{
    const auto &catalog = dbsim::analyze::ruleCatalog();
    EXPECT_EQ(catalog.size(), 13u);
    for (const RuleInfo &r : catalog) {
        EXPECT_TRUE(dbsim::analyze::knownRule(r.id));
        EXPECT_FALSE(std::string(r.description).empty());
    }
    EXPECT_FALSE(dbsim::analyze::knownRule("not-a-rule"));
}

/// Run the analysis over a one-file corpus holding `text`; returns the
/// error runAnalysis reports ("" when it succeeds).
std::string
analyzeOneFile(const std::string &name, const std::string &text)
{
    const std::string dir = testing::TempDir() + "dbsim_analyze_" + name;
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/marked.cpp") << text;
    Options opt;
    opt.corpus_root = dir;
    Result r;
    std::string err;
    const bool ok = dbsim::analyze::runAnalysis(opt, r, err);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(ok, err.empty());
    return err;
}

TEST(Analyze, StaleAllowMarkIsAnError)
{
    // A suppression naming a rule the catalog no longer has.
    const std::string err = analyzeOneFile(
        "stale_allow", "struct Source\n{\n"
                       "    // dbsim-analyze: allow(hotpath-virtual) -- x\n"
                       "    virtual bool next() = 0;\n};\n");
    EXPECT_NE(err.find("marked.cpp:3:"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown rule 'hotpath-virtual'"), std::string::npos)
        << err;
}

TEST(Analyze, UnknownMarkKindIsAnError)
{
    const std::string err = analyzeOneFile(
        "stale_cold", "int x = 0;\n\n"
                      "// dbsim-analyze: cold(end-of-run audit)\n"
                      "int\naudit()\n{\n    return x;\n}\n");
    EXPECT_NE(err.find("marked.cpp:3:"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown mark kind 'cold'"), std::string::npos)
        << err;
}

TEST(Analyze, KnownAllowMarkIsAccepted)
{
    EXPECT_EQ(analyzeOneFile(
                  "known_allow",
                  "// dbsim-analyze: allow(determinism-rand, "
                  "convention-assert) -- x\nint y = 0;\n"),
              "");
}

} // namespace
