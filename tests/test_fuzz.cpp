/**
 * @file
 * Property-based fuzzing layer tests (DESIGN.md §5i): the config
 * generator and its override/signature plumbing, every invariant
 * oracle's pass AND fail direction (seeded faults must be caught -- an
 * oracle that has never failed is indistinguishable from one that
 * checks nothing), the differential-engine harness, report determinism
 * across worker counts, and repro-file round-trips.
 *
 * The suite-wide DBSIM_CHECK=1 environment means every engine run here
 * also executes under the armed coherence checker and the end-of-run
 * conservation audit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/config_gen.hpp"
#include "core/json_writer.hpp"
#include "verify/fuzzer.hpp"

namespace {

using namespace dbsim;
using namespace dbsim::verify;
using core::SimConfig;

SimConfig
smallConfig()
{
    SimConfig cfg =
        core::makeScaledConfig(core::WorkloadKind::Oltp, 2);
    cfg.total_instructions = 24000;
    cfg.warmup_instructions = 0;
    cfg.system.state_hash_interval = 2000;
    cfg.validate();
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// Config generation

TEST(ConfigGen, GeneratesValidConfigsAcrossManySeeds)
{
    const core::FuzzSpace space;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        // randomSimConfig validates internally; a throw fails the test.
        const SimConfig cfg = core::randomSimConfig(rng, space);
        EXPECT_GE(cfg.system.num_nodes, 1u);
        EXPECT_LE(cfg.system.num_nodes, space.max_nodes);
        EXPECT_GE(cfg.total_instructions, 1000u);
        EXPECT_LE(cfg.total_instructions, space.max_instructions);
        EXPECT_GT(cfg.system.state_hash_interval, 0u)
            << "epoch hashing must always be on for generated configs";
        EXPECT_LT(cfg.warmup_instructions, cfg.total_instructions);
    }
}

TEST(ConfigGen, SameSeedSameConfigDifferentSeedDifferentConfig)
{
    Rng a(42), b(42), c(43);
    const SimConfig ca = core::randomSimConfig(a);
    const SimConfig cb = core::randomSimConfig(b);
    const SimConfig cc = core::randomSimConfig(c);
    EXPECT_EQ(core::simConfigSignature(ca), core::simConfigSignature(cb));
    EXPECT_NE(core::simConfigSignature(ca), core::simConfigSignature(cc));
}

TEST(ConfigGen, SignatureIgnoresObservationKnobsOnly)
{
    Rng rng(7);
    SimConfig cfg = core::randomSimConfig(rng);
    const std::uint64_t sig = core::simConfigSignature(cfg);

    SimConfig obs = cfg;
    obs.system.state_hash_interval = 12345;
    obs.system.stop_at_cycle = 777;
    obs.system.check_coherence = true;
    EXPECT_EQ(core::simConfigSignature(obs), sig)
        << "observation knobs must not change the structural signature";

    SimConfig sem = cfg;
    ASSERT_TRUE(core::applyConfigOverride(sem, "total_instructions",
                                          cfg.total_instructions + 1000));
    EXPECT_NE(core::simConfigSignature(sem), sig);
}

TEST(ConfigGen, EveryCatalogKeyAppliesAndUnknownKeyIsRejected)
{
    for (const core::ConfigOverride &o : core::configOverrides()) {
        Rng rng(11);
        SimConfig cfg = core::randomSimConfig(rng);
        EXPECT_TRUE(core::applyConfigOverride(cfg, o.key, 1))
            << "catalog key '" << o.key << "' must be applicable";
    }
    Rng rng(11);
    SimConfig cfg = core::randomSimConfig(rng);
    EXPECT_FALSE(core::applyConfigOverride(cfg, "no_such_knob", 1));
}

TEST(ConfigGen, NodeOverridePreservesProcsPerCpu)
{
    Rng rng(13);
    SimConfig cfg = core::randomSimConfig(rng);
    const std::uint32_t ppc = cfg.procsPerCpu();
    ASSERT_TRUE(core::applyConfigOverride(cfg, "num_nodes", 1));
    EXPECT_EQ(cfg.system.num_nodes, 1u);
    EXPECT_EQ(cfg.procsPerCpu(), ppc);
    cfg.validate();
}

TEST(FuzzSeeds, CaseSeedsAreDistinctAndCountIndependent)
{
    std::set<std::uint64_t> seen;
    for (std::uint32_t i = 0; i < 512; ++i)
        seen.insert(fuzzCaseSeed(1, i));
    EXPECT_EQ(seen.size(), 512u);
    // Case i's seed depends only on (master, i), never on the count.
    EXPECT_EQ(fuzzCaseSeed(9, 3), fuzzCaseSeed(9, 3));
    EXPECT_NE(fuzzCaseSeed(9, 3), fuzzCaseSeed(10, 3));
}

// ---------------------------------------------------------------------
// Config validation (silently-disabled epoch hashing)

TEST(ConfigValidation, RejectsStateHashIntervalBeyondRunCap)
{
    SimConfig cfg = smallConfig();
    cfg.system.max_cycles = 10000;
    cfg.system.state_hash_interval = 10001;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg.system.state_hash_interval = 10000;
    EXPECT_NO_THROW(cfg.validate());
    cfg.system.state_hash_interval = 0; // explicit off stays legal
    EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------
// JsonWriter non-finite handling

TEST(JsonWriterNonFinite, SerializesNanAndInfAsNull)
{
    std::ostringstream os;
    core::JsonWriter w(os, 0);
    w.beginObject()
        .kv("nan", std::nan(""))
        .kv("inf", std::numeric_limits<double>::infinity())
        .kv("ninf", -std::numeric_limits<double>::infinity())
        .kv("finite", 1.5)
        .endObject();
    EXPECT_EQ(os.str(),
              "{\"nan\":null,\"inf\":null,\"ninf\":null,\"finite\":1.5}");
}

TEST(JsonWriterNonFinite, WarnsExactlyOncePerDocument)
{
    testing::internal::CaptureStderr();
    {
        std::ostringstream os;
        core::JsonWriter w(os, 0);
        w.beginArray()
            .value(std::nan(""))
            .value(std::numeric_limits<double>::infinity())
            .value(std::nan(""))
            .endArray();
    }
    const std::string err = testing::internal::GetCapturedStderr();
    std::size_t hits = 0;
    for (std::size_t pos = err.find("non-finite");
         pos != std::string::npos; pos = err.find("non-finite", pos + 1))
        ++hits;
    EXPECT_EQ(hits, 1u) << err;
}

// ---------------------------------------------------------------------
// Oracles: pass direction

TEST(Oracles, CleanFuzzCasePassesAllOracles)
{
    FuzzOptions opts;
    opts.seed = 3;
    opts.shrink = false;
    opts.repro_dir.clear();
    opts.space.max_instructions = 30000;
    const FuzzCaseResult r = runFuzzCase(opts, 0);
    std::string why;
    for (const OracleVerdict &f : r.failures)
        why += f.signature + "\n" + f.detail + "\n";
    EXPECT_TRUE(r.passed()) << why;
    // base run + conservation + determinism + checkpoint + coherence
    EXPECT_EQ(r.oracles_run, 5u);
}

// ---------------------------------------------------------------------
// Oracles: fail direction (seeded faults must be caught)

TEST(Oracles, ArtifactFaultsTripConservation)
{
    const SimConfig cfg = smallConfig();
    const std::unique_ptr<Engine> eng = makeSerialEngine();
    const RunArtifacts base = eng->execute(cfg);
    EXPECT_TRUE(checkConservation(cfg, base).ok)
        << checkConservation(cfg, base).detail;
    for (const ArtifactFault f :
         {ArtifactFault::BreakdownLeak, ArtifactFault::CounterSkew,
          ArtifactFault::EpochHashDrop}) {
        RunArtifacts faulty = base;
        applyArtifactFault(faulty, f);
        const OracleVerdict v = checkConservation(cfg, faulty);
        EXPECT_FALSE(v.ok) << "conservation oracle missed "
                           << artifactFaultName(f);
        EXPECT_FALSE(v.signature.empty());
    }
}

TEST(Oracles, CheckpointRoundTripCleanPassesCorruptFails)
{
    const SimConfig cfg = smallConfig();
    const OracleVerdict clean = checkCheckpointRoundTrip(cfg, 0);
    EXPECT_TRUE(clean.ok) << clean.detail;
    const OracleVerdict corrupt = checkCheckpointRoundTrip(cfg, 4321);
    EXPECT_FALSE(corrupt.ok)
        << "a flipped checkpoint byte must not round-trip";
    EXPECT_NE(corrupt.detail.find("restore refused the checkpoint: "
                                  "checkpoint: integrity hash mismatch"),
              std::string::npos)
        << corrupt.detail;
}

TEST(Oracles, DeterminismOracleAcceptsSerialEngine)
{
    const SimConfig cfg = smallConfig();
    const std::unique_ptr<Engine> eng = makeSerialEngine();
    const RunArtifacts first = eng->execute(cfg);
    const OracleVerdict v = checkDeterminism(*eng, cfg, first);
    EXPECT_TRUE(v.ok) << v.detail;
}

// ---------------------------------------------------------------------
// Differential harness

TEST(Differential, SerialVsSelfIsIdentical)
{
    const SimConfig cfg = smallConfig();
    const std::unique_ptr<Engine> a = makeSerialEngine();
    const std::unique_ptr<Engine> b = makeSerialEngine();
    const OracleVerdict v = compareEngines(*a, *b, cfg, true);
    EXPECT_TRUE(v.ok) << v.detail;
}

TEST(Differential, SerialVsMutantIsDetected)
{
    // Under the suite's DBSIM_CHECK=1 the mutant usually dies at the
    // first incoherent access (a detected divergence); without the
    // checker it finishes and the renders diverge.  Both count.
    const SimConfig cfg = smallConfig();
    const std::unique_ptr<Engine> ref = makeSerialEngine();
    const std::unique_ptr<Engine> mut =
        makeMutantEngine(ProtocolBug::DroppedInvalidation);
    const OracleVerdict v = compareEngines(*ref, *mut, cfg, false);
    EXPECT_FALSE(v.ok)
        << "a seeded dropped-invalidation run compared equal to clean";
    EXPECT_FALSE(v.detail.empty());
}

// ---------------------------------------------------------------------
// Campaign determinism and repro round-trips

TEST(FuzzCampaign, ReportIsByteIdenticalAcrossJobCounts)
{
    FuzzOptions opts;
    opts.seed = 5;
    opts.count = 4;
    opts.repro_dir.clear();
    opts.space.max_instructions = 30000;

    opts.jobs = 1;
    const FuzzReport serial = runFuzz(opts, nullptr);
    const std::string render1 = renderFuzzReport(opts, serial);
    opts.jobs = 8;
    const FuzzReport wide = runFuzz(opts, nullptr);
    const std::string render8 = renderFuzzReport(opts, wide);
    EXPECT_TRUE(serial.ok()) << render1;
    EXPECT_EQ(render1, render8);
    // Every case carries the digest two builds' corpora are diffed by.
    for (const FuzzCaseResult &c : serial.cases)
        EXPECT_NE(c.artifacts_digest, 0u);
    EXPECT_NE(render1.find("\"artifacts_digest\""), std::string::npos);
}

TEST(FuzzCampaign, SeededFaultShrinksAndReplaysIdentically)
{
    // A seeded artifact fault fails every case; the campaign must
    // produce the same verdict, shrink, and repro bytes at --jobs 1
    // and --jobs 8, and a freshly re-parsed repro (the "restart") must
    // replay to the same verdict and dump excerpt.
    FuzzOptions opts;
    opts.seed = 21;
    opts.count = 2;
    opts.inject_fault = ArtifactFault::CounterSkew;
    opts.oracle_checkpoint = false;
    opts.oracle_coherence = false;
    opts.repro_dir = testing::TempDir();
    opts.max_shrink_runs = 16;
    opts.space.max_instructions = 30000;

    opts.jobs = 1;
    const FuzzReport serial = runFuzz(opts, nullptr);
    const std::string render1 = renderFuzzReport(opts, serial);
    opts.jobs = 8;
    const FuzzReport wide = runFuzz(opts, nullptr);
    const std::string render8 = renderFuzzReport(opts, wide);

    ASSERT_EQ(serial.failed_cases, opts.count);
    EXPECT_EQ(render1, render8);
    ASSERT_FALSE(serial.buckets.empty());
    const std::string repro_path = serial.buckets.front().repro_path;
    ASSERT_FALSE(repro_path.empty());

    // Fresh parse simulates a replay after process restart.
    const std::string body = slurp(repro_path);
    ASSERT_FALSE(body.empty());
    ReproFile rf;
    std::string err;
    ASSERT_TRUE(parseRepro(body, &rf, &err)) << err;
    EXPECT_EQ(rf.fault, ArtifactFault::CounterSkew);

    const OracleVerdict v1 = replayRepro(rf);
    const OracleVerdict v2 = replayRepro(rf);
    EXPECT_FALSE(v1.ok);
    EXPECT_EQ(v1.signature, rf.signature);
    EXPECT_EQ(v1.signature, v2.signature);
    EXPECT_EQ(v1.detail, v2.detail);
    EXPECT_EQ(v1.dump_excerpt, v2.dump_excerpt);

    for (const TriageBucket &b : serial.buckets)
        std::remove(b.repro_path.c_str());
}

TEST(Repro, RenderParseRoundTripIsLossless)
{
    ReproFile rf;
    rf.config_seed = 0xdeadbeefcafe1234ull;
    rf.space.max_nodes = 4;
    rf.space.min_instructions = 20000;
    rf.space.max_instructions = 30000;
    rf.overrides["num_nodes"] = 1;
    rf.overrides["total_instructions"] = 20000;
    rf.oracle = OracleKind::Determinism;
    rf.bug = ProtocolBug::StaleOwner;
    rf.fault = ArtifactFault::BreakdownLeak;
    rf.signature = "determinism:re-run diverged at epoch #";
    rf.config_signature = 0x0123456789abcdefull;
    rf.detail = "line with \"quotes\", spaces and a {brace}";

    ReproFile back;
    std::string err;
    ASSERT_TRUE(parseRepro(renderRepro(rf), &back, &err)) << err;
    EXPECT_EQ(back.config_seed, rf.config_seed);
    EXPECT_EQ(back.space.max_nodes, rf.space.max_nodes);
    EXPECT_EQ(back.space.min_instructions, rf.space.min_instructions);
    EXPECT_EQ(back.space.max_instructions, rf.space.max_instructions);
    EXPECT_EQ(back.overrides, rf.overrides);
    EXPECT_EQ(back.oracle, rf.oracle);
    EXPECT_EQ(back.bug, rf.bug);
    EXPECT_EQ(back.fault, rf.fault);
    EXPECT_EQ(back.signature, rf.signature);
    EXPECT_EQ(back.config_signature, rf.config_signature);
    EXPECT_EQ(back.detail, rf.detail);
    // Content-addressed names are stable.
    EXPECT_EQ(reproFileName(rf), reproFileName(rf));
    EXPECT_EQ(reproFileName(rf).rfind(".txt"),
              reproFileName(rf).size() - 4);

    // A value is one line: a multi-line detail is written as its first.
    rf.detail += "\nsecond line";
    ASSERT_TRUE(parseRepro(renderRepro(rf), &back, &err)) << err;
    EXPECT_EQ(back.detail, "line with \"quotes\", spaces and a {brace}");
}

TEST(Repro, ParserRejectsGarbage)
{
    const std::string head = "dbsim-fuzz-repro-v2\n";
    const std::string seed = "config_seed 1\n";
    const std::string oracle = "oracle conservation\n";
    ReproFile minimal;
    std::string err;
    ASSERT_TRUE(parseRepro(head + seed + oracle, &minimal, &err)) << err;
    // Each input is refused, and the message names why.
    const std::pair<std::string, std::string> cases[] = {
        {"", "not a dbsim-fuzz-repro-v2 file"},
        {"wrong\n" + seed + oracle, "not a dbsim-fuzz-repro-v2 file"},
        {"{\n  \"schema\": \"dbsim-fuzz-repro-v1\",\n"
         "  \"config_seed\": 1,\n  \"oracle\": \"conservation\"\n}\n",
         "not a dbsim-fuzz-repro-v2 file"},
        {head + seed + oracle + "colour blue\n",
         "line 4: unknown key \"colour\""},
        {head + seed + oracle + "config_seed 2\n",
         "line 4: repeated key config_seed"},
        {head + "config_seed 8x\n" + oracle,
         "line 2: config_seed wants a decimal integer, got \"8x\""},
        {head + seed + oracle + "config_signature 0xzz\n",
         "line 4: config_signature wants 0x and 16 hex digits"},
        {head + seed + oracle + "override.no_such_knob 1\n",
         "line 4: unknown override no_such_knob"},
        {head + seed + "oracle telepathy\n",
         "line 3: unknown oracle name: telepathy"},
        {head + seed + oracle + "bug gremlin\n",
         "line 4: unknown bug name: gremlin"},
        {head + oracle, "missing config_seed"},
        {head + seed + "detail no oracle line\n", "missing oracle"},
    };
    for (const auto &[text, why] : cases) {
        ReproFile rf;
        EXPECT_FALSE(parseRepro(text, &rf, &err)) << text;
        EXPECT_NE(err.find(why), std::string::npos)
            << "input:\n" << text << "error: " << err;
    }
}

TEST(Repro, ParserRejectsASpaceOutsideItsBounds)
{
    // Parsed only, never replayed: a max_nodes of 2^31 would hang
    // randomSimConfig's node-count draw.
    ReproFile rf;
    rf.oracle = OracleKind::Conservation;
    ReproFile back;
    std::string err;
    for (const std::uint32_t nodes : {0u, 33u, 1u << 31}) {
        rf.space.max_nodes = nodes;
        EXPECT_FALSE(parseRepro(renderRepro(rf), &back, &err)) << nodes;
        EXPECT_NE(err.find("space.max_nodes " + std::to_string(nodes) +
                           " is outside [1, 32]"),
                  std::string::npos)
            << err;
    }
    rf.space.max_nodes = 32;
    ASSERT_TRUE(parseRepro(renderRepro(rf), &back, &err)) << err;
    rf.space.min_instructions = rf.space.max_instructions + 1;
    EXPECT_FALSE(parseRepro(renderRepro(rf), &back, &err));
    EXPECT_NE(err.find("min_instructions exceeds"), std::string::npos)
        << err;
}

TEST(Shrink, SeededFaultShrinksTowardMinimalConfig)
{
    // CounterSkew fires regardless of machine shape, so the shrinker
    // should be able to knock the config down (node count, budgets,
    // feature flags) while the bucket signature stays put.
    FuzzOptions opts;
    opts.seed = 33;
    opts.inject_fault = ArtifactFault::CounterSkew;
    opts.oracle_checkpoint = false;
    opts.oracle_coherence = false;
    opts.oracle_determinism = false;
    opts.repro_dir.clear();
    opts.max_shrink_runs = 24;
    opts.space.max_instructions = 30000;
    opts.count = 1;
    const FuzzReport r = runFuzz(opts, nullptr);
    ASSERT_EQ(r.buckets.size(), 1u);
    const TriageBucket &b = r.buckets.front();
    // Every run the shrinker spent kept a reduction, in row order of
    // the override table.
    const std::vector<std::pair<std::string, std::uint64_t>> kept = {
        {"total_instructions", 20000}, {"warmup_instructions", 0},
        {"procs_per_cpu", 1},          {"spec_loads", 0},
        {"hw_prefetch", 0},            {"model", 0},
        {"issue_width", 1},            {"l1d_mshrs", 1},
    };
    EXPECT_EQ(b.shrink_overrides,
              (std::map<std::string, std::uint64_t>(kept.begin(),
                                                    kept.end())));
    EXPECT_EQ(b.shrink_runs, 8u);

    // A budget of k runs keeps the first k of those reductions, which
    // pins the row order, not only the final set.
    for (std::uint32_t k = 1; k < kept.size(); ++k) {
        opts.max_shrink_runs = k;
        const FuzzReport rk = runFuzz(opts, nullptr);
        ASSERT_EQ(rk.buckets.size(), 1u);
        EXPECT_EQ(rk.buckets.front().shrink_overrides,
                  (std::map<std::string, std::uint64_t>(kept.begin(),
                                                        kept.begin() + k)))
            << "budget " << k;
        EXPECT_EQ(rk.buckets.front().shrink_runs, k);
    }

    // The shrunk config regenerates and still validates.
    ReproFile rf;
    rf.config_seed = r.cases.front().case_seed;
    rf.space = opts.space;
    rf.overrides = b.shrink_overrides;
    EXPECT_NO_THROW(reproConfig(rf));
}

} // namespace
