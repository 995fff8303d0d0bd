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
#include <memory>
#include <set>
#include <sstream>
#include <string>

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
    for (const std::string &key : core::configOverrideKeys()) {
        Rng rng(11);
        SimConfig cfg = core::randomSimConfig(rng);
        EXPECT_TRUE(core::applyConfigOverride(cfg, key, 1))
            << "catalog key '" << key << "' must be applicable";
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
    rf.detail = "line with \"quotes\"\nand a newline";

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
    // The detail field round-trips through jsonEscape's \u00XX control
    // escapes as well as plain ones.
    EXPECT_EQ(back.detail, rf.detail);
    // Content-addressed names are stable.
    EXPECT_EQ(reproFileName(rf), reproFileName(rf));
}

TEST(Repro, ParserRejectsGarbage)
{
    ReproFile rf;
    std::string err;
    EXPECT_FALSE(parseRepro("", &rf, &err));
    EXPECT_FALSE(parseRepro("{\"schema\":\"wrong\"}", &rf, &err));
    EXPECT_FALSE(parseRepro("{\"config_seed\":1", &rf, &err));
    EXPECT_FALSE(
        parseRepro("{\"schema\":\"dbsim-fuzz-repro-v1\"}", &rf, &err))
        << "config_seed is mandatory";
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
    EXPECT_FALSE(b.shrink_overrides.empty())
        << "shrinker kept no reduction on a config-independent fault";
    EXPECT_GT(b.shrink_runs, 0u);
    EXPECT_LE(b.shrink_runs, opts.max_shrink_runs);

    // The shrunk config regenerates and still validates.
    ReproFile rf;
    rf.config_seed = r.cases.front().case_seed;
    rf.space = opts.space;
    rf.overrides = b.shrink_overrides;
    EXPECT_NO_THROW(reproConfig(rf));
}

} // namespace
