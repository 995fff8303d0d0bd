/**
 * @file
 * Deterministic property-based simulation fuzzing (DESIGN.md §5i).
 *
 * The fuzzer is a pure function of (master seed, case count, space
 * bounds): case i derives its own seed via a splitmix64 mix, generates
 * a random valid SimConfig (core/config_gen.hpp), and runs it through
 * the enabled oracle suite (verify/oracles.hpp).  Case results are
 * stored by index, and the rendered report contains no host-dependent
 * fields, so `--jobs 1` and `--jobs N` produce byte-identical reports
 * -- the fuzzer obeys the same determinism contract it enforces.
 *
 * Failures are triaged into buckets by OracleVerdict::signature.  Each
 * bucket's lowest-index case is greedily shrunk once (delta-removal
 * over the rows of the override table, core::configOverrides(): each
 * candidate override is kept iff the same bucket signature still
 * fails) and emitted as one replayable repro-<hash>.txt file of
 * `key value` lines.  A repro file is just "generator seed + sorted
 * override list + oracle + injections": replayRepro() regenerates the
 * exact config on any host and re-runs the one oracle that failed.
 *
 * Injection knobs (inject_bug / inject_fault, and the round-trip
 * oracle's corrupt_offset) exist so the oracle suite can be
 * teeth-tested: a fuzzer whose oracles have never caught a seeded bug
 * is indistinguishable from one that checks nothing.  fuzzSelfCheck()
 * seeds all six ProtocolBugs, all three artifact faults, and a
 * checkpoint byte-flip, and demands each is rediscovered.
 */

#ifndef DBSIM_VERIFY_FUZZER_HPP
#define DBSIM_VERIFY_FUZZER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutator.hpp"
#include "core/config_gen.hpp"
#include "verify/oracles.hpp"

namespace dbsim::verify {

/** Everything that determines a fuzz campaign's behavior and report. */
struct FuzzOptions
{
    std::uint64_t seed = 1;      ///< master seed (case seeds derive from it)
    std::uint32_t count = 200;   ///< number of generated configs
    std::uint32_t jobs = 1;      ///< worker threads (report-invariant)
    core::FuzzSpace space;

    std::string repro_dir;       ///< write repro-<hash>.txt here ("" = off)

    bool oracle_conservation = true;
    bool oracle_determinism = true;
    bool oracle_checkpoint = true;
    bool oracle_coherence = true;

    /** Teeth-test injections (self-check / tests; all off for a real
     *  campaign).  inject_bug swaps the engine under test for a mutant
     *  and adds a serial-vs-mutant differential oracle; inject_fault
     *  corrupts collected artifacts before the conservation oracle
     *  (determinism is skipped then -- the fault would trivially trip
     *  it and mask the conservation verdict under triage). */
    ProtocolBug inject_bug = ProtocolBug::None;
    ArtifactFault inject_fault = ArtifactFault::None;

    bool shrink = true;              ///< shrink once per triage bucket
    std::uint32_t max_shrink_runs = 40; ///< predicate-evaluation budget
};

/** Per-case seed: a splitmix64 mix of (master seed, case index). */
std::uint64_t fuzzCaseSeed(std::uint64_t master_seed, std::uint32_t index);

/** The config case @p index of this campaign runs (before overrides). */
core::SimConfig fuzzCaseConfig(const FuzzOptions &opts, std::uint32_t index);

/** Outcome of one fuzz case. */
struct FuzzCaseResult
{
    std::uint32_t index = 0;
    std::uint64_t case_seed = 0;
    std::uint64_t config_signature = 0;
    /** FNV-1a 64 of renderArtifacts() of the base run (0 if it died):
     *  two builds ran a case identically iff their digests agree. */
    std::uint64_t artifacts_digest = 0;
    std::uint32_t oracles_run = 0;
    std::vector<OracleVerdict> failures; ///< empty = case passed

    bool passed() const { return failures.empty(); }
};

/** One triage bucket: all failures sharing a verdict signature. */
struct TriageBucket
{
    std::string signature;
    OracleKind oracle = OracleKind::Conservation;
    std::uint32_t count = 0;
    std::uint32_t first_index = 0; ///< lowest failing case index
    std::string detail;            ///< first line of the first failure

    /** Shrink outcome for case first_index (when shrinking ran). */
    std::map<std::string, std::uint64_t> shrink_overrides;
    std::uint32_t shrink_runs = 0;
    std::string repro_path;        ///< the bucket's repro file ("" if none)
};

struct FuzzReport
{
    std::uint64_t seed = 0;
    std::uint32_t count = 0;
    std::uint32_t failed_cases = 0;
    std::vector<FuzzCaseResult> cases;  ///< in case-index order
    std::vector<TriageBucket> buckets;  ///< sorted by signature

    bool ok() const { return failed_cases == 0; }
};

/**
 * Run one case through the enabled oracles: base run (a death is an
 * OracleKind::Crash finding), artifact-fault injection, conservation,
 * determinism, checkpoint round-trip, coherence, and -- when a bug is
 * injected -- the serial-vs-mutant differential.  Installs its own
 * PanicThrowGuard.
 */
FuzzCaseResult runFuzzCase(const FuzzOptions &opts, std::uint32_t index);

/**
 * Run the whole campaign across opts.jobs worker threads
 * (core::forEachIndex; results land by index), triage the failures,
 * then shrink each bucket's lowest-index case and write its repro per
 * @p opts.
 * @p log, when non-null, receives
 * one progress line per failure and a summary (never stdout -- the
 * caller owns the stream).
 */
FuzzReport runFuzz(const FuzzOptions &opts, std::ostream *log = nullptr);

/**
 * Canonical JSON render (schema dbsim-fuzz-v1) of a campaign: options
 * echo, pass/fail counts, triage buckets, every case's config signature
 * and artifacts digest, and per-failure detail.
 * Contains no wall-clock, job-count, or host-dependent fields.
 */
std::string renderFuzzReport(const FuzzOptions &opts, const FuzzReport &rep);

/** Re-evaluates one oracle on a candidate config (shrinker probe). */
using OraclePredicate =
    std::function<OracleVerdict(const core::SimConfig &cfg)>;

struct ShrinkOutcome
{
    std::map<std::string, std::uint64_t> overrides; ///< kept reductions
    std::uint32_t runs = 0; ///< predicate evaluations spent
};

/**
 * Greedy delta-removal shrink (the model checker's idiom, lifted to
 * configs): walk the override table in row order; for each row, try its
 * shrink candidates (node count to 1, budgets to the space minimum,
 * feature knock-outs to 0, ...) against the config regenerated from
 * @p case_seed plus the overrides kept so far.  A candidate is kept iff
 * the config still validates, actually changes the signature, and
 * @p pred still fails with bucket signature @p bucket.  Bounded by
 * opts.max_shrink_runs predicate evaluations.
 */
ShrinkOutcome shrinkConfig(const FuzzOptions &opts, std::uint64_t case_seed,
                           const std::string &bucket,
                           const OraclePredicate &pred);

/**
 * A replayable counterexample: generator seed + sorted overrides +
 * the failing oracle + injections.  Everything needed to regenerate
 * the exact config and re-run the one oracle, bit-for-bit, anywhere.
 */
struct ReproFile
{
    std::uint64_t config_seed = 0;
    core::FuzzSpace space;
    std::map<std::string, std::uint64_t> overrides;
    OracleKind oracle = OracleKind::Conservation;
    ProtocolBug bug = ProtocolBug::None;
    ArtifactFault fault = ArtifactFault::None;
    std::string signature;  ///< bucket signature at capture time
    std::uint64_t config_signature = 0; ///< of the shrunk config
    std::string detail;     ///< first detail line at capture time
};

/**
 * Render schema dbsim-fuzz-repro-v2: the line "dbsim-fuzz-repro-v2",
 * then one `key value` line each for config_seed, space.max_nodes,
 * space.min_instructions, space.max_instructions, override.<key> (one
 * per override), oracle, bug, fault, signature, config_signature
 * ("0x" + 16 hex digits) and detail.  Signature and detail are written
 * as their first lines, so no value needs escaping.
 */
std::string renderRepro(const ReproFile &r);

/** "repro-<16-hex-fnv>.txt" -- content-addressed, collision-stable. */
std::string reproFileName(const ReproFile &r);

/**
 * Parse a renderRepro() file.  Returns false with *err set for another
 * schema, an unknown or repeated key, an unknown name or override, a
 * malformed number or config_signature, a missing config_seed or
 * oracle, max_nodes outside [1, 32], or min_instructions above
 * max_instructions.
 */
bool parseRepro(const std::string &text, ReproFile *out, std::string *err);

/** Regenerate the repro's config: seed -> randomSimConfig -> overrides
 *  -> validate().  Throws ConfigError if the file is inconsistent. */
core::SimConfig reproConfig(const ReproFile &r);

/**
 * Re-run the repro's oracle on its regenerated config.  A verdict with
 * ok == false and the recorded signature means "reproduced"; ok == true
 * means the underlying bug is gone.  Installs its own panic guard.
 */
OracleVerdict replayRepro(const ReproFile &r);

/** Name <-> enum helpers (CLI flags, repro files, tests). */
bool oracleKindFromName(const std::string &name, OracleKind *out);
bool artifactFaultFromName(const std::string &name, ArtifactFault *out);

/**
 * The oracle-suite teeth test (the `dbsim-fuzz --self-check` gate):
 *  - all six ProtocolBugs seeded through mutant engines must be
 *    rediscovered by the differential oracle with triggers > 0;
 *  - all three artifact faults must trip the conservation oracle, and
 *    the unfaulted artifacts must pass it;
 *  - a checkpoint byte-flip must trip the round-trip oracle, and the
 *    clean round-trip must pass;
 *  - a seeded-fault fuzz case must shrink, write a repro into
 *    @p repro_dir (removed again), and the reloaded repro must replay
 *    to the same bucket signature;
 *  - a small campaign must render byte-identically at jobs 1 and 4.
 * Logs one line per check to @p log; returns true iff all pass.
 */
bool fuzzSelfCheck(std::ostream &log, const std::string &repro_dir);

} // namespace dbsim::verify

#endif // DBSIM_VERIFY_FUZZER_HPP
