/**
 * @file
 * Invariant oracles and the differential-engine harness for
 * property-based simulation fuzzing (DESIGN.md §5i).
 *
 * An Engine turns a SimConfig into RunArtifacts -- every deterministic
 * observable of one complete run (report fields, characterization,
 * counters, epoch-hash stream, final state hash and machine dump).
 * The serial engine wraps core::Simulation; a mutant engine seeds one
 * verify::ProtocolBug through the real decision points.  Any
 * alternative engine implements the same interface and inherits the
 * entire fuzz corpus, and dbsim-diverge, as a differential test bed.
 *
 * Oracles return a structured OracleVerdict instead of asserting, so
 * the fuzzer can triage failures into buckets by signature and the
 * shrinker can re-evaluate a candidate config cheaply:
 *
 *  - conservation: the sim-layer accounting audit
 *    (sim::conservationViolations) plus artifact-level
 *    cross-consistency (rates in [0,1], dirty <= total misses,
 *    stream-buffer hits <= L1I misses, breakdown mass = cycles x
 *    cores, epoch samples at exact interval boundaries);
 *  - determinism: a same-config re-run must render byte-identical
 *    artifacts and machine dump;
 *  - checkpoint round-trip: save at the run's midpoint via
 *    stop_at_cycle, restore into a fresh Simulation, finish, and
 *    demand a byte-identical final render + dump (a refused restore
 *    of a file we just wrote is itself a failure -- that is how
 *    seeded checkpoint corruption is detected);
 *  - coherence: full run with the invariant checker armed
 *    (check_coherence = the DBSIM_CHECK=1 machinery), any panic
 *    converted into a verdict carrying the crash-dump excerpt;
 *  - differential: reference vs candidate engine on rendered
 *    artifacts; on mismatch localizeDivergence() names the first
 *    divergent epoch and bisects it to a cycle with Engine::probe().
 *
 * localizeDivergence() is the one divergence localizer (DESIGN.md
 * §5g): the differential and determinism oracles and dbsim-diverge
 * all call it.
 */

#ifndef DBSIM_VERIFY_ORACLES_HPP
#define DBSIM_VERIFY_ORACLES_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutator.hpp"
#include "coherence/directory.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "sim/node.hpp"
#include "sim/system.hpp"

namespace dbsim::verify {

/** Every deterministic observable of one complete run. */
struct RunArtifacts
{
    sim::RunResult result;
    core::Characterization ch;
    coher::FabricStats fabric;
    sim::NodeStats nodes;            ///< summed over all nodes
    std::uint64_t context_switches = 0;
    std::uint32_t num_nodes = 0;
    Cycles final_cycle = 0;          ///< system.now() at run end
    std::uint64_t final_state_hash = 0;
    std::uint64_t config_signature = 0; ///< core::simConfigSignature
    std::string final_dump;          ///< machineStateDump (deterministic)

    /** sim::conservationViolations output for this run (collected even
     *  when the run-loop audit is disarmed). */
    std::vector<std::string> conservation;

    /** Mutator trigger count (mutant engines; excluded from renders --
     *  distinguishes "no divergence" from "bug never exercised"). */
    std::uint64_t bug_triggers = 0;
};

/**
 * Canonical render of @p a: one compact JSON document with fields in a
 * fixed order, doubles in round-trip %.17g form, the full epoch-hash
 * stream, and no host-dependent values.  Two runs are "identical"
 * exactly when their renders (and final dumps) are byte-equal.
 */
std::string renderArtifacts(const RunArtifacts &a);

/** A pluggable simulation engine (see file comment). */
class Engine
{
  public:
    virtual ~Engine() = default;
    virtual std::string name() const = 0;

    /** Run @p cfg to completion and collect artifacts.  Throws what the
     *  simulation throws (SimInvariantError under a panic guard,
     *  SimTimeoutError, ...); compareEngines() treats a dying candidate
     *  as a detected divergence. */
    virtual RunArtifacts execute(const core::SimConfig &cfg) const = 0;

    /** The bisection probe: run @p cfg to stop_at_cycle @p stop_at with
     *  epoch hashing off and return the machine's stateHash().  When
     *  @p dump is non-null it receives the machineStateDump() there. */
    virtual std::uint64_t probe(const core::SimConfig &cfg, Cycles stop_at,
                                std::string *dump) const = 0;
};

/** The production serial engine (core::Simulation). */
std::unique_ptr<Engine> makeSerialEngine();

/** The serial engine with one seeded protocol bug (teeth tests). */
std::unique_ptr<Engine> makeMutantEngine(ProtocolBug bug);

/** Where two runs of one config first differ (DESIGN.md §5g). */
struct Divergence
{
    enum class Kind : std::uint8_t
    {
        None,         ///< byte-identical renders and final dumps
        Epoch,        ///< the epoch-hash streams differ at sample `index`
        Lengths,      ///< one stream is a strict prefix of the other
        CountersOnly, ///< identical streams, different renders or dumps
    };
    Kind kind = Kind::None;
    /** Epoch: the first divergent sample.  Lengths: the length of the
     *  shared prefix. */
    std::size_t index = 0;
    /** The bisection's result: the states agree at cycle identical_at
     *  and first differ at first_cycle.  Both stay 0 unless bisection
     *  was asked for and the divergent sample is not the first. */
    Cycles identical_at = 0;
    Cycles first_cycle = 0;
};

/**
 * Compare two runs of @p cfg, @p ra on engine @p a and @p rb on @p b.
 * The first epoch sample whose cycle or hash differs is the divergent
 * epoch.  With @p bisect set, a divergence at sample k > 0 is narrowed
 * to a cycle by binary search over (epoch[k-1], epoch[k]], one probe
 * pair per step; each probe re-runs its engine from cycle zero.
 */
Divergence localizeDivergence(const Engine &a, const Engine &b,
                              const core::SimConfig &cfg,
                              const RunArtifacts &ra, const RunArtifacts &rb,
                              bool bisect);

/** Which oracle produced a verdict. */
enum class OracleKind : std::uint8_t
{
    Conservation,
    Determinism,
    CheckpointRoundTrip,
    Coherence,
    Differential,
    Crash, ///< the base run died with no checker armed (fuzzer-assigned)
};

const char *oracleName(OracleKind k);

/** Outcome of one oracle on one config. */
struct OracleVerdict
{
    OracleKind oracle = OracleKind::Conservation;
    bool ok = true;
    /** Triage-bucket key: "<oracle>:<first detail line, digits
     *  normalized to #>" -- stable across shrinking and node counts. */
    std::string signature;
    std::string detail;       ///< full multi-line explanation
    std::string dump_excerpt; ///< crash-dump excerpt when one exists

    /** Differential oracle only: the candidate's mutator trigger count
     *  (0 elsewhere).  A passing mutant comparison with 0 triggers
     *  means the bug was never exercised, not that it is benign. */
    std::uint64_t cand_bug_triggers = 0;
};

/**
 * Artifact-level fault injection (oracle teeth tests): corrupts a
 * *collected* RunArtifacts the way an accounting bug in the simulator
 * would, so tests can prove the conservation oracle catches each class.
 */
enum class ArtifactFault : std::uint8_t
{
    None,
    BreakdownLeak,  ///< leaks busy cycles out of the breakdown
    CounterSkew,    ///< cross-counter skew (sbuf hits > L1I misses, ...)
    EpochHashDrop,  ///< silently drops a mid-stream epoch sample
};

const char *artifactFaultName(ArtifactFault f);
void applyArtifactFault(RunArtifacts &a, ArtifactFault f);

/** Bucket signature for a detail string (see OracleVerdict::signature);
 *  exposed so the fuzzer can build Crash verdicts and tests can check
 *  signature stability. */
std::string oracleBucketSignature(OracleKind k, const std::string &detail);

/** First line of @p s (the whole string if single-line). */
std::string firstLine(const std::string &s);

/** First @p n lines of @p s (crash-dump excerpts). */
std::string firstLines(const std::string &s, std::size_t n);

/** Construct a failing verdict with the canonical bucket signature. */
OracleVerdict makeFailVerdict(OracleKind k, const std::string &detail,
                              const std::string &dump_excerpt = {});

/** Conservation oracle over already-collected artifacts. */
OracleVerdict checkConservation(const core::SimConfig &cfg,
                                const RunArtifacts &a);

/** Determinism oracle: re-execute @p cfg on @p eng and compare against
 *  the first run's render + dump. */
OracleVerdict checkDeterminism(const Engine &eng, const core::SimConfig &cfg,
                               const RunArtifacts &first);

/**
 * Checkpoint round-trip oracle.  When @p corrupt_offset is nonzero the
 * checkpoint byte at that offset (modulo its size) is flipped before
 * the restore -- the seeded checkpoint-corruption bug for teeth tests;
 * the oracle must then fail with the restore's SnapshotError.
 */
OracleVerdict checkCheckpointRoundTrip(const core::SimConfig &cfg,
                                       std::uint64_t corrupt_offset = 0);

/** Coherence/consistency oracle: full run under the armed checker. */
OracleVerdict checkCoherence(const core::SimConfig &cfg);

/**
 * Differential oracle: @p ref and @p cand both run @p cfg; their
 * renders must be byte-identical.  A candidate that dies (panic /
 * invariant / timeout) is a detected divergence, not a harness error.
 * On mismatch the detail names the first divergent epoch and, with
 * @p bisect set, the bisected first divergent cycle; the shrinker
 * passes false (it only needs the bucket signature, and each probe is
 * a partial re-run).
 */
OracleVerdict compareEngines(const Engine &ref, const Engine &cand,
                             const core::SimConfig &cfg, bool bisect);

} // namespace dbsim::verify

#endif // DBSIM_VERIFY_ORACLES_HPP
