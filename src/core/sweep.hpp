/**
 * @file
 * Parallel configuration-sweep runner, its per-item failure capture, and
 * the machine-readable report.
 *
 * Every figure bench replays the same workload through a list of
 * independent configurations.  SweepRunner executes such a list on a
 * bounded pool of host threads -- one fully independent Simulation per
 * configuration -- and returns results in input order.
 *
 * Determinism contract (see DESIGN.md): the simulated results of a
 * sweep (cycle counts, instruction counts, breakdowns, miss rates,
 * occupancy distributions) are a pure function of the configuration
 * list.  Running the same list with 1 job or 8 jobs produces bitwise
 * identical simulated statistics; only wall-clock fields differ.  This
 * holds because each Simulation owns all of its state, every stochastic
 * decision draws from Rngs seeded by the configuration, and the few
 * process-global facilities (logging, the crash-dump registry) are
 * thread-safe and feedback-free.
 *
 * Failure semantics (DESIGN.md §5e): runChecked() isolates each item --
 * a panic (captured via PanicThrowGuard) or exception in item k becomes
 * a structured SweepFailure instead of killing the pool.  FailurePolicy
 * selects abort (rethrow the lowest-index failure once every item has
 * run) or collect (record the failure and keep going).
 */

#ifndef DBSIM_CORE_SWEEP_HPP
#define DBSIM_CORE_SWEEP_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "sim/node.hpp"

namespace dbsim::core {

/** One configuration of a sweep. */
struct SweepItem
{
    std::string label;
    SimConfig cfg;
};

/** Migratory-sharing characterization snapshot (collected per run). */
struct MigratorySummary
{
    std::uint64_t shared_writes = 0;
    std::uint64_t migratory_writes = 0;
    std::uint64_t dirty_reads = 0;
    std::uint64_t migratory_dirty_reads = 0;
    std::uint64_t migratory_lines = 0;
    std::uint64_t migratory_pcs = 0;
    double write_fraction = 0.0;
    double dirty_read_fraction = 0.0;
    double line_concentration_70 = 0.0; ///< lines covering 70% of writes
    double pc_concentration_75 = 0.0;   ///< PCs covering 75% of references
};

/**
 * Everything the reporting layer needs from one configuration run.
 * Simulated statistics are deterministic in the configuration; only
 * wall_seconds / sim_ips depend on the host.
 */
struct SweepResult
{
    std::string label;
    std::string config;    ///< describe(cfg)
    SimConfig cfg;
    sim::RunResult run;
    Characterization ch;
    sim::NodeStats node0;  ///< node-0 cache/stream-buffer counters
    coher::FabricStats fabric;
    std::uint64_t context_switches = 0; ///< summed over all cores
    stats::OccupancyTracker l1d_occ{64};
    stats::OccupancyTracker l1d_read_occ{64};
    stats::OccupancyTracker l2_occ{64};
    stats::OccupancyTracker l2_read_occ{64};
    MigratorySummary migratory;
    double wall_seconds = 0.0; ///< host time spent simulating this config
    double sim_ips = 0.0;      ///< simulated instructions per host second

    /** The figure row for the text reports. */
    BreakdownRow
    row() const
    {
        return BreakdownRow{label, run.breakdown, run.instructions};
    }
};

// ---------------------------------------------------------------------
// Failure taxonomy
// ---------------------------------------------------------------------

/** Classification of a captured per-item failure. */
enum class FailureKind : std::uint8_t {
    Config,    ///< ConfigError: the configuration was rejected
    Invariant, ///< SimInvariantError: DBSIM_PANIC / watchdog / checker
    Exception, ///< any other exception
};

const char *failureKindName(FailureKind kind);

/** A structured, per-item failure captured by the isolation layer. */
struct SweepFailure
{
    std::string label;  ///< effective label of the failed item
    std::size_t index = 0; ///< index within the item list
    FailureKind kind = FailureKind::Exception;
    std::string what;   ///< first line of the error message
    std::string crash_dump_excerpt; ///< bounded diagnostic dump (may be empty)
};

/** What the runner does when an item fails. */
struct FailurePolicy
{
    enum class Mode : std::uint8_t {
        Abort,   ///< record, finish remaining items, caller rethrows
        Collect, ///< record as SweepFailure, keep going
    };

    Mode mode = Mode::Abort;

    static FailurePolicy abort() { return {}; }
    static FailurePolicy collect() { return {Mode::Collect}; }

    /** True when failures are captured instead of propagated. */
    bool isolating() const { return mode != Mode::Abort; }

    /** "abort" / "collect" (for reports and logs). */
    std::string describe() const;
};

/** The outcome of one item under runChecked(). */
struct SweepItemOutcome
{
    enum class Status : std::uint8_t { Ok, Failed };

    Status status = Status::Ok;
    std::size_t index = 0;  ///< index within the item list
    SweepResult result;     ///< valid when ok()
    SweepFailure failure;   ///< valid when !ok()
    std::exception_ptr error; ///< the exception (abort-mode rethrow)

    bool ok() const { return status == Status::Ok; }
};

/** All per-item outcomes of a runChecked() sweep, in input order. */
struct SweepOutcome
{
    std::vector<SweepItemOutcome> items;

    std::size_t failures() const;
};

/**
 * Exit code benches use for "the sweep finished, but some items failed
 * under the collect policy" -- distinct from config rejection (2),
 * invariant abort (3) and generic/IO failure (1).
 */
inline constexpr int kSweepPartialFailureExit = 4;

/**
 * Call @p fn(i) for every i in [0, n) on min(@p jobs, n) host threads;
 * with one thread, inline and in order.  Threads claim indices from one
 * atomic counter, so completion order depends on the job count: callers
 * place each result by its index.  @p fn must be safe to call
 * concurrently.
 */
void forEachIndex(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)> &fn);

/**
 * Runs a list of configurations across a bounded pool of host threads.
 */
class SweepRunner
{
  public:
    /** Hard ceiling on the resolved job count (see resolveJobs). */
    static constexpr unsigned kMaxJobs = 4096;

    /**
     * @param jobs concurrent simulations; 0 resolves via resolveJobs(0)
     *             (DBSIM_JOBS, then the host's hardware concurrency).
     */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Failure handling for runChecked() (default: abort). */
    void setFailurePolicy(FailurePolicy policy) { policy_ = policy; }
    const FailurePolicy &failurePolicy() const { return policy_; }

    /**
     * Run every item; results come back in input order regardless of
     * completion order.  If any configuration throws (e.g. ConfigError
     * from validation), all remaining items still run, then the
     * lowest-index exception is rethrown -- so error behavior is also
     * independent of the job count.  (Equivalent to runChecked() under
     * FailurePolicy::abort() plus the rethrow.)
     */
    std::vector<SweepResult> run(const std::vector<SweepItem> &items) const;

    /**
     * Fault-isolated run under the configured FailurePolicy: per-item
     * outcomes in input order, failures captured as SweepFailure (with
     * panics converted to exceptions via PanicThrowGuard while the
     * collect policy is active).  Under FailurePolicy::abort() nothing
     * is rethrown here either -- the caller owns propagation (see
     * run()).
     */
    SweepOutcome runChecked(const std::vector<SweepItem> &items) const;

    /**
     * Resolve a job count: a nonzero @p cli_jobs wins; otherwise a valid
     * positive DBSIM_JOBS environment value; otherwise the host's
     * hardware concurrency (at least 1).  Invalid DBSIM_JOBS values
     * warn and are ignored; values above kMaxJobs (from either source)
     * warn and clamp -- a fat-fingered DBSIM_JOBS must not spawn
     * thousands of threads.
     */
    static unsigned resolveJobs(unsigned cli_jobs);

  private:
    unsigned jobs_;
    FailurePolicy policy_;
};

// ---------------------------------------------------------------------
// Report (schema dbsim-bench-v3)
// ---------------------------------------------------------------------

/**
 * Accumulates sweep results across a bench's sections for the --json
 * report.  The emitted document is schema "dbsim-bench-v3": every
 * result is one compact, single-line entry object (section/label/
 * index/status, then the metrics, or an error object for failures).
 */
struct SweepReport
{
    std::string bench;  ///< e.g. "fig2_oltp_ilp"
    unsigned jobs = 1;
    std::string failure_policy = "abort";

    struct Entry
    {
        std::string section;
        SweepItemOutcome outcome;
    };
    std::vector<Entry> entries;

    /** Append successful results (status ok). */
    void add(const std::string &section,
             const std::vector<SweepResult> &results);

    /** Append every outcome of a fault-isolated sweep. */
    void add(const std::string &section, const SweepOutcome &outcome);

    /** Number of failed entries accumulated so far. */
    std::size_t failures() const;
};

/** Emit the full report as JSON (schema dbsim-bench-v3). */
void writeSweepJson(std::ostream &os, const SweepReport &report);

/**
 * Write the report to @p path (overwrites).
 * @return false (with a warning) if the file cannot be written.
 */
bool writeSweepJsonFile(const std::string &path, const SweepReport &report);

} // namespace dbsim::core

#endif // DBSIM_CORE_SWEEP_HPP
