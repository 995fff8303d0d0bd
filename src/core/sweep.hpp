/**
 * @file
 * Parallel configuration-sweep runner and the machine-readable report.
 *
 * Every figure bench replays the same workload through a list of
 * independent configurations.  runSweep() executes such a list on a
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
 * Failure semantics (DESIGN.md §5e): every item runs, then the
 * lowest-index exception is rethrown.
 */

#ifndef DBSIM_CORE_SWEEP_HPP
#define DBSIM_CORE_SWEEP_HPP

#include <cstddef>
#include <cstdint>
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

/**
 * Call @p fn(i) for every i in [0, n) on min(@p jobs, n) host threads;
 * with one thread, inline and in order.  Threads claim indices from one
 * atomic counter, so completion order depends on the job count: callers
 * place each result by its index.  @p fn must be safe to call
 * concurrently.
 */
void forEachIndex(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)> &fn);

/** Hard ceiling on the resolved job count (see resolveJobs). */
inline constexpr unsigned kMaxJobs = 4096;

/**
 * Resolve a job count: a nonzero @p cli_jobs wins; otherwise a valid
 * positive DBSIM_JOBS environment value; otherwise the host's hardware
 * concurrency (at least 1).  Invalid DBSIM_JOBS values warn and are
 * ignored; values above kMaxJobs (from either source) warn and clamp --
 * a fat-fingered DBSIM_JOBS must not spawn thousands of threads.
 */
unsigned resolveJobs(unsigned cli_jobs);

/**
 * Run every item on min(@p jobs, items.size()) host threads; results
 * come back in input order regardless of completion order.  If any
 * configuration throws (e.g. ConfigError from validation), all
 * remaining items still run, then the lowest-index exception is
 * rethrown -- so error behavior is also independent of the job count.
 * A DBSIM_PANIC keeps its process-wide behavior: it aborts unless the
 * caller installed a PanicThrowGuard.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepItem> &items,
                                  unsigned jobs);

// ---------------------------------------------------------------------
// Report (schema dbsim-bench-v4)
// ---------------------------------------------------------------------

/**
 * Accumulates sweep results across a bench's sections for the --json
 * report.  The emitted document is schema "dbsim-bench-v4": every
 * result is one compact, single-line entry object (section/label/
 * index, then the metrics).
 */
struct SweepReport
{
    std::string bench;  ///< e.g. "fig2_oltp_ilp"
    unsigned jobs = 1;

    struct Entry
    {
        std::string section;
        std::size_t index = 0; ///< position within its section
        SweepResult result;
    };
    std::vector<Entry> entries;

    /** Append one section's results, indexed from 0 within it. */
    void add(const std::string &section,
             const std::vector<SweepResult> &results);
};

/** Emit the full report as JSON (schema dbsim-bench-v4). */
void writeSweepJson(std::ostream &os, const SweepReport &report);

/**
 * Write the report to @p path (overwrites).
 * @return false (with a warning) if the file cannot be written.
 */
bool writeSweepJsonFile(const std::string &path, const SweepReport &report);

} // namespace dbsim::core

#endif // DBSIM_CORE_SWEEP_HPP
