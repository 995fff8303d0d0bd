/**
 * @file
 * The benchmark's workloads and the machine each one runs on.
 *
 * A workload is a scaled paper preset (core::makeScaledConfig) with a
 * fixed instruction budget and a seed taken from the command line.  The
 * machine is built here rather than through core::Simulation so that
 * the construction can be timed on its own (setup_s) and so the traced
 * pass can wrap every trace source before the System sees it.
 */

#ifndef SIMBENCH_MACHINE_HPP
#define SIMBENCH_MACHINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sim/system.hpp"
#include "trace/source.hpp"
#include "workload/dss_engine.hpp"
#include "workload/oltp_engine.hpp"

namespace simbench {

using namespace dbsim;

/** One named benchmark workload. */
struct WorkloadDef
{
    const char *name;
    core::WorkloadKind kind;
    std::uint32_t nodes;
    std::uint64_t instructions; ///< default budget, warm-up included
};

/** The workload called @p name, or nullptr. */
const WorkloadDef *findWorkload(const std::string &name);

/** Names of every workload, for usage messages. */
std::string workloadNames();

/**
 * The preset for @p w with the workload seed set to @p seed and the
 * instruction budget set to @p total (of which @p warmup are warm-up).
 */
core::SimConfig makeConfig(const WorkloadDef &w, std::uint64_t seed,
                           std::uint64_t total, std::uint64_t warmup);

/** Wraps a process's trace source before the System takes it. */
using SourceWrap = std::function<std::unique_ptr<trace::TraceSource>(
    std::unique_ptr<trace::TraceSource>)>;

/** A built machine: the workload factory and the System it feeds. */
struct Machine
{
    std::unique_ptr<workload::OltpWorkload> oltp;
    std::unique_ptr<workload::DssWorkload> dss;
    std::unique_ptr<sim::System> system;

    /** A fresh trace source for process @p p of the workload. */
    std::unique_ptr<trace::TraceSource> makeProcess(ProcId p) const;
};

/** Number of workload processes in @p cfg. */
std::uint32_t numProcs(const core::SimConfig &cfg);

/**
 * Build the System and the workload and add every process, pinned to
 * node p % nodes as core::Simulation does.  @p wrap (may be empty) is
 * applied to each source.  Only the workload factory is built when
 * @p with_system is false.
 */
Machine buildMachine(const core::SimConfig &cfg, const SourceWrap &wrap = {},
                     bool with_system = true);

/**
 * Simulated statistics of a finished run, as (name, exact decimal text)
 * pairs in a fixed order: cycles, instructions, breakdown, miss rates,
 * fabric counts and scheduler counts.  Host time is never included, so
 * two runs of the same workload and seed give identical lists.
 */
using Stats = std::vector<std::pair<std::string, std::string>>;

Stats collectStats(const sim::System &sys, const sim::RunResult &r);

/** The value of @p name in @p s, as a double (throws if absent). */
double statValue(const Stats &s, const std::string &name);

/** Name of the first field whose value differs, or "" if equal. */
std::string firstDifference(const Stats &a, const Stats &b);

} // namespace simbench

#endif // SIMBENCH_MACHINE_HPP
