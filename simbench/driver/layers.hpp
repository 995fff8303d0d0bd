/**
 * @file
 * Layer drivers for the traced pass.
 *
 * The full-system run can only be split at the trace-source seam, so
 * the core, the node memory hierarchy and the coherence fabric are each
 * driven on their own from the benchmark, through their public calls,
 * over record windows captured from the workload's own generators:
 *
 *  - the cpu driver steps one cpu::Core over the processes pinned to
 *    node 0, with a forwarding cpu::CoreMemIf in front of a real
 *    sim::Node (one node, so every miss is local);
 *  - the coherence driver replays every process's data references
 *    through sim::Node::dataAccess on all nodes of one
 *    coher::CoherenceFabric, one reference per node per cycle.
 */

#ifndef SIMBENCH_LAYERS_HPP
#define SIMBENCH_LAYERS_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "machine.hpp"
#include "probes.hpp"

namespace simbench {

/** Per-process record windows, indexed by ProcId. */
using Windows = std::vector<std::vector<trace::TraceRecord>>;

/** The first @p per_proc records of every process of @p m. */
Windows captureWindows(const Machine &m, std::uint32_t procs,
                       std::uint64_t per_proc);

struct CpuDriverResult
{
    std::uint64_t instructions = 0;
    std::uint64_t ticks = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped_cycles = 0; ///< cycles covered by accountStall
    std::uint64_t core_ns = 0;        ///< tick + nextEvent + accountStall
    std::uint64_t memory_ns = 0;      ///< forwarded memory calls in ticks
    SpanLog::Total next_event;
    SpanLog::Total fetch;
    std::array<SpanLog::Total, 6> data_by_class{}; ///< see TimedMem
};

CpuDriverResult runCpuDriver(const core::SimConfig &cfg, const Windows &w,
                             SpanLog &log);

struct CoherenceDriverResult
{
    std::uint64_t references = 0;
    std::uint64_t cycles = 0;
    std::array<SpanLog::Total, 6> data_by_class{}; ///< see TimedMem
};

CoherenceDriverResult runCoherenceDriver(const core::SimConfig &cfg,
                                         const Windows &w, SpanLog &log);

} // namespace simbench

#endif // SIMBENCH_LAYERS_HPP
