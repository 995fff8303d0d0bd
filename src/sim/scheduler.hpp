/**
 * @file
 * The internally modeled operating-system scheduler (paper section 2.2):
 * per-CPU run queues with processes pinned to their CPUs, context
 * switches at blocking system calls (whose I/O latencies come from the
 * trace), lock-spin yields, and a round-robin time slice as a backstop.
 *
 * Blocked processes are kept in a per-CPU min-heap keyed on
 * (wake_at, block order), so the run loop's event-skip computation
 * (System::run calls nextWake for every CPU every iteration) is an
 * inline read of the heap root and waking is O(log n) per woken process
 * instead of a linear scan of the blocked list.
 */

#ifndef DBSIM_SIM_SCHEDULER_HPP
#define DBSIM_SIM_SCHEDULER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "cpu/process.hpp"

namespace dbsim::sim {

/**
 * Per-CPU run queues over externally owned ProcessContexts.
 */
class Scheduler
{
  public:
    explicit Scheduler(std::uint32_t num_cpus);

    /** Register @p proc with affinity @p cpu; it starts Ready. */
    void addProcess(cpu::ProcessContext *proc, CpuId cpu);

    /**
     * Pick the next runnable process for @p cpu at time @p now (wakes
     * any blocked processes whose wake time has passed first).
     * @return nullptr if none is runnable.
     */
    cpu::ProcessContext *pickNext(CpuId cpu, Cycles now);

    /** Requeue a (yielding or preempted) process at the back. */
    void makeReady(cpu::ProcessContext *proc);

    /** Block @p proc until @p wake_at. */
    void block(cpu::ProcessContext *proc, Cycles wake_at);

    /** Mark @p proc finished. */
    void finish(cpu::ProcessContext *proc);

    /** Any incomplete process anywhere?  O(1): a maintained count. */
    bool anyIncomplete() const { return incomplete_ != 0; }

    /**
     * Recount the incomplete processes from their states.  Process
     * states restore after the scheduler does, so the machine's restore
     * calls this once they are in place.
     */
    void recountIncomplete();

    /**
     * Earliest wake time among blocked processes of @p cpu (kNever if
     * none are blocked).  O(1): the heap root.
     */
    Cycles
    nextWake(CpuId cpu) const
    {
        const CpuQueue &q = queues_[cpu];
        return q.blocked.empty() ? kNever : q.blocked.front().wake_at;
    }

    /** True iff a Ready process is queued on @p cpu. */
    bool hasReady(CpuId cpu) const { return !queues_[cpu].ready.empty(); }

    /** Ready-queue depth of @p cpu (for diagnostics). */
    std::size_t readyCount(CpuId cpu) const { return queues_[cpu].ready.size(); }

    /** Blocked-process count of @p cpu (for diagnostics). */
    std::size_t
    blockedCount(CpuId cpu) const
    {
        return queues_[cpu].blocked.size();
    }

    /**
     * Serialize queue membership (as ProcIds) and the blocked heaps'
     * backing vectors verbatim, so a restore reproduces the exact heap
     * layout and therefore the exact future pop order.  Registration
     * (`all`, affinity) is construction state and is not serialized.
     */
    void saveState(snap::Writer &w) const;

    /** @p resolve maps a serialized ProcId to the live context. */
    void
    restoreState(snap::Reader &r,
                 const std::function<cpu::ProcessContext *(ProcId)> &resolve);

  private:
    /** Min-heap element: earliest wake first, ties in block order. */
    struct BlockedEntry
    {
        Cycles wake_at;
        std::uint64_t seq;
        cpu::ProcessContext *proc;
    };

    struct WakesLater
    {
        bool
        operator()(const BlockedEntry &a, const BlockedEntry &b) const
        {
            if (a.wake_at != b.wake_at)
                return a.wake_at > b.wake_at;
            return a.seq > b.seq;
        }
    };

    struct CpuQueue
    {
        std::deque<cpu::ProcessContext *> ready;
        std::vector<BlockedEntry> blocked; ///< heap ordered by WakesLater
        std::vector<cpu::ProcessContext *> all;
    };

    void wake(CpuQueue &q, Cycles now);

    /** Affinity of @p proc; panics if it was never addProcess()ed. */
    CpuId affinityOf(const cpu::ProcessContext *proc) const;

    static constexpr CpuId kNoAffinity = ~CpuId{0};

    std::vector<CpuQueue> queues_;
    std::vector<CpuId> affinity_; ///< indexed by ProcId; kNoAffinity = unset
    std::uint64_t block_seq_ = 0; ///< tie-break for simultaneous wakes
    std::uint32_t incomplete_ = 0; ///< registered processes not Done
};

} // namespace dbsim::sim

#endif // DBSIM_SIM_SCHEDULER_HPP
