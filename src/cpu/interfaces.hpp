/**
 * @file
 * Interfaces through which a processor core talks to the rest of the
 * node (memory hierarchy) and to the machine-wide services (locks,
 * scheduler notifications).  sim::Node and sim::System implement these.
 */

#ifndef DBSIM_CPU_INTERFACES_HPP
#define DBSIM_CPU_INTERFACES_HPP

#include <optional>

#include "coherence/directory.hpp"
#include "common/types.hpp"

namespace dbsim::cpu {

/** Outcome of a data access presented to the memory hierarchy. */
struct MemAccessResult
{
    Cycles ready;             ///< cycle the data (or ownership) is available
    coher::AccessClass cls;   ///< service classification
    Addr pblock;              ///< physical block address (for violation checks)
    bool dtlb_miss = false;   ///< the access took a data-TLB miss
};

/** Outcome of an instruction-line fetch. */
struct FetchResult
{
    Cycles ready;             ///< cycle the fetch block is available
    bool itlb_miss = false;
    bool l1_hit = true;
};

/**
 * Memory-hierarchy interface used by a core.  All calls are issued at
 * the core's current cycle; results carry absolute completion times.
 */
class CoreMemIf
{
  public:
    virtual ~CoreMemIf() = default;

    /**
     * Attempt a data access.
     *
     * @param vaddr     virtual address
     * @param pc        PC of the accessing instruction
     * @param is_write  store / read-exclusive when true
     * @param now       current cycle
     * @param prefetch  non-binding prefetch (never retried; dropped
     *                  silently when resources are busy)
     * @param retry_at  when the access is refused, set (if non-null) to
     *                  the earliest cycle a retry could succeed (used
     *                  for event-driven cycle skipping)
     * @return completion info, or std::nullopt when the access cannot be
     *         accepted this cycle (port or MSHR busy) and must retry.
     */
    virtual std::optional<MemAccessResult>
    dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
               bool prefetch, Cycles *retry_at = nullptr) = 0;

    /** Fetch the instruction line containing @p pc. */
    virtual FetchResult instrFetch(Addr pc, Cycles now) = 0;

    /** Flush / WriteThrough hint for the line containing @p vaddr. */
    virtual void flushHint(Addr vaddr, Cycles now) = 0;
};

/**
 * Machine-wide services: the lock table maintained in the simulated
 * environment (paper section 2.2) and scheduling notifications.
 */
class CoreEnvIf
{
  public:
    virtual ~CoreEnvIf() = default;

    /** Is the lock at @p addr currently free (acquirable by @p proc)? */
    virtual bool lockIsFree(Addr addr, ProcId proc) const = 0;

    /** Try to acquire the lock at @p addr for process @p proc. */
    virtual bool lockTryAcquire(Addr addr, ProcId proc) = 0;

    /** Release the lock at @p addr (held by @p proc). */
    virtual void lockRelease(Addr addr, ProcId proc) = 0;

    /**
     * The running process executed a blocking system call taking
     * @p latency cycles of I/O; the scheduler should block it and switch.
     */
    virtual void onSyscallBlock(ProcId proc, Cycles latency) = 0;

    /** The running process spun too long on a lock and yields the CPU. */
    virtual void onLockYield(ProcId proc) = 0;

    /** The running process's trace is exhausted. */
    virtual void onProcessDone(ProcId proc) = 0;
};

} // namespace dbsim::cpu

#endif // DBSIM_CPU_INTERFACES_HPP
