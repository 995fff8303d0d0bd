/**
 * @file
 * The trace-driven processor core.
 *
 * One Core class models both processor flavors studied in the paper:
 *
 *  - the aggressive out-of-order core (default): multiple issue,
 *    register-dependence-driven out-of-order issue from an instruction
 *    window, non-blocking loads, speculative execution past predicted
 *    branches, and a memory queue implementing SC / PC / RC with the
 *    ILP-enabled prefetch and speculative-load optimizations;
 *
 *  - the in-order core (out_of_order = false): instructions issue
 *    strictly in program order and the pipeline stalls at the first
 *    instruction whose operands are not ready, as in the paper's
 *    in-order model (non-blocking caches still permit hit-under-miss
 *    overlap of independent following instructions).
 *
 * Execution-time accounting follows the paper's retire-slot convention
 * (see sim/breakdown.hpp).
 */

#ifndef DBSIM_CPU_OOO_CORE_HPP
#define DBSIM_CPU_OOO_CORE_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "cpu/branch_predictor.hpp"
#include "cpu/consistency.hpp"
#include "cpu/func_units.hpp"
#include "cpu/interfaces.hpp"
#include "cpu/process.hpp"
#include "common/breakdown.hpp"
#include "trace/record.hpp"
#include "common/mutator.hpp"

namespace dbsim::cpu {

/** Core configuration (paper Figure 1 defaults). */
struct CoreParams
{
    bool out_of_order = true;
    std::uint32_t issue_width = 4;
    std::uint32_t window_size = 64;
    std::uint32_t mem_queue_size = 32;   ///< in-flight memory ops (window side)
    std::uint32_t write_buffer_size = 16;
    std::uint32_t max_spec_branches = 8;
    std::uint32_t mispredict_restart = 4; ///< pipeline refill after resolve
    std::uint32_t rollback_penalty = 8;   ///< spec-load violation recovery
    std::uint32_t fetch_line_bytes = 64;  ///< L1I line (fetch-block) size
    std::uint32_t spin_retry_interval = 40;
    Cycles spin_yield_threshold = 10000;
    Cycles context_switch_cost = 500;
    FuncUnitParams fu;
    BranchPredParams bp;
    ConsistencyModel model = ConsistencyModel::RC;
    ConsistencyImpl cons;

    /**
     * Protocol fault injection (verification layer / tests only).  The
     * seeded consistency bugs -- SkippedSpecSquash, ReorderedRelease --
     * fire at their decision points in this core.  Not owned.
     */
    const verify::ProtocolMutator *mutator = nullptr;
};

/** Aggregate core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t spec_load_violations = 0;
    std::uint64_t lock_yields = 0;
    std::uint64_t lock_spin_retries = 0;
    std::uint64_t context_switches = 0;
    Cycles run_cycles = 0; ///< cycles accounted (incl. idle)
};

/** Why a core is due to tick (the wake contract, DESIGN.md §5a). */
enum class WakeReason : std::uint8_t
{
    Event,    ///< its cached next event has arrived
    Retry,    ///< a refused memory access retries every iteration
    Hint,     ///< a hint's completion lands on the next tick
    Poke,     ///< an invalidation flagged a speculative load
    Dispatch, ///< a process was switched in, detached or preempted
    Start,    ///< first iteration of a run, or a restored core
};

const char *wakeReasonName(WakeReason r);

/**
 * The processor core.  The owner (sim::Node / sim::System) supplies a
 * memory interface, an environment interface, and process contexts, and
 * drives the core via tick() / accountStall().
 */
class Core
{
  public:
    Core(CpuId id, const CoreParams &params, CoreMemIf *mem,
         CoreEnvIf *env);

    CpuId id() const { return id_; }
    const CoreParams &params() const { return params_; }

    /**
     * Begin running @p proc at @p now.  Any previously running process
     * must already have been detached (window empty).  A context-switch
     * cost is applied unless this is the first dispatch on an idle core
     * with @p charge_switch false.
     */
    void switchTo(ProcessContext *proc, Cycles now, bool charge_switch);

    /** The currently running process (nullptr if idle). */
    ProcessContext *current() const { return proc_; }

    /**
     * Push all fetched-but-unretired records back to the current process
     * and detach it (used for lock yields and preemption).  The window
     * is left empty.
     */
    void detachCurrent();

    /** Advance the core by one cycle. */
    void tick(Cycles now);

    /**
     * Account for the core being in its current (stalled or idle) state
     * from @p from to @p to without re-simulating each cycle.  Only
     * valid when nextEvent(from) >= to.
     */
    void accountStall(Cycles from, Cycles to);

    /**
     * Earliest future cycle at which this core's state can change.
     * Returns kNever when the core is idle with no pending events.
     */
    Cycles nextEvent(Cycles now) const;

    // ----------------------------------------------------------------
    // Wake contract (DESIGN.md §5a)
    // ----------------------------------------------------------------

    /**
     * True when tick(@p now) may do more than account one stalled
     * cycle.  A core that is not due is left to accountStall(now,
     * now + 1), which leaves it in exactly the state tick(now) would.
     * Ticking a core that is not due is always safe.
     */
    bool
    due(Cycles now) const
    {
        return !armed_ || kick_ || now >= wake_at_;
    }

    /**
     * Call after tick(@p now): caches nextEvent(now) and the cycle at
     * which the core is next due.  Returns the cached next event; a
     * core that has not ticked since the last call returns it without
     * rescanning its window.
     */
    Cycles arm(Cycles now);

    /** Make the core due at the next iteration (run start, restore). */
    void wake(WakeReason why);

    /** Cycle at which the core is next due, and why (diagnostics). */
    Cycles wakeAt() const { return kick_ || !armed_ ? 0 : wake_at_; }
    WakeReason wakeReason() const { return kick_ ? kick_reason_ : wake_reason_; }

    /** Notification: physical line @p pblock was invalidated/evicted. */
    void onLineInvalidated(Addr pblock);

    /** Current head-of-window stall classification (for diagnostics). */
    StallCat headCat() const { return classifyHead(); }

    /** One-line pipeline state dump (for diagnostics). */
    std::string debugString() const;

    /** True when the window and write buffer have fully drained. */
    bool drained() const { return window_.empty() && wb_.empty(); }

    const Breakdown &breakdown() const { return breakdown_; }
    const CoreStats &stats() const { return stats_; }
    const BranchPredStats &branchStats() const { return bpred_.stats(); }
    const FuncUnitPool &funcUnits() const { return fu_; }

    /** Zero statistical state (architectural state is preserved). */
    void resetStats();

    /** Serialize the full micro-architectural state (checkpointing). */
    void saveState(snap::Writer &w) const;

    /**
     * Restore state saved by saveState().  @p resolve maps a serialized
     * ProcId back to the live ProcessContext (nullptr for "idle").
     */
    void restoreState(snap::Reader &r,
                      const std::function<ProcessContext *(ProcId)> &resolve);

  private:
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    struct WindowEntry
    {
        trace::TraceRecord rec;
        std::uint64_t seq = 0;
        bool issued = false;
        bool completed = false;
        Cycles complete_at = kNever;
        // memory-op state
        Cycles addr_ready_at = kNever;
        bool mem_issued = false;
        bool performed = false;
        Cycles performed_at = kNever;
        coher::AccessClass cls = coher::AccessClass::L1Hit;
        bool dtlb_miss = false;
        Addr pblock = kNoAddr;
        bool speculative = false;
        bool violated = false;
        bool prefetched = false;
        // branch state
        bool predicted = false;
        bool mispredicted = false;
        // lock-acquire state
        Cycles spin_retry_at = 0;
        Cycles spin_start = kNever;
    };

    struct WbEntry
    {
        Addr vaddr;
        Addr pc;
        std::uint32_t epoch;
        bool is_release;
        bool is_flush = false; ///< flush hint riding the write buffer
        bool issued = false;
        bool performed = false;
        Cycles performed_at = kNever;
    };

    // pipeline stages
    void retireStage(Cycles now);
    void completeStage(Cycles now);
    void memoryStage(Cycles now);
    void writeBufferStage(Cycles now);
    void issueStage(Cycles now);
    void fetchStage(Cycles now);

    bool canRetire(const WindowEntry &e, Cycles now) const;
    void doRetireActions(WindowEntry &e, Cycles now);
    bool producersReady(const WindowEntry &e) const;
    void dispatch(const trace::TraceRecord &rec, Cycles now);
    void attemptMemIssue(WindowEntry &e, Cycles now, bool loads_done,
                         bool stores_done, bool fence_before);
    void attemptLockAcquire(WindowEntry &e, Cycles now);
    void rollbackFrom(std::size_t idx, Cycles now);
    StallCat classifyHead() const;
    StallCat readCat(const WindowEntry &e) const;
    bool wbAllPerformed() const;
    std::uint32_t minUnperformedEpoch() const;
    const WindowEntry *entryFor(std::uint64_t seq) const;
    std::uint32_t memOpsInFlight() const;
    Cycles scanNextEvent(Cycles now, bool *overdue) const;

    CpuId id_;
    CoreParams params_;
    CoreMemIf *mem_;
    CoreEnvIf *env_;
    ConsistencyPolicy policy_;
    BranchPredictor bpred_;
    FuncUnitPool fu_;

    // process / fetch state
    ProcessContext *proc_ = nullptr;
    std::optional<trace::TraceRecord> pending_;
    Addr fetch_line_ = kNoAddr;         ///< line currently deliverable
    Addr fetch_pending_line_ = kNoAddr; ///< line being fetched
    Cycles fetch_ready_at_ = 0;
    bool fetch_itlb_miss_ = false;
    std::uint64_t unresolved_branch_seq_ = kNoSeq;
    Cycles fetch_resume_at_ = 0;
    bool syscall_fetch_block_ = false;
    Cycles run_resume_at_ = 0; ///< context-switch cost horizon
    bool done_notified_ = false;

    // window / memory queue
    std::deque<WindowEntry> window_;
    std::uint64_t head_seq_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint32_t unresolved_branches_ = 0;
    Cycles issue_block_until_ = 0;
    Cycles mem_retry_at_ = kNever; ///< earliest refused-access retry
    bool progress_ = false; ///< this tick changed pipeline state

    // write buffer
    std::deque<WbEntry> wb_;
    std::uint32_t wmb_epoch_ = 0;

    // wake state: derived from the pipeline state above, so it is not
    // serialized (a restored core is simply due)
    bool armed_ = false;        ///< arm() has run since the last tick
    Cycles next_event_ = kNever; ///< nextEvent() as of the last arm()
    Cycles wake_at_ = 0;
    WakeReason wake_reason_ = WakeReason::Start;
    bool kick_ = true;          ///< made due from outside since the last tick
    WakeReason kick_reason_ = WakeReason::Start;

    Breakdown breakdown_;
    CoreStats stats_;
};

} // namespace dbsim::cpu

#endif // DBSIM_CPU_OOO_CORE_HPP
