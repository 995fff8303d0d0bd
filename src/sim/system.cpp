#include "sim/system.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "sim/diagnostics.hpp"

namespace dbsim::sim {

// ---------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------

namespace {

void
requirePow2(const std::string &field, std::uint64_t v)
{
    if (!isPow2(v)) {
        throw ConfigError(field, "must be a nonzero power of two, got " +
                                     std::to_string(v));
    }
}

void
requireNonzero(const std::string &field, std::uint64_t v, const char *why)
{
    if (v == 0)
        throw ConfigError(field, std::string("must be at least 1; ") + why);
}

void
validateCacheLevel(const std::string &prefix, const CacheLevelParams &p)
{
    requirePow2(prefix + ".size_bytes", p.size_bytes);
    requirePow2(prefix + ".line_bytes", p.line_bytes);
    requireNonzero(prefix + ".assoc", p.assoc,
                   "a cache needs at least one way");
    if (p.size_bytes %
            (static_cast<std::uint64_t>(p.assoc) * p.line_bytes) !=
        0) {
        throw ConfigError(prefix + ".size_bytes",
                          "size must be divisible by assoc * line_bytes (" +
                              std::to_string(p.size_bytes) + " % (" +
                              std::to_string(p.assoc) + " * " +
                              std::to_string(p.line_bytes) + ") != 0)");
    }
    const std::uint64_t sets =
        p.size_bytes / (static_cast<std::uint64_t>(p.assoc) * p.line_bytes);
    if (!isPow2(sets)) {
        throw ConfigError(prefix + ".size_bytes",
                          "set count " + std::to_string(sets) +
                              " must be a power of two; adjust size or "
                              "associativity");
    }
    requireNonzero(prefix + ".mshrs", p.mshrs,
                   "a lockup-free cache needs at least one MSHR");
    if (p.mshrs > 64) {
        throw ConfigError(prefix + ".mshrs",
                          "at most 64 MSHRs are supported (occupancy "
                          "statistics track 64 registers), got " +
                              std::to_string(p.mshrs));
    }
}

} // namespace

void
SystemParams::validate() const
{
    if (num_nodes < 1 || num_nodes > 32) {
        throw ConfigError("system.num_nodes",
                          "the coherence fabric supports 1..32 nodes (the "
                          "directory keeps a 32-bit sharer mask), got " +
                              std::to_string(num_nodes));
    }

    validateCacheLevel("system.node.l1i", node.l1i);
    validateCacheLevel("system.node.l1d", node.l1d);
    validateCacheLevel("system.node.l2", node.l2);
    if (node.l1i.line_bytes != node.l2.line_bytes ||
        node.l1d.line_bytes != node.l2.line_bytes) {
        throw ConfigError("system.node.*.line_bytes",
                          "all cache levels must share one line size "
                          "(inclusion bookkeeping is per-line): l1i=" +
                              std::to_string(node.l1i.line_bytes) +
                              " l1d=" + std::to_string(node.l1d.line_bytes) +
                              " l2=" + std::to_string(node.l2.line_bytes));
    }
    requireNonzero("system.node.l1d.ports", node.l1d.ports,
                   "a portless L1D would never accept an access");

    requirePow2("system.node.page_bytes", node.page_bytes);
    if (node.page_bytes < node.l2.line_bytes) {
        throw ConfigError("system.node.page_bytes",
                          "a page must hold at least one cache line (" +
                              std::to_string(node.page_bytes) + " < " +
                              std::to_string(node.l2.line_bytes) + ")");
    }
    requireNonzero("system.node.itlb_entries", node.itlb_entries,
                   "use perfect_itlb for an ideal iTLB instead of 0 entries");
    requireNonzero("system.node.dtlb_entries", node.dtlb_entries,
                   "use perfect_dtlb for an ideal dTLB instead of 0 entries");
    if (node.stream_buffer_entries > 64) {
        throw ConfigError("system.node.stream_buffer_entries",
                          "at most 64 stream-buffer entries are supported, "
                          "got " +
                              std::to_string(node.stream_buffer_entries));
    }

    requireNonzero("system.core.issue_width", core.issue_width,
                   "the core must issue at least one instruction per cycle");
    requireNonzero("system.core.window_size", core.window_size,
                   "the instruction window needs at least one slot");
    if (core.window_size < core.issue_width) {
        throw ConfigError("system.core.window_size",
                          "the window must cover at least one issue group (" +
                              std::to_string(core.window_size) + " < " +
                              std::to_string(core.issue_width) + ")");
    }
    requireNonzero("system.core.mem_queue_size", core.mem_queue_size,
                   "the memory queue needs at least one slot");
    requireNonzero("system.core.write_buffer_size", core.write_buffer_size,
                   "the write buffer needs at least one slot");
    requireNonzero("system.core.max_spec_branches", core.max_spec_branches,
                   "fetch stops forever at the first branch otherwise");
    requirePow2("system.core.fetch_line_bytes", core.fetch_line_bytes);
    if (core.fetch_line_bytes != node.l1i.line_bytes) {
        DBSIM_WARN("core.fetch_line_bytes (", core.fetch_line_bytes,
                   ") differs from the L1I line size (", node.l1i.line_bytes,
                   "); fetch-block accounting will be inconsistent");
    }

    requirePow2("system.page_bins", page_bins);
    requireNonzero("system.sched_quantum", sched_quantum,
                   "a zero time slice would preempt every cycle");
    requireNonzero("system.max_cycles", max_cycles,
                   "the safety cap would fire before the first cycle");
    if (!(fabric.migratory_read_factor > 0.0)) {
        throw ConfigError("system.fabric.migratory_read_factor",
                          "must be positive (1.0 = no scaling, 0.6 = the "
                          "paper's flush upper bound)");
    }

    // Observation knobs: 0 is the documented "disabled" value, but a
    // nonzero interval that can never fire (or that the run loop would
    // silently ignore) is a configuration bug, not a preference -- the
    // fuzz layer relies on "enabled" meaning "observable".
    if (state_hash_interval > max_cycles) {
        throw ConfigError("system.state_hash_interval",
                          "interval (" + std::to_string(state_hash_interval) +
                              ") exceeds max_cycles (" +
                              std::to_string(max_cycles) +
                              "); epoch hashing would be silently disabled "
                              "-- use 0 to disable explicitly");
    }
}

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

namespace {

/** Validate before any member is built (used in the ctor init list). */
const SystemParams &
validated(const SystemParams &params)
{
    params.validate();
    return params;
}

bool
coherenceCheckRequested(const SystemParams &params)
{
    if (params.check_coherence)
        return true;
    const char *env = std::getenv("DBSIM_CHECK");
    return env && *env && std::strcmp(env, "0") != 0;
}

} // namespace

System::System(const SystemParams &params)
    : params_(validated(params)),
      page_map_(params.node.page_bytes, params.page_bins, params.num_nodes),
      fabric_(params.num_nodes, params.fabric, params.mesh),
      sched_(params.num_nodes)
{
    cpus_.resize(params_.num_nodes);
    for (std::uint32_t i = 0; i < params_.num_nodes; ++i) {
        cpus_[i].node = std::make_unique<Node>(i, params_.node, &page_map_,
                                               &fabric_);
        cpus_[i].core = std::make_unique<cpu::Core>(i, params_.core,
                                                    cpus_[i].node.get(),
                                                    this);
        cpus_[i].node->attachCore(cpus_[i].core.get());
        fabric_.attachSite(i, cpus_[i].node.get());
    }
    if (coherenceCheckRequested(params_)) {
        checker_ = std::make_unique<coher::CoherenceChecker>();
        fabric_.attachChecker(checker_.get());
    }
    // Any panic while this machine exists dumps its state first.
    crash_dump_handle_ = registerCrashDump(
        "machine state", [this] { return machineStateDump(*this); });
}

System::~System()
{
    unregisterCrashDump(crash_dump_handle_);
}

cpu::ProcessContext *
System::addProcess(std::unique_ptr<trace::TraceSource> src, CpuId affinity)
{
    DBSIM_ASSERT(affinity < params_.num_nodes, "bad process affinity");
    const ProcId id = static_cast<ProcId>(procs_.size());
    sources_.push_back(std::move(src));
    procs_.push_back(std::make_unique<cpu::ProcessContext>(
        id, sources_.back().get()));
    proc_cpu_.push_back(affinity);
    sched_.addProcess(procs_.back().get(), affinity);
    return procs_.back().get();
}

std::uint64_t
System::totalRetired() const
{
    std::uint64_t n = retired_before_reset_;
    for (const auto &cs : cpus_)
        n += cs.core->stats().instructions;
    return n;
}

void
System::resetStats()
{
    for (auto &cs : cpus_) {
        retired_before_reset_ += cs.core->stats().instructions;
        cs.core->resetStats();
        cs.node->resetStats();
    }
    window_start_ = now_;
}

// ---------------------------------------------------------------------
// CoreEnvIf: locks
// ---------------------------------------------------------------------

bool
System::lockIsFree(Addr addr, ProcId proc) const
{
    auto it = lock_holder_.find(addr);
    return it == lock_holder_.end() || it->second == proc;
}

bool
System::lockTryAcquire(Addr addr, ProcId proc)
{
    auto [it, inserted] = lock_holder_.emplace(addr, proc);
    return inserted || it->second == proc;
}

void
System::lockRelease(Addr addr, ProcId proc)
{
    auto it = lock_holder_.find(addr);
    if (it != lock_holder_.end() && it->second == proc)
        lock_holder_.erase(it);
}

// ---------------------------------------------------------------------
// CoreEnvIf: scheduling notifications
// ---------------------------------------------------------------------

void
System::onSyscallBlock(ProcId proc, Cycles latency)
{
    CpuState &cs = cpus_[cpuOf(proc)];
    cs.pending = Pending::Block;
    cs.pending_latency = latency;
}

void
System::onLockYield(ProcId proc)
{
    CpuState &cs = cpus_[cpuOf(proc)];
    if (cs.pending == Pending::None)
        cs.pending = Pending::Yield;
}

void
System::onProcessDone(ProcId proc)
{
    CpuState &cs = cpus_[cpuOf(proc)];
    cs.pending = Pending::Done;
}

void
System::settle(CpuState &cs, Cycles to)
{
    if (cs.accounted_to < to) {
        cs.core->accountStall(cs.accounted_to, to);
        cs.accounted_to = to;
    }
}

void
System::settleAll(Cycles to)
{
    for (auto &cs : cpus_)
        settle(cs, to);
}

void
System::handlePending(CpuState &cs)
{
    // Only the core's own tick requests an action, so its stalled
    // cycles are settled already.
    cpu::ProcessContext *proc = cs.core->current();
    DBSIM_ASSERT(proc != nullptr, "pending action without process");
    switch (cs.pending) {
      case Pending::Block:
        cs.core->detachCurrent();
        sched_.block(proc, now_ + cs.pending_latency);
        break;
      case Pending::Yield:
        cs.core->detachCurrent();
        sched_.makeReady(proc);
        break;
      case Pending::Done:
        cs.core->detachCurrent();
        sched_.finish(proc);
        break;
      case Pending::None:
        break;
    }
    cs.pending = Pending::None;
}

// ---------------------------------------------------------------------
// End-of-run quiescence audit
// ---------------------------------------------------------------------

void
System::verifyQuiesced() const
{
    for (std::uint32_t i = 0; i < cpus_.size(); ++i) {
        const Node &n = *cpus_[i].node;
        if (n.l1dMshr().unboundedEntries() != 0 ||
            n.l2Mshr().unboundedEntries() != 0) {
            DBSIM_PANIC("quiescence check failed: cpu", i,
                        " has MSHR entries with no fill time (l1d=",
                        n.l1dMshr().unboundedEntries(),
                        " l2=", n.l2Mshr().unboundedEntries(), ")");
        }
        if (n.streamBuffer().unboundedEntries() != 0) {
            DBSIM_PANIC("quiescence check failed: cpu", i,
                        " has stream-buffer prefetches that can never "
                        "arrive (",
                        n.streamBuffer().unboundedEntries(), " entries)");
        }
        if (!sched_.anyIncomplete() && cpus_[i].core->current() != nullptr) {
            DBSIM_PANIC("quiescence check failed: every process finished "
                        "but cpu",
                        i, " still holds one");
        }
    }
}

// ---------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------

RunResult
System::run(std::uint64_t max_instructions,
            std::uint64_t warmup_instructions)
{
    // Run-loop carry state: a restored run continues the interrupted
    // run's warmup and watchdog bookkeeping instead of reinitializing
    // (carry_valid_ is armed by deserializeState).
    if (!carry_valid_) {
        warmed_ = warmup_instructions == 0;
        window_start_ = now_;
        wd_last_retired_ = totalRetired();
        wd_last_progress_ = now_;
    }
    carry_valid_ = false;
    const Cycles deadline = now_ + params_.max_cycles;

    // Nothing is known about what happened to the cores since the last
    // run() (or a restore): every one ticks at the first iteration.
    // Every cycle before now_ is accounted.
    for (auto &cs : cpus_) {
        cs.core->wake(cpu::WakeReason::Start);
        cs.accounted_to = now_;
    }

    // Optional progress tracing: DBSIM_DEBUG=<cycle interval>.
    const Cycles dbg_every = cyclesFromEnv("DBSIM_DEBUG");
    Cycles dbg_next = dbg_every;

    // Host deadline polling (sim::HostDeadlineScope).  Reading the wall
    // clock every iteration would be measurable, so the check runs every
    // kDeadlinePollStride loop iterations -- still sub-second reaction
    // for any simulation actually making iterations.  The stride never
    // affects simulated behavior, only how fast the host notices.
    constexpr std::uint32_t kDeadlinePollStride = 4096;
    const bool deadline_armed = hostDeadlineArmed();
    std::uint32_t poll_count = 0;
    bool stopped_early = false;

    // Retired-instruction total, advanced by each tick's retirements
    // (nothing else retires instructions).
    std::uint64_t retired = totalRetired();
    while (sched_.anyIncomplete() && retired < max_instructions) {
        // Early stop for bisection / restore tests: leave the state of
        // the top of this iteration, before any epoch hashing or
        // machine activity, so a checkpoint the caller saves after
        // run() resumes at exactly the point an uninterrupted run would
        // next act.
        if (params_.stop_at_cycle && now_ >= params_.stop_at_cycle) {
            stopped_early = true;
            break;
        }

        // Epoch state-hashing: one sample per boundary crossing.  Event
        // skipping can jump several boundaries at once; every crossed
        // boundary gets an entry (sharing one hash -- no event fired in
        // between, so the machine state is the same at each).
        if (params_.state_hash_interval && now_ >= epoch_next_) {
            settleAll(now_);
            const std::uint64_t h = stateHash();
            while (now_ >= epoch_next_) {
                epoch_hashes_.push_back(EpochHash{epoch_next_, h});
                epoch_next_ += params_.state_hash_interval;
            }
        }

        if (++poll_count >= kDeadlinePollStride) {
            poll_count = 0;
            if (deadline_armed && hostDeadlineExpired()) {
                settleAll(now_);
                std::ostringstream msg;
                msg << "host deadline (" << hostDeadlineSeconds()
                    << "s) expired at cycle " << now_
                    << "; simulation abandoned";
                throw SimTimeoutError(msg.str(), machineStateDump(*this));
            }
        }
        if (now_ >= deadline) {
            std::cerr << machineStateDump(*this);
            DBSIM_FATAL("simulation exceeded the max_cycles safety cap (",
                        params_.max_cycles,
                        " cycles); machine state dumped to stderr");
        }
        if (params_.watchdog_cycles) {
            if (retired != wd_last_retired_) {
                wd_last_retired_ = retired;
                wd_last_progress_ = now_;
            } else if (now_ - wd_last_progress_ >= params_.watchdog_cycles) {
                // Livelock / deadlock: nothing retired anywhere for a
                // whole window.  The machine-state dump (also attached
                // by the panic path's crash-dump registry) names each
                // CPU's run state, head stall, and wake horizon.
                DBSIM_PANIC("forward-progress watchdog: no instruction "
                            "retired in ",
                            now_ - wd_last_progress_, " cycles (window=",
                            params_.watchdog_cycles,
                            "); machine is livelocked or deadlocked");
            }
        }
        if (dbg_every && now_ >= dbg_next) {
            dbg_next = now_ + dbg_every;
            std::cerr << progressLine(*this) << "\n";
        }

        // First pass: dispatch a process onto each idle core, and run
        // one cycle on every core that is due; the others would only
        // account a stalled cycle, which waits for their next settle
        // point (wake contract, DESIGN.md §5a).  A tick only records a
        // scheduling request (cs.pending), so no core's dispatch
        // depends on another core's tick.
        for (std::uint32_t i = 0; i < cpus_.size(); ++i) {
            CpuState &cs = cpus_[i];
            if (!cs.core->current()) {
                if (cpu::ProcessContext *p = sched_.pickNext(i, now_)) {
                    settle(cs, now_);
                    cs.core->switchTo(p, now_, cs.ever_ran);
                    cs.ever_ran = true;
                    cs.run_start = now_;
                }
            }
            if (cs.core->due(now_)) {
                settle(cs, now_);
                const std::uint64_t before = cs.core->stats().instructions;
                cs.core->tick(now_);
                retired += cs.core->stats().instructions - before;
                cs.accounted_to = now_ + 1;
            }
        }

        // Audit the blocks the fabric transacted on this cycle (the
        // requesting nodes have installed their grants by now).
        if (checker_)
            checker_->auditPending(fabric_, now_);

        // Warm-up ends once the ticks have retired enough.  settleAll
        // books every core through this cycle in the state the first
        // pass left it; a core preempted below would be booked in that
        // same state.  The second pass retires and counts nothing.
        if (!warmed_ && retired >= warmup_instructions) {
            settleAll(now_ + 1);
            resetStats();
            warmed_ = true;
        }

        // Second pass: the scheduling actions requested during the
        // tick, the round-robin backstop (preempt an over-quantum
        // process when another is waiting), and the next event.
        // Everything here reads and writes one CPU's core and queue.
        Cycles next = kNever;
        for (std::uint32_t i = 0; i < cpus_.size(); ++i) {
            CpuState &cs = cpus_[i];
            if (cs.pending != Pending::None)
                handlePending(cs);
            const bool has_ready = sched_.hasReady(i);
            if (cs.core->current() &&
                now_ - cs.run_start >= params_.sched_quantum && has_ready) {
                cpu::ProcessContext *p = cs.core->current();
                settle(cs, now_ + 1);
                cs.core->detachCurrent();
                sched_.makeReady(p);
            }

            // Advance time, skipping cycles in which nothing can
            // happen.  Every core re-arms (a no-op unless it ticked); an
            // idle one still drains its write buffer when its event
            // comes.
            const Cycles core_next = cs.core->arm(now_);
            Cycles e;
            if (!cs.core->current()) {
                e = sched_.hasReady(i) ? now_ + 1 : sched_.nextWake(i);
            } else {
                e = core_next;
                if (has_ready) {
                    // A waiting process bounds the skip at the quantum.
                    e = std::min(e, cs.run_start + params_.sched_quantum);
                }
                e = std::min(e, sched_.nextWake(i));
            }
            next = std::min(next, e);
        }

        if (next == kNever) {
            if (!sched_.anyIncomplete()) {
                settleAll(now_ + 1);
                break;
            }
            // Everything quiesced with work outstanding: the cores will
            // make progress next cycle (e.g. freshly scheduled work).
            next = now_ + 1;
        }
        next = std::max(next, now_ + 1);
        if (params_.watchdog_cycles) {
            // Bound the skip at the watchdog horizon: a wake time far
            // beyond the window must not leap over the no-progress
            // check (the retire that precedes a long block would reset
            // the baseline to the post-jump clock).
            next = std::min(
                next, std::max(wd_last_progress_ + params_.watchdog_cycles,
                               now_ + 1));
        }
        now_ = next;
    }
    settleAll(now_);

    if (!stopped_early) {
        for (auto &cs : cpus_)
            cs.node->finalizeStats(now_);

        // End-of-run integrity audit: settle any transactions recorded
        // after the last in-loop audit, then verify the hierarchy can
        // drain.  Skipped on an early stop: the machine is deliberately
        // mid-flight (outstanding MSHRs, running processes), and the
        // occupancy finalization would perturb the state a restored run
        // continues from.
        if (checker_) {
            checker_->auditPending(fabric_, now_);
            verifyQuiesced();
        }
    }

    RunResult r;
    r.cycles = now_ - window_start_;
    for (auto &cs : cpus_) {
        r.instructions += cs.core->stats().instructions;
        r.breakdown += cs.core->breakdown();
    }
    r.ipc = r.cycles
                ? static_cast<double>(r.instructions) /
                      (static_cast<double>(r.cycles) * cpus_.size())
                : 0.0;
    r.epoch_hashes = epoch_hashes_;

    // Accounting-conservation audit (DESIGN.md §5i): with the checker
    // armed (DBSIM_CHECK=1), every complete run must balance its books.
    // Skipped on an early stop -- a mid-flight machine legitimately has
    // partially accounted cycles.
    if (checker_ && !stopped_early) {
        const std::vector<std::string> bad = conservationViolations(*this, r);
        if (!bad.empty()) {
            std::string joined;
            for (const std::string &s : bad) {
                if (!joined.empty())
                    joined += "; ";
                joined += s;
            }
            DBSIM_PANIC("accounting conservation audit failed: ", joined);
        }
    }
    return r;
}

} // namespace dbsim::sim
