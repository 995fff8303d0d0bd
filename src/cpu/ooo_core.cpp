#include "cpu/ooo_core.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"

namespace dbsim::cpu {

using trace::OpClass;

Core::Core(CpuId id, const CoreParams &params, CoreMemIf *mem,
           CoreEnvIf *env)
    : id_(id), params_(params), mem_(mem), env_(env),
      policy_(params.model, params.cons), bpred_(params.bp), fu_(params.fu)
{
    if (params_.issue_width == 0 || params_.window_size == 0)
        DBSIM_FATAL("issue width and window size must be nonzero");
    if (!params_.out_of_order) {
        // The in-order pipeline's "window" is just a small fetch buffer;
        // issue order is enforced in issueStage.
        params_.window_size =
            std::max<std::uint32_t>(8, 2 * params_.issue_width);
    }
}

void
Core::switchTo(ProcessContext *proc, Cycles now, bool charge_switch)
{
    DBSIM_ASSERT(window_.empty(), "switchTo with non-empty window");
    DBSIM_ASSERT(proc_ == nullptr, "switchTo without detach");
    proc_ = proc;
    proc_->state = ProcState::Running;
    pending_.reset();
    fetch_line_ = kNoAddr;
    fetch_pending_line_ = kNoAddr;
    fetch_ready_at_ = 0;
    fetch_itlb_miss_ = false;
    unresolved_branch_seq_ = kNoSeq;
    fetch_resume_at_ = 0;
    syscall_fetch_block_ = false;
    done_notified_ = false;
    head_seq_ = next_seq_;
    unresolved_branches_ = 0;
    if (charge_switch) {
        run_resume_at_ = now + params_.context_switch_cost;
        ++stats_.context_switches;
    } else {
        run_resume_at_ = now;
    }
    wake(WakeReason::Dispatch);
}

void
Core::detachCurrent()
{
    if (!proc_)
        return;
    if (pending_) {
        proc_->unfetch(*pending_);
        pending_.reset();
    }
    for (auto it = window_.rbegin(); it != window_.rend(); ++it)
        proc_->unfetch(it->rec);
    window_.clear();
    head_seq_ = next_seq_;
    unresolved_branches_ = 0;
    unresolved_branch_seq_ = kNoSeq;
    syscall_fetch_block_ = false;
    fetch_line_ = kNoAddr;
    fetch_pending_line_ = kNoAddr;
    if (proc_->state == ProcState::Running)
        proc_->state = ProcState::Ready;
    proc_ = nullptr;
    wake(WakeReason::Dispatch);
}

void
Core::resetStats()
{
    breakdown_.reset();
    stats_ = CoreStats{};
    bpred_.resetStats();
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

const Core::WindowEntry *
Core::entryFor(std::uint64_t seq) const
{
    if (seq < head_seq_)
        return nullptr;
    const std::uint64_t idx = seq - head_seq_;
    if (idx >= window_.size())
        return nullptr;
    return &window_[static_cast<std::size_t>(idx)];
}

bool
Core::producersReady(const WindowEntry &e) const
{
    for (const std::uint8_t dep : {e.rec.dep1, e.rec.dep2}) {
        if (dep == 0)
            continue;
        if (e.seq < dep)
            continue; // producer predates the trace window
        const std::uint64_t pseq = e.seq - dep;
        const WindowEntry *prod = entryFor(pseq);
        if (prod && !prod->completed)
            return false;
    }
    return true;
}

bool
Core::wbAllPerformed() const
{
    // Flush hints are non-binding and do not order stores or fences.
    for (const auto &w : wb_)
        if (!w.is_flush && !w.performed)
            return false;
    return true;
}

std::uint32_t
Core::memOpsInFlight() const
{
    std::uint32_t n = 0;
    for (const auto &e : window_) {
        if (trace::isMemory(e.rec.op) && e.issued && !e.performed)
            ++n;
    }
    for (const auto &w : wb_)
        if (!w.performed)
            ++n;
    return n;
}

StallCat
Core::readCat(const WindowEntry &e) const
{
    if (e.dtlb_miss && e.mem_issued)
        return StallCat::ReadDtlb;
    if (!e.mem_issued)
        return StallCat::ReadL1; // agen / dependence / port ("misc")
    switch (e.cls) {
      case coher::AccessClass::L1Hit:      return StallCat::ReadL1;
      case coher::AccessClass::L2Hit:      return StallCat::ReadL2;
      case coher::AccessClass::LocalMem:   return StallCat::ReadLocal;
      case coher::AccessClass::RemoteMem:  return StallCat::ReadRemote;
      case coher::AccessClass::RemoteDirty:return StallCat::ReadDirty;
    }
    return StallCat::ReadL1;
}

StallCat
Core::classifyHead() const
{
    if (!proc_)
        return StallCat::Idle;
    if (window_.empty()) {
        if (syscall_fetch_block_ || proc_->state != ProcState::Running)
            return StallCat::Idle;
        if (fetch_pending_line_ != kNoAddr &&
            fetch_line_ != fetch_pending_line_) {
            return fetch_itlb_miss_ ? StallCat::Itlb
                                    : StallCat::Instr;
        }
        if (proc_->exhausted())
            return StallCat::Idle;
        // Fetch bubble: misprediction restart or transient.
        return StallCat::Fu;
    }
    const WindowEntry &e = window_.front();
    switch (e.rec.op) {
      case OpClass::Load:
        return readCat(e);
      case OpClass::Store:
        return StallCat::Write;
      case OpClass::LockAcquire:
      case OpClass::LockRelease:
      case OpClass::MemBarrier:
      case OpClass::WriteBarrier:
        return StallCat::Sync;
      default:
        return StallCat::Fu;
    }
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

bool
Core::canRetire(const WindowEntry &e, Cycles now) const
{
    switch (e.rec.op) {
      case OpClass::Load:
        if (e.speculative)
            return e.complete_at <= now && !e.violated;
        if (policy_.loadBlocksRetire())
            return e.mem_issued && e.performed_at <= now;
        return e.complete_at <= now;
      case OpClass::Store:
        if (policy_.storeBlocksRetire())
            return e.mem_issued && e.performed_at <= now;
        return e.complete_at <= now &&
               wb_.size() < params_.write_buffer_size;
      case OpClass::LockRelease:
        if (policy_.storeBlocksRetire())
            return e.mem_issued && e.performed_at <= now;
        return e.complete_at <= now &&
               wb_.size() < params_.write_buffer_size;
      case OpClass::LockAcquire:
        return e.mem_issued && e.performed_at <= now;
      case OpClass::MemBarrier:
        // The fence orders real stores; pending flush hints do not
        // block it (they are non-binding).
        return e.complete_at <= now && wbAllPerformed();
      case OpClass::Flush:
        return e.complete_at <= now &&
               wb_.size() < params_.write_buffer_size;
      default:
        return e.complete_at <= now;
    }
}

void
Core::doRetireActions(WindowEntry &e, Cycles now)
{
    switch (e.rec.op) {
      case OpClass::Load:
        ++stats_.loads;
        break;
      case OpClass::Store:
        ++stats_.stores;
        if (!policy_.storeBlocksRetire()) {
            wb_.push_back(WbEntry{e.rec.vaddr, e.rec.pc, wmb_epoch_,
                                  /*is_release=*/false});
        }
        break;
      case OpClass::LockRelease:
        env_->lockRelease(e.rec.vaddr, proc_->id());
        if (!policy_.storeBlocksRetire()) {
            wb_.push_back(WbEntry{e.rec.vaddr, e.rec.pc, wmb_epoch_,
                                  /*is_release=*/true});
        }
        break;
      case OpClass::WriteBarrier:
        ++wmb_epoch_;
        break;
      case OpClass::Flush:
        // The flush fires from the write buffer once every earlier
        // store (in particular the critical section's stores and the
        // releasing store) has performed; see writeBufferStage.
        wb_.push_back(WbEntry{e.rec.vaddr, e.rec.pc, wmb_epoch_,
                              /*is_release=*/false, /*is_flush=*/true});
        break;
      case OpClass::SyscallBlock:
        env_->onSyscallBlock(proc_->id(), e.rec.extra);
        break;
      default:
        break;
    }
    ++stats_.instructions;
    ++proc_->retired;
}

void
Core::retireStage(Cycles now)
{
    std::uint32_t retired = 0;
    if (proc_ && now >= run_resume_at_) {
        while (retired < params_.issue_width && !window_.empty()) {
            WindowEntry &e = window_.front();
            if (e.violated && e.speculative) {
                // Speculative-load ordering violation: recover.
                rollbackFrom(0, now);
                break;
            }
            if (!canRetire(e, now))
                break;
            doRetireActions(e, now);
            progress_ = true;
            window_.pop_front();
            ++head_seq_;
            ++retired;
        }
    }

    const double busy =
        static_cast<double>(retired) / params_.issue_width;
    breakdown_.add(StallCat::Busy, busy);
    if (retired < params_.issue_width) {
        StallCat cat;
        if (proc_ && now < run_resume_at_)
            cat = StallCat::Idle; // context-switch overhead
        else
            cat = classifyHead();
        breakdown_.add(cat, 1.0 - busy);
    }
}

// ---------------------------------------------------------------------
// Complete / rollback
// ---------------------------------------------------------------------

void
Core::completeStage(Cycles now)
{
    for (auto &e : window_) {
        if (e.issued && !e.completed && e.complete_at <= now) {
            e.completed = true;
            progress_ = true;
            if (trace::isBranch(e.rec.op)) {
                DBSIM_ASSERT(unresolved_branches_ > 0,
                             "branch accounting underflow");
                --unresolved_branches_;
                if (e.seq == unresolved_branch_seq_) {
                    unresolved_branch_seq_ = kNoSeq;
                    fetch_resume_at_ = now + params_.mispredict_restart;
                }
            }
        }
    }
}

void
Core::rollbackFrom(std::size_t idx, Cycles now)
{
    ++stats_.spec_load_violations;
    for (std::size_t i = idx; i < window_.size(); ++i) {
        WindowEntry &e = window_[i];
        if (e.completed && trace::isBranch(e.rec.op))
            ++unresolved_branches_; // will re-resolve on replay
        e.issued = false;
        e.completed = false;
        e.complete_at = kNever;
        e.addr_ready_at = kNever;
        e.mem_issued = false;
        e.performed = false;
        e.performed_at = kNever;
        e.speculative = false;
        e.violated = false;
        e.spin_retry_at = 0;
        e.spin_start = kNever;
        // e.predicted stays true: the predictor was already trained and
        // the fetch-redirect cost was already paid on the first pass.
    }
    issue_block_until_ = now + params_.rollback_penalty;
}

void
Core::onLineInvalidated(Addr pblock)
{
    if (params_.mutator &&
        params_.mutator->armed(verify::ProtocolBug::SkippedSpecSquash)) {
        // Seeded bug: the invalidation does not flag speculative loads,
        // so a consistency-violating early value can commit.
        return;
    }
    for (auto &e : window_) {
        if (e.speculative && e.mem_issued && !e.violated &&
            e.pblock == pblock) {
            e.violated = true;
            wake(WakeReason::Poke);
        }
    }
}

// ---------------------------------------------------------------------
// Memory issue
// ---------------------------------------------------------------------

void
Core::attemptLockAcquire(WindowEntry &e, Cycles now)
{
    if (now < e.spin_retry_at)
        return;
    if (env_->lockIsFree(e.rec.vaddr, proc_->id())) {
        Cycles retry = now + 1;
        auto r = mem_->dataAccess(e.rec.vaddr, e.rec.pc, /*is_write=*/true,
                                  now, /*prefetch=*/false, &retry);
        if (!r) {
            mem_retry_at_ = std::min(mem_retry_at_, retry);
            return;
        }
        if (env_->lockTryAcquire(e.rec.vaddr, proc_->id())) {
            e.mem_issued = true;
            progress_ = true;
            e.performed_at = r->ready;
            e.complete_at = r->ready;
            e.cls = r->cls;
            e.dtlb_miss = r->dtlb_miss;
            e.pblock = r->pblock;
            return;
        }
        // Lost the race (failed store-conditional); fall through to spin.
    } else {
        // Spin read keeps the lock line warm / re-fetches it after an
        // invalidation by the releasing processor.
        (void)mem_->dataAccess(e.rec.vaddr, e.rec.pc, /*is_write=*/false,
                               now, /*prefetch=*/true);
    }
    ++stats_.lock_spin_retries;
    if (e.spin_start == kNever)
        e.spin_start = now;
    e.spin_retry_at = now + params_.spin_retry_interval;
    if (now - e.spin_start >= params_.spin_yield_threshold) {
        ++stats_.lock_yields;
        e.spin_start = kNever;
        env_->onLockYield(proc_->id());
    }
}

void
Core::attemptMemIssue(WindowEntry &e, Cycles now, bool loads_done,
                      bool stores_done, bool fence_before)
{
    const OpClass op = e.rec.op;

    // Non-binding hints fire immediately once the address is known.
    if (op == OpClass::Prefetch || op == OpClass::PrefetchExcl) {
        (void)mem_->dataAccess(e.rec.vaddr, e.rec.pc,
                               op == OpClass::PrefetchExcl, now,
                               /*prefetch=*/true);
        e.mem_issued = true;
        e.complete_at = now;
        e.performed_at = now;
        return;
    }

    if (op == OpClass::LockAcquire) {
        const bool allowed =
            !fence_before && policy_.storeMayIssue(loads_done, stores_done);
        if (allowed)
            attemptLockAcquire(e, now);
        return;
    }

    if (op == OpClass::Load) {
        const bool allowed =
            !fence_before && policy_.loadMayIssue(loads_done, stores_done);
        if (allowed || policy_.speculativeLoads()) {
            Cycles retry = now + 1;
            auto r = mem_->dataAccess(e.rec.vaddr, e.rec.pc,
                                      /*is_write=*/false, now,
                                      /*prefetch=*/false, &retry);
            if (!r) {
                mem_retry_at_ = std::min(mem_retry_at_, retry);
                return;
            }
            e.mem_issued = true;
            progress_ = true;
            e.performed_at = r->ready;
            e.complete_at = r->ready; // value consumable on arrival
            e.cls = r->cls;
            e.dtlb_miss = r->dtlb_miss;
            e.pblock = r->pblock;
            e.speculative = !allowed;
            return;
        }
        if (policy_.prefetchBlocked() && !e.prefetched) {
            (void)mem_->dataAccess(e.rec.vaddr, e.rec.pc,
                                   /*is_write=*/false, now,
                                   /*prefetch=*/true);
            e.prefetched = true;
        }
        return;
    }

    // Stores and lock releases reach here only under SC (elsewhere they
    // perform from the write buffer after retiring).
    if (op == OpClass::Store || op == OpClass::LockRelease) {
        const bool allowed =
            !fence_before && policy_.storeMayIssue(loads_done, stores_done);
        if (allowed) {
            Cycles retry = now + 1;
            auto r = mem_->dataAccess(e.rec.vaddr, e.rec.pc,
                                      /*is_write=*/true, now,
                                      /*prefetch=*/false, &retry);
            if (!r) {
                mem_retry_at_ = std::min(mem_retry_at_, retry);
                return;
            }
            e.mem_issued = true;
            progress_ = true;
            e.performed_at = r->ready;
            e.cls = r->cls;
            e.dtlb_miss = r->dtlb_miss;
            e.pblock = r->pblock;
            return;
        }
        if (policy_.prefetchBlocked() && !e.prefetched) {
            (void)mem_->dataAccess(e.rec.vaddr, e.rec.pc,
                                   /*is_write=*/true, now,
                                   /*prefetch=*/true);
            e.prefetched = true;
        }
        return;
    }
}

void
Core::memoryStage(Cycles now)
{
    bool loads_done = true;
    bool stores_done = wbAllPerformed();
    bool fence_before = false;

    for (auto &e : window_) {
        const OpClass op = e.rec.op;

        if (trace::isMemory(op) && e.issued && !e.mem_issued &&
            e.addr_ready_at <= now) {
            const bool sc_store_path =
                policy_.storeBlocksRetire() || !trace::isStore(op) ||
                op == OpClass::LockAcquire;
            if (op == OpClass::Load || op == OpClass::LockAcquire ||
                op == OpClass::Prefetch || op == OpClass::PrefetchExcl ||
                (trace::isStore(op) && sc_store_path)) {
                attemptMemIssue(e, now, loads_done, stores_done,
                                fence_before);
            }
            // Store prefetch-exclusive for write-buffered models.
            if (trace::isStore(op) && !policy_.storeBlocksRetire() &&
                policy_.prefetchBlocked() && !e.prefetched &&
                op != OpClass::LockAcquire) {
                (void)mem_->dataAccess(e.rec.vaddr, e.rec.pc,
                                       /*is_write=*/true, now,
                                       /*prefetch=*/true);
                e.prefetched = true;
            }
        }

        // Update performed bookkeeping.
        if (e.mem_issued && !e.performed && e.performed_at <= now)
            e.performed = true;

        // Update ordering prefix for younger operations.  Speculative
        // loads do not count as performed until they commit.
        if (op == OpClass::MemBarrier) {
            // An MB orders younger operations until it retires (and it
            // retires only once the write buffer drains).
            fence_before = true;
        }
        if (op == OpClass::Load) {
            loads_done &= !e.speculative && e.mem_issued &&
                          e.performed_at <= now;
        } else if (op == OpClass::LockAcquire) {
            const bool done = e.mem_issued && e.performed_at <= now;
            loads_done &= done;
            stores_done &= done;
        } else if (op == OpClass::Store || op == OpClass::LockRelease) {
            if (policy_.storeBlocksRetire()) {
                stores_done &= e.mem_issued && e.performed_at <= now;
            } else {
                // Write-buffered store: it has not yet performed while in
                // the window.
                stores_done = false;
            }
        }
    }
}

void
Core::writeBufferStage(Cycles now)
{
    for (auto &w : wb_) {
        if (w.issued && !w.performed && w.performed_at <= now)
            w.performed = true;
    }
    while (!wb_.empty() && wb_.front().performed) {
        wb_.pop_front();
        progress_ = true;
    }

    // Issue eligible stores.  Entries are FIFO with nondecreasing WMB
    // epochs.  PC additionally serializes stores one at a time.
    bool earlier_unperformed = false;
    std::uint32_t earlier_unperformed_epoch = 0;
    for (auto &w : wb_) {
        if (w.issued) {
            if (!w.performed) {
                if (!earlier_unperformed) {
                    earlier_unperformed = true;
                    earlier_unperformed_epoch = w.epoch;
                }
            }
            continue;
        }
        if (w.is_flush) {
            // A flush pushes one line's final value home, so it only
            // needs the earlier stores *to that line* performed; it
            // neither blocks nor is blocked by unrelated stores.
            bool line_pending = false;
            for (const auto &prior : wb_) {
                if (&prior == &w)
                    break;
                if (!prior.is_flush && !prior.performed &&
                    blockAlign(prior.vaddr, 64) ==
                        blockAlign(w.vaddr, 64)) {
                    line_pending = true;
                    break;
                }
            }
            if (line_pending)
                continue;
            mem_->flushHint(w.vaddr, now);
            w.issued = true;
            w.performed = true;
            w.performed_at = now;
            progress_ = true;
            continue;
        }
        if (policy_.model() == ConsistencyModel::PC && earlier_unperformed)
            break; // one outstanding store at a time
        if (earlier_unperformed && earlier_unperformed_epoch < w.epoch &&
            !(params_.mutator &&
              params_.mutator->armed(verify::ProtocolBug::ReorderedRelease)))
            break; // WMB ordering: earlier epoch still in flight
        Cycles retry = now + 1;
        auto r = mem_->dataAccess(w.vaddr, w.pc, /*is_write=*/true, now,
                                  /*prefetch=*/false, &retry);
        if (!r) {
            mem_retry_at_ = std::min(mem_retry_at_, retry);
            break;
        }
        w.issued = true;
        progress_ = true;
        w.performed_at = r->ready;
        if (!earlier_unperformed) {
            earlier_unperformed = true;
            earlier_unperformed_epoch = w.epoch;
        }
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

void
Core::issueStage(Cycles now)
{
    if (!proc_ || now < run_resume_at_ || now < issue_block_until_)
        return;

    const std::uint32_t mem_in_flight = memOpsInFlight();
    std::uint32_t mem_budget =
        params_.mem_queue_size > mem_in_flight
            ? params_.mem_queue_size - mem_in_flight : 0;
    // A full memory queue must never gate the oldest unperformed memory
    // op.  Younger entries can occupy every queue slot while the
    // consistency model forbids them from performing before this op
    // does (SC orders loads and stores behind an older unissued store),
    // and gating the head then wedges the whole window: the slots never
    // drain because their release is ordered behind the very op the
    // full queue is blocking.  Grant the program-order head a reserved
    // drain slot so the queue always empties oldest-first.
    bool mem_drain_reserve = wbAllPerformed();

    std::uint32_t issued = 0;
    for (auto &e : window_) {
        if (issued >= params_.issue_width)
            break;
        const bool is_mem = trace::isMemory(e.rec.op);
        if (e.issued) {
            // Already-issued instructions (including in-flight loads)
            // are skipped: both pipelines overlap execution behind them
            // until a dependent instruction reaches issue.
            if (is_mem && !e.performed)
                mem_drain_reserve = false;
            continue;
        }
        bool exempt = false;
        if (is_mem) {
            // Only the oldest unperformed memory op gets the reserved
            // slot, and only once per cycle: anything younger must wait
            // for real queue space.
            exempt = mem_drain_reserve;
            mem_drain_reserve = false;
        }
        bool ready = producersReady(e);
        if (ready && is_mem && mem_budget == 0 && !exempt)
            ready = false;
        if (!ready) {
            if (!params_.out_of_order)
                break; // stall at the first non-ready instruction
            continue;
        }
        if (!fu_.tryIssue(e.rec.op, now)) {
            if (!params_.out_of_order)
                break;
            continue;
        }
        e.issued = true;
        progress_ = true;
        const Cycles lat = fu_.latency(e.rec.op);
        if (is_mem) {
            e.addr_ready_at = now + lat; // address generation
            e.complete_at = trace::isStore(e.rec.op) &&
                                    e.rec.op != OpClass::LockAcquire &&
                                    !policy_.storeBlocksRetire()
                                ? now + lat
                                : kNever; // set when the access returns
            if (trace::isHint(e.rec.op))
                e.complete_at = kNever; // set when the hint fires
            if (e.rec.op == OpClass::Flush)
                e.complete_at = now + lat; // fires later, from the wb
            if (mem_budget > 0)
                --mem_budget; // an exempt head may issue at zero budget
        } else {
            e.complete_at = now + lat;
        }
        ++issued;
    }
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
Core::dispatch(const trace::TraceRecord &rec, Cycles now)
{
    WindowEntry e;
    e.rec = rec;
    e.seq = next_seq_++;

    if (trace::isBranch(rec.op)) {
        ++unresolved_branches_;
        const bool correct = bpred_.predict(rec);
        e.predicted = true;
        e.mispredicted = !correct;
        if (!correct)
            unresolved_branch_seq_ = e.seq;
    }
    window_.push_back(e);
}

void
Core::fetchStage(Cycles now)
{
    if (!proc_ || now < run_resume_at_ || syscall_fetch_block_)
        return;
    if (unresolved_branch_seq_ != kNoSeq || now < fetch_resume_at_)
        return;

    std::uint32_t fetched = 0;
    Addr first_line = kNoAddr;
    while (fetched < params_.issue_width) {
        if (window_.size() >= params_.window_size)
            break;
        if (unresolved_branches_ >= params_.max_spec_branches)
            break;
        if (!pending_) {
            trace::TraceRecord r;
            if (!proc_->fetchNext(r)) {
                if (window_.empty() && !done_notified_) {
                    done_notified_ = true;
                    env_->onProcessDone(proc_->id());
                }
                break;
            }
            pending_ = r;
        }

        const Addr line = blockAlign(pending_->pc, params_.fetch_line_bytes);
        if (line != fetch_line_) {
            if (fetch_pending_line_ == line) {
                if (now < fetch_ready_at_)
                    break; // line still in flight
                fetch_line_ = line;
            } else {
                const FetchResult fr = mem_->instrFetch(pending_->pc, now);
                fetch_pending_line_ = line;
                fetch_ready_at_ = fr.ready;
                fetch_itlb_miss_ = fr.itlb_miss;
                if (fr.ready > now)
                    break;
                fetch_line_ = line;
            }
        }
        if (first_line == kNoAddr)
            first_line = line;
        else if (line != first_line)
            break; // one fetch block per cycle

        const trace::TraceRecord rec = *pending_;
        pending_.reset();
        dispatch(rec, now);
        progress_ = true;
        ++fetched;

        if (rec.op == OpClass::SyscallBlock) {
            syscall_fetch_block_ = true;
            break;
        }
        if (unresolved_branch_seq_ != kNoSeq)
            break; // mispredicted branch: stall until resolution
    }
}

// ---------------------------------------------------------------------
// Tick / skip
// ---------------------------------------------------------------------

void
Core::tick(Cycles now)
{
    mem_retry_at_ = kNever;
    progress_ = false;
    armed_ = false;
    kick_ = false;
    ++stats_.run_cycles;
    completeStage(now);
    retireStage(now);
    memoryStage(now);
    writeBufferStage(now);
    issueStage(now);
    fetchStage(now);
}

void
Core::accountStall(Cycles from, Cycles to)
{
    if (to <= from)
        return;
    const double dt = static_cast<double>(to - from);
    StallCat cat;
    if (proc_ && from < run_resume_at_)
        cat = StallCat::Idle;
    else
        cat = classifyHead();
    breakdown_.add(cat, dt);
    stats_.run_cycles += to - from;
}

std::string
Core::debugString() const
{
    char buf[256];
    const char *head_op = "-";
    char head_state[64] = "-";
    if (!window_.empty()) {
        const auto &e = window_.front();
        head_op = trace::opClassName(e.rec.op);
        std::snprintf(head_state, sizeof(head_state),
                      "iss=%d cmp=%d mi=%d perf@%lld spec=%d",
                      e.issued, e.completed, e.mem_issued,
                      e.performed_at == kNever
                          ? -1LL
                          : static_cast<long long>(e.performed_at),
                      e.speculative);
    }
    std::snprintf(buf, sizeof(buf),
                  "win=%zu wb=%zu head=%s[%s] ubr=%u ubseq=%lld fline=%llx "
                  "fpend=%llx fready=%llu sysblk=%d pend=%d",
                  window_.size(), wb_.size(), head_op, head_state,
                  unresolved_branches_,
                  unresolved_branch_seq_ == kNoSeq
                      ? -1LL
                      : static_cast<long long>(unresolved_branch_seq_),
                  static_cast<unsigned long long>(fetch_line_),
                  static_cast<unsigned long long>(fetch_pending_line_),
                  static_cast<unsigned long long>(fetch_ready_at_),
                  syscall_fetch_block_, pending_.has_value());
    return buf;
}

Cycles
Core::nextEvent(Cycles now) const
{
    bool overdue = false;
    return scanNextEvent(now, &overdue);
}

Cycles
Core::arm(Cycles now)
{
    if (armed_)
        return next_event_;
    bool overdue = false;
    next_event_ = scanNextEvent(now, &overdue);
    wake_at_ = next_event_;
    wake_reason_ = WakeReason::Event;
    // Work the next tick does that nextEvent() does not announce: a
    // refused access retries at every tick, and a hint that fired after
    // completeStage completes at the next one.  Either way the core is
    // due at the next iteration, whenever the run loop places it.
    if (wake_at_ > now + 1 && (mem_retry_at_ != kNever || overdue)) {
        wake_at_ = now + 1;
        wake_reason_ = mem_retry_at_ != kNever ? WakeReason::Retry
                                               : WakeReason::Hint;
    }
    armed_ = true;
    return next_event_;
}

void
Core::wake(WakeReason why)
{
    kick_ = true;
    kick_reason_ = why;
}

const char *
wakeReasonName(WakeReason r)
{
    switch (r) {
      case WakeReason::Event:    return "event";
      case WakeReason::Retry:    return "retry";
      case WakeReason::Hint:     return "hint";
      case WakeReason::Poke:     return "poke";
      case WakeReason::Dispatch: return "dispatch";
      case WakeReason::Start:    return "start";
    }
    return "?";
}

Cycles
Core::scanNextEvent(Cycles now, bool *overdue) const
{
    Cycles next = kNever;
    auto consider = [&next, now](Cycles t) {
        if (t > now && t < next)
            next = t;
    };

    // If this tick dispatched, issued, retired, or performed anything,
    // the next cycle may enable more work.
    if (progress_)
        consider(now + 1);
    consider(mem_retry_at_);

    for (const auto &e : window_) {
        if (!e.issued) {
            // Ready-to-issue work exists: the next tick can issue it.
            if (producersReady(e))
                consider(now + 1);
            continue;
        }
        if (!e.completed) {
            consider(e.complete_at);
            if (e.complete_at <= now)
                *overdue = true;
        }
        if (e.issued && trace::isMemory(e.rec.op)) {
            if (!e.mem_issued) {
                consider(e.addr_ready_at);
                if (e.rec.op == OpClass::LockAcquire &&
                    e.addr_ready_at <= now) {
                    consider(e.spin_retry_at);
                }
            } else if (!e.performed) {
                consider(e.performed_at);
            }
        }
    }
    for (const auto &w : wb_) {
        if (w.issued && !w.performed)
            consider(w.performed_at);
        else if (!w.issued)
            consider(now + 1);
    }
    if (proc_) {
        consider(run_resume_at_);
        consider(fetch_resume_at_);
        consider(issue_block_until_);
        if (fetch_pending_line_ != kNoAddr &&
            fetch_line_ != fetch_pending_line_) {
            consider(fetch_ready_at_);
        }
    }
    return next;
}

namespace {

/// Serialized "core is idle" process id (ProcId is never this large).
constexpr ProcId kNoProcId = ~ProcId{0};

} // namespace

void
Core::saveState(snap::Writer &w) const
{
    w.u32(proc_ ? proc_->id() : kNoProcId);
    w.boolean(pending_.has_value());
    if (pending_)
        saveRecord(w, *pending_);
    w.u64(fetch_line_);
    w.u64(fetch_pending_line_);
    w.u64(fetch_ready_at_);
    w.boolean(fetch_itlb_miss_);
    w.u64(unresolved_branch_seq_);
    w.u64(fetch_resume_at_);
    w.boolean(syscall_fetch_block_);
    w.u64(run_resume_at_);
    w.boolean(done_notified_);

    w.u64(window_.size());
    for (const WindowEntry &e : window_) {
        saveRecord(w, e.rec);
        w.u64(e.seq);
        w.boolean(e.issued);
        w.boolean(e.completed);
        w.u64(e.complete_at);
        w.u64(e.addr_ready_at);
        w.boolean(e.mem_issued);
        w.boolean(e.performed);
        w.u64(e.performed_at);
        w.u8(static_cast<std::uint8_t>(e.cls));
        w.boolean(e.dtlb_miss);
        w.u64(e.pblock);
        w.boolean(e.speculative);
        w.boolean(e.violated);
        w.boolean(e.prefetched);
        w.boolean(e.predicted);
        w.boolean(e.mispredicted);
        w.u64(e.spin_retry_at);
        w.u64(e.spin_start);
    }
    w.u64(head_seq_);
    w.u64(next_seq_);
    w.u32(unresolved_branches_);
    w.u64(issue_block_until_);
    w.u64(mem_retry_at_);
    w.boolean(progress_);

    w.u64(wb_.size());
    for (const WbEntry &e : wb_) {
        w.u64(e.vaddr);
        w.u64(e.pc);
        w.u32(e.epoch);
        w.boolean(e.is_release);
        w.boolean(e.is_flush);
        w.boolean(e.issued);
        w.boolean(e.performed);
        w.u64(e.performed_at);
    }
    w.u32(wmb_epoch_);

    breakdown_.saveState(w);
    w.u64(stats_.instructions);
    w.u64(stats_.loads);
    w.u64(stats_.stores);
    w.u64(stats_.spec_load_violations);
    w.u64(stats_.lock_yields);
    w.u64(stats_.lock_spin_retries);
    w.u64(stats_.context_switches);
    w.u64(stats_.run_cycles);
    bpred_.saveState(w);
    fu_.saveState(w);
}

void
Core::restoreState(snap::Reader &r,
                   const std::function<ProcessContext *(ProcId)> &resolve)
{
    const ProcId pid = r.u32();
    proc_ = pid == kNoProcId ? nullptr : resolve(pid);
    if (pid != kNoProcId && proc_ == nullptr)
        throw snap::SnapshotError("snapshot: unresolvable running process");
    pending_.reset();
    if (r.boolean())
        pending_ = trace::loadRecord(r);
    fetch_line_ = r.u64();
    fetch_pending_line_ = r.u64();
    fetch_ready_at_ = r.u64();
    fetch_itlb_miss_ = r.boolean();
    unresolved_branch_seq_ = r.u64();
    fetch_resume_at_ = r.u64();
    syscall_fetch_block_ = r.boolean();
    run_resume_at_ = r.u64();
    done_notified_ = r.boolean();

    window_.clear();
    const std::size_t nw = r.length(28);
    for (std::size_t i = 0; i < nw; ++i) {
        WindowEntry e;
        e.rec = trace::loadRecord(r);
        e.seq = r.u64();
        e.issued = r.boolean();
        e.completed = r.boolean();
        e.complete_at = r.u64();
        e.addr_ready_at = r.u64();
        e.mem_issued = r.boolean();
        e.performed = r.boolean();
        e.performed_at = r.u64();
        e.cls = static_cast<coher::AccessClass>(r.u8());
        e.dtlb_miss = r.boolean();
        e.pblock = r.u64();
        e.speculative = r.boolean();
        e.violated = r.boolean();
        e.prefetched = r.boolean();
        e.predicted = r.boolean();
        e.mispredicted = r.boolean();
        e.spin_retry_at = r.u64();
        e.spin_start = r.u64();
        window_.push_back(e);
    }
    head_seq_ = r.u64();
    next_seq_ = r.u64();
    unresolved_branches_ = r.u32();
    issue_block_until_ = r.u64();
    mem_retry_at_ = r.u64();
    progress_ = r.boolean();

    wb_.clear();
    const std::size_t nwb = r.length(29);
    for (std::size_t i = 0; i < nwb; ++i) {
        WbEntry e{};
        e.vaddr = r.u64();
        e.pc = r.u64();
        e.epoch = r.u32();
        e.is_release = r.boolean();
        e.is_flush = r.boolean();
        e.issued = r.boolean();
        e.performed = r.boolean();
        e.performed_at = r.u64();
        wb_.push_back(e);
    }
    wmb_epoch_ = r.u32();

    armed_ = false;
    wake(WakeReason::Start);

    breakdown_.restoreState(r);
    stats_.instructions = r.u64();
    stats_.loads = r.u64();
    stats_.stores = r.u64();
    stats_.spec_load_violations = r.u64();
    stats_.lock_yields = r.u64();
    stats_.lock_spin_retries = r.u64();
    stats_.context_switches = r.u64();
    stats_.run_cycles = r.u64();
    bpred_.restoreState(r);
    fu_.restoreState(r);
}

} // namespace dbsim::cpu
