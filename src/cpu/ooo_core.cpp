#include "cpu/ooo_core.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

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
Core::allocateWindow()
{
    // On first use rather than in the constructor, which keeps building
    // a machine cheap.  Dispatch and restore assign each entry before it
    // is read.
    if (window_)
        return;
    // Whole 64-slot words keep the slot sets simple.
    const std::size_t slots =
        std::max<std::size_t>(64, std::bit_ceil(params_.window_size));
    window_ = std::make_unique_for_overwrite<WindowEntry[]>(slots);
    slot_mask_ = slots - 1;
    ready_.resize(slots);
    mem_pending_.resize(slots);
    wheel_.assign(kWheelSlots, kNoLink);
    wheel_busy_.resize(kWheelSlots);
}

void
Core::switchTo(ProcessContext *proc, Cycles now, bool charge_switch)
{
    DBSIM_ASSERT(windowSize() == 0, "switchTo with non-empty window");
    DBSIM_ASSERT(proc_ == nullptr, "switchTo without detach");
    allocateWindow();
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
    for (std::uint64_t seq = next_seq_; seq-- > head_seq_;)
        proc_->unfetch(entry(seq).rec);
    head_seq_ = next_seq_;
    rebuildDerived();
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

void
Core::setCompleteAt(WindowEntry &e, Cycles at)
{
    e.complete_at = at;
    if (at == kNever)
        return;
    const auto slot = static_cast<std::uint32_t>(slotOf(e.seq));
    if (at < wheel_lo_) {
        // A hint that fired after completeStage: the next tick
        // completes it.
        e.next_done = overdue_;
        overdue_ = slot;
    } else if (at - wheel_lo_ < kWheelSlots) {
        const std::size_t b = at & (kWheelSlots - 1);
        e.next_done = wheel_[b];
        wheel_[b] = slot;
        wheel_busy_.set(b);
    } else {
        far_.push_back(Completion{at, e.seq});
        std::push_heap(far_.begin(), far_.end(), laterFirst);
    }
}

void
Core::linkProducers(WindowEntry &e)
{
    e.waiting = 0;
    const std::uint8_t deps[2] = {e.rec.dep1, e.rec.dep2};
    for (std::uint32_t k = 0; k < 2; ++k) {
        if (deps[k] == 0 || e.seq < deps[k])
            continue; // producer predates the trace window
        const std::uint64_t pseq = e.seq - deps[k];
        if (pseq < head_seq_)
            continue; // retired (or fetched before a switch)
        WindowEntry &prod = entry(pseq);
        if (prod.completed)
            continue;
        e.next_consumer[k] = prod.first_consumer;
        prod.first_consumer =
            static_cast<std::uint32_t>(slotOf(e.seq) * 2 + k);
        ++e.waiting;
    }
    if (e.waiting == 0 && !e.issued)
        ready_.set(slotOf(e.seq));
}

void
Core::releaseConsumers(WindowEntry &e)
{
    for (std::uint32_t link = e.first_consumer; link != kNoLink;) {
        WindowEntry &c = window_[link >> 1];
        link = c.next_consumer[link & 1];
        if (--c.waiting == 0)
            ready_.set(slotOf(c.seq));
    }
    e.first_consumer = kNoLink;
}

void
Core::pushWb(const WbEntry &w)
{
    wb_.push_back(w);
    ++mem_in_flight_;
    ++wb_unissued_;
    wb_gate_ = 0;
    if (!w.is_flush && wb_stores_unperformed_++ == 0)
        mem_gate_ = 0; // wbAllPerformed() flips: stores_done changes
}

void
Core::markWbPerformed(WbEntry &w)
{
    w.performed = true;
    --mem_in_flight_;
    if (!w.is_flush && --wb_stores_unperformed_ == 0)
        mem_gate_ = 0;
}

void
Core::rebuildDerived()
{
    ready_.clear();
    mem_pending_.clear();
    std::fill(wheel_.begin(), wheel_.end(), kNoLink);
    wheel_busy_.clear();
    overdue_ = kNoLink;
    far_.clear();
    mem_in_flight_ = 0;
    for (std::uint64_t seq = head_seq_; seq < next_seq_; ++seq) {
        WindowEntry &e = entry(seq);
        const bool is_mem = trace::isMemory(e.rec.op);
        if ((is_mem || e.rec.op == OpClass::MemBarrier) && !settled(e))
            mem_pending_.set(slotOf(seq));
        if (is_mem && e.issued && !e.performed)
            ++mem_in_flight_;
        if (e.issued && !e.completed)
            setCompleteAt(e, e.complete_at);
        // Producers are older, so their lists were reset above.
        e.first_consumer = kNoLink;
        linkProducers(e);
    }
    wb_stores_unperformed_ = 0;
    wb_unissued_ = 0;
    for (const WbEntry &w : wb_) {
        if (!w.performed) {
            ++mem_in_flight_;
            if (!w.is_flush)
                ++wb_stores_unperformed_;
        }
        if (!w.issued)
            ++wb_unissued_;
    }
    // Both stages walk at the next tick, and nextEvent walks until then.
    mem_gate_ = mem_next_ = 0;
    wb_gate_ = wb_next_ = 0;
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
    if (windowSize() == 0) {
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
    const WindowEntry &e = entry(head_seq_);
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
            pushWb(WbEntry{e.rec.vaddr, e.rec.pc, wmb_epoch_,
                           /*is_release=*/false});
        }
        break;
      case OpClass::LockRelease:
        env_->lockRelease(e.rec.vaddr, proc_->id());
        if (!policy_.storeBlocksRetire()) {
            pushWb(WbEntry{e.rec.vaddr, e.rec.pc, wmb_epoch_,
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
        pushWb(WbEntry{e.rec.vaddr, e.rec.pc, wmb_epoch_,
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
        while (retired < params_.issue_width && windowSize() != 0) {
            WindowEntry &e = entry(head_seq_);
            if (e.violated && e.speculative) {
                // Speculative-load ordering violation: recover.
                rollback(now);
                break;
            }
            if (!canRetire(e, now))
                break;
            doRetireActions(e, now);
            progress_ = true;
            // An SC store retires without completing: its consumers
            // stop waiting on it now.
            if (!e.completed)
                releaseConsumers(e);
            if (trace::isMemory(e.rec.op) && !e.performed)
                --mem_in_flight_;
            if (mem_pending_.test(slotOf(head_seq_))) {
                // The ordering prefix of the younger ops changes.
                mem_pending_.reset(slotOf(head_seq_));
                mem_gate_ = 0;
            }
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
Core::complete(WindowEntry &e, Cycles now)
{
    e.completed = true;
    progress_ = true;
    releaseConsumers(e);
    if (trace::isBranch(e.rec.op)) {
        DBSIM_ASSERT(unresolved_branches_ > 0, "branch accounting underflow");
        --unresolved_branches_;
        if (e.seq == unresolved_branch_seq_) {
            unresolved_branch_seq_ = kNoSeq;
            fetch_resume_at_ = now + params_.mispredict_restart;
        }
    }
}

void
Core::completeList(std::uint32_t slot, Cycles now)
{
    while (slot != kNoLink) {
        WindowEntry &e = window_[slot];
        slot = e.next_done;
        complete(e, now);
    }
}

void
Core::completeStage(Cycles now)
{
    // Completion side effects commute, so any visiting order serves.
    completeList(std::exchange(overdue_, kNoLink), now);
    if (now == wheel_lo_) {
        // The usual case, a tick at each cycle: one bucket (none yet
        // on a core that has never run).
        const std::size_t b = now & (kWheelSlots - 1);
        if (!wheel_.empty() && wheel_[b] != kNoLink) {
            wheel_busy_.reset(b);
            completeList(std::exchange(wheel_[b], kNoLink), now);
        }
        wheel_lo_ = now + 1;
    } else if (now > wheel_lo_) {
        // The buckets of cycles wheel_lo_ .. now, at most one lap.
        const std::size_t start = wheel_lo_ & (kWheelSlots - 1);
        const Cycles due = std::min<Cycles>(now - wheel_lo_, kWheelSlots - 1);
        wheel_busy_.forEachFrom(start, [&](std::size_t b) {
            if (((b - start) & (kWheelSlots - 1)) > due)
                return false;
            wheel_busy_.reset(b);
            completeList(std::exchange(wheel_[b], kNoLink), now);
            return true;
        });
        wheel_lo_ = now + 1;
    }
    // Far completions: the due ones complete, those now within the
    // wheel's span move into it.
    while (!far_.empty() && far_.front().at < wheel_lo_ + kWheelSlots) {
        const Completion c = far_.front();
        std::pop_heap(far_.begin(), far_.end(), laterFirst);
        far_.pop_back();
        if (c.at <= now)
            complete(entry(c.seq), now);
        else
            setCompleteAt(entry(c.seq), c.at);
    }
}

void
Core::rollback(Cycles now)
{
    ++stats_.spec_load_violations;
    for (std::uint64_t seq = head_seq_; seq < next_seq_; ++seq) {
        WindowEntry &e = entry(seq);
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
    rebuildDerived();
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
    mem_pending_.forEachFrom(slotOf(head_seq_), [&](std::size_t slot) {
        WindowEntry &e = window_[slot];
        if (e.speculative && e.mem_issued && !e.violated &&
            e.pblock == pblock) {
            e.violated = true;
            wake(WakeReason::Poke);
        }
        return true;
    });
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
            setCompleteAt(e, r->ready);
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
        setCompleteAt(e, now);
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
            setCompleteAt(e, r->ready); // value consumable on arrival
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
    // Before its gate no pending op can act: none reaches its address,
    // spin-retry or perform time, and the ordering prefix is as the
    // last walk left it.
    if (now < mem_gate_)
        return;
    bool loads_done = true;
    bool stores_done = wbAllPerformed();
    bool fence_before = false;

    // Only memory ops and MBs act or move the ordering prefix, and a
    // settled one (performed, not speculative) does neither: it cannot
    // issue, and it leaves loads_done and stores_done as they are.
    Cycles next = kNever;
    mem_pending_.forEachFrom(slotOf(head_seq_), [&](std::size_t slot) {
        WindowEntry &e = window_[slot];
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
        if (e.mem_issued && !e.performed && e.performed_at <= now) {
            e.performed = true;
            --mem_in_flight_;
        }

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
        if (settled(e))
            mem_pending_.reset(slot);
        else
            next = std::min(next, memActionAfter(e, now));
        return true;
    });
    mem_next_ = next;
    // A refused access retries at the next tick.
    mem_gate_ = mem_retry_at_ != kNever ? now + 1 : next;
}

void
Core::writeBufferStage(Cycles now)
{
    // Before its gate no issued entry performs, and every unissued one
    // waits for an earlier one to perform.
    if (now < wb_gate_)
        return;
    Cycles next = kNever;
    for (auto &w : wb_) {
        if (!w.issued || w.performed)
            continue;
        if (w.performed_at <= now)
            markWbPerformed(w);
        else
            next = std::min(next, w.performed_at);
    }
    while (!wb_.empty() && wb_.front().performed) {
        wb_.pop_front();
        progress_ = true;
    }

    // Issue eligible stores.  Entries are FIFO with nondecreasing WMB
    // epochs.  PC additionally serializes stores one at a time.
    bool earlier_unperformed = false;
    std::uint32_t earlier_unperformed_epoch = 0;
    bool refused = false;
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
            --wb_unissued_;
            markWbPerformed(w);
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
            refused = true;
            break;
        }
        w.issued = true;
        --wb_unissued_;
        progress_ = true;
        w.performed_at = r->ready;
        next = std::min(next, w.performed_at);
        if (!earlier_unperformed) {
            earlier_unperformed = true;
            earlier_unperformed_epoch = w.epoch;
        }
    }
    wb_next_ = next;
    // A refused store retries, and a flush that performed at the front
    // pops, at the next tick.
    wb_gate_ = refused || (!wb_.empty() && wb_.front().performed) ? now + 1
                                                                  : next;
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

void
Core::issueStage(Cycles now)
{
    if (!proc_ || now < run_resume_at_ || now < issue_block_until_ ||
        !ready_.any())
        return; // nothing can issue

    std::uint32_t mem_budget =
        params_.mem_queue_size > mem_in_flight_
            ? params_.mem_queue_size - mem_in_flight_ : 0;
    // A full memory queue must never gate the oldest unperformed memory
    // op.  Younger entries can occupy every queue slot while the
    // consistency model forbids them from performing before this op
    // does (SC orders loads and stores behind an older unissued store),
    // and gating the head then wedges the whole window: the slots never
    // drain because their release is ordered behind the very op the
    // full queue is blocking.  Grant the program-order head a reserved
    // drain slot so the queue always empties oldest-first: the oldest
    // unperformed memory op, if it is still unissued and the write
    // buffer has performed every store.
    std::uint64_t exempt_seq = kNoSeq;
    if (wbAllPerformed()) {
        mem_pending_.forEachFrom(slotOf(head_seq_), [&](std::size_t slot) {
            const WindowEntry &e = window_[slot];
            if (!trace::isMemory(e.rec.op) || e.performed)
                return true;
            if (!e.issued)
                exempt_seq = e.seq;
            return false;
        });
    }

    // Already-issued instructions (including in-flight loads) are
    // skipped: both pipelines overlap execution behind them until a
    // dependent instruction reaches issue.
    std::uint32_t issued = 0;
    if (params_.out_of_order) {
        ready_.forEachFrom(slotOf(head_seq_), [&](std::size_t slot) {
            if (issued >= params_.issue_width)
                return false;
            if (tryIssue(window_[slot], now, mem_budget, exempt_seq))
                ++issued;
            return true;
        });
        return;
    }
    // In order: stall at the first instruction that cannot issue.
    for (std::uint64_t seq = head_seq_;
         seq < next_seq_ && issued < params_.issue_width; ++seq) {
        WindowEntry &e = entry(seq);
        if (e.issued)
            continue;
        if (e.waiting != 0 || !tryIssue(e, now, mem_budget, exempt_seq))
            break;
        ++issued;
    }
}

bool
Core::tryIssue(WindowEntry &e, Cycles now, std::uint32_t &mem_budget,
               std::uint64_t exempt_seq)
{
    const OpClass op = e.rec.op;
    const bool is_mem = trace::isMemory(op);
    // Anything but the exempt head waits for real queue space.
    if (is_mem && mem_budget == 0 && e.seq != exempt_seq)
        return false;
    if (!fu_.tryIssue(op, now))
        return false;
    e.issued = true;
    ready_.reset(slotOf(e.seq));
    progress_ = true;
    const Cycles lat = fu_.latency(op);
    if (is_mem) {
        e.addr_ready_at = now + lat; // address generation
        mem_gate_ = std::min(mem_gate_, e.addr_ready_at);
        mem_next_ = std::min(mem_next_, e.addr_ready_at);
        // Write-buffered stores and flushes complete after address
        // generation (they perform later, from the write buffer); the
        // rest complete when their access returns or the hint fires.
        const bool wb_path = op == OpClass::Flush ||
                             (trace::isStore(op) &&
                              !policy_.storeBlocksRetire());
        setCompleteAt(e, wb_path ? now + lat : kNever);
        ++mem_in_flight_;
        if (mem_budget > 0)
            --mem_budget; // an exempt head may issue at zero budget
    } else {
        setCompleteAt(e, now + lat);
    }
    return true;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
Core::dispatch(const trace::TraceRecord &rec, Cycles now)
{
    WindowEntry &e = entry(next_seq_);
    e = WindowEntry{};
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
    if (trace::isMemory(rec.op) || rec.op == OpClass::MemBarrier)
        mem_pending_.set(slotOf(e.seq));
    linkProducers(e);
}

void
Core::fetchStage(Cycles now)
{
    if (!proc_ || now < run_resume_at_ || syscall_fetch_block_)
        return;
    if (unresolved_branch_seq_ != kNoSeq || now < fetch_resume_at_)
        return;

    // Records are dispatched in place from the process's view.  One
    // leaves the view when it is dispatched, or when the fetch stops on
    // it and it moves to pending_; the consume() calls deliver them.
    std::span<const trace::TraceRecord> ready;
    std::size_t used = 0;
    std::uint32_t fetched = 0;
    Addr first_line = kNoAddr;
    while (fetched < params_.issue_width) {
        if (windowSize() >= params_.window_size)
            break;
        if (unresolved_branches_ >= params_.max_spec_branches)
            break;
        const trace::TraceRecord *rec = pending_ ? &*pending_ : nullptr;
        if (!rec) {
            if (used == ready.size()) {
                proc_->consume(used);
                used = 0;
                ready = proc_->view();
                if (ready.empty()) {
                    if (windowSize() == 0 && !done_notified_) {
                        done_notified_ = true;
                        env_->onProcessDone(proc_->id());
                    }
                    break;
                }
            }
            rec = &ready[used];
        }

        const Addr line = blockAlign(rec->pc, params_.fetch_line_bytes);
        bool stop = false;
        if (line != fetch_line_) {
            if (fetch_pending_line_ == line) {
                stop = now < fetch_ready_at_; // line still in flight
            } else {
                const FetchResult fr = mem_->instrFetch(rec->pc, now);
                fetch_pending_line_ = line;
                fetch_ready_at_ = fr.ready;
                fetch_itlb_miss_ = fr.itlb_miss;
                stop = fr.ready > now;
            }
            if (!stop)
                fetch_line_ = line;
        }
        if (!stop && first_line != kNoAddr && line != first_line)
            stop = true; // one fetch block per cycle
        if (stop) {
            if (!pending_) {
                pending_ = *rec;
                ++used;
            }
            break;
        }
        first_line = line;

        const OpClass op = rec->op;
        dispatch(*rec, now);
        if (pending_)
            pending_.reset();
        else
            ++used;
        progress_ = true;
        ++fetched;

        if (op == OpClass::SyscallBlock) {
            syscall_fetch_block_ = true;
            break;
        }
        if (unresolved_branch_seq_ != kNoSeq)
            break; // mispredicted branch: stall until resolution
    }
    proc_->consume(used);
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
    stats_.run_cycles += to - from;
    // Context-switch overhead up to run_resume_at_, the head's stall
    // after it, as cycle-by-cycle calls would classify them.
    if (proc_ && from < run_resume_at_) {
        const Cycles idle_to = std::min(to, run_resume_at_);
        breakdown_.add(StallCat::Idle, static_cast<double>(idle_to - from));
        from = idle_to;
    }
    if (from < to)
        breakdown_.add(classifyHead(), static_cast<double>(to - from));
}

std::string
Core::debugString() const
{
    char buf[256];
    const char *head_op = "-";
    char head_state[64] = "-";
    if (windowSize() != 0) {
        const WindowEntry &e = entry(head_seq_);
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
                  static_cast<std::size_t>(windowSize()), wb_.size(),
                  head_op, head_state,
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
    return horizon(now, computeWake(now, &overdue));
}

Cycles
Core::rearm(Cycles now)
{
    bool overdue = false;
    wake_at_ = computeWake(now, &overdue);
    next_event_ = horizon(now, wake_at_);
    wake_reason_ = WakeReason::Event;
    // Work the next tick does that its timed events do not announce: a
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
Core::computeWake(Cycles now, bool *overdue) const
{
    // now + 1 is the earliest cycle consider() accepts, so the first
    // candidate equal to it is the answer (and *overdue only matters
    // for a later one).  If this tick dispatched, issued, retired, or
    // performed anything, or ready-to-issue work exists, the next cycle
    // may enable more work.
    if (progress_ || ready_.any())
        return now + 1;
    Cycles next = kNever;
    auto consider = [&next, now](Cycles t) {
        if (t > now && t < next)
            next = t;
    };
    consider(mem_retry_at_);

    // A completion that landed after completeStage (a hint) is overdue.
    // So is one in a bucket at or before now, which only happens when
    // no tick has run since a restore.
    if (overdue_ != kNoLink)
        *overdue = true;
    const std::size_t start = wheel_lo_ & (kWheelSlots - 1);
    wheel_busy_.forEachFrom(start, [&](std::size_t b) {
        const Cycles at = wheel_lo_ + ((b - start) & (kWheelSlots - 1));
        if (at > now) {
            consider(at);
            return false;
        }
        *overdue = true;
        return true;
    });
    if (!far_.empty()) {
        if (far_.front().at > now) {
            consider(far_.front().at);
        } else {
            *overdue = true;
            for (const Completion &c : far_)
                consider(c.at);
        }
    }
    if (next == now + 1)
        return next;

    // The write buffer's and the pending memory ops' timed actions, as
    // their stages' last walks left them; walked only when unknown
    // (after a rollback, detach or restore, until the next tick).
    if (wb_next_ > now) {
        consider(wb_next_);
    } else {
        for (const auto &w : wb_)
            if (w.issued && !w.performed)
                consider(w.performed_at);
    }
    if (mem_next_ > now) {
        consider(mem_next_);
    } else {
        mem_pending_.forEachFrom(slotOf(head_seq_), [&](std::size_t slot) {
            consider(memActionAfter(window_[slot], now));
            return next != now + 1;
        });
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

    w.u64(windowSize());
    for (std::uint64_t seq = head_seq_; seq < next_seq_; ++seq) {
        const WindowEntry &e = entry(seq);
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

    allocateWindow();
    const std::size_t nw = r.length(28);
    if (nw > slot_mask_ + 1)
        throw snap::SnapshotError("snapshot: window larger than the core's");
    std::uint64_t first_seq = 0;
    for (std::size_t i = 0; i < nw; ++i) {
        WindowEntry e;
        e.rec = trace::loadRecord(r);
        e.seq = r.u64();
        if (i == 0)
            first_seq = e.seq;
        else if (e.seq != first_seq + i)
            throw snap::SnapshotError("snapshot: window seqs not contiguous");
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
        entry(e.seq) = e;
    }
    head_seq_ = r.u64();
    next_seq_ = r.u64();
    if (next_seq_ - head_seq_ != nw || (nw != 0 && head_seq_ != first_seq))
        throw snap::SnapshotError("snapshot: window seqs do not match");
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
    // The wheel's position is not saved: from cycle 0 it spans every
    // restored completion, and the next tick catches it up.
    wheel_lo_ = 0;
    rebuildDerived();

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
