#include "sim/scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dbsim::sim {

using cpu::ProcessContext;
using cpu::ProcState;

Scheduler::Scheduler(std::uint32_t num_cpus) : queues_(num_cpus)
{
    if (num_cpus == 0)
        DBSIM_FATAL("scheduler needs at least one CPU");
}

void
Scheduler::addProcess(ProcessContext *proc, CpuId cpu)
{
    DBSIM_ASSERT(cpu < queues_.size(), "bad affinity");
    if (affinity_.size() <= proc->id())
        affinity_.resize(proc->id() + 1, kNoAffinity);
    affinity_[proc->id()] = cpu;
    proc->state = ProcState::Ready;
    queues_[cpu].ready.push_back(proc);
    queues_[cpu].all.push_back(proc);
    ++incomplete_;
}

CpuId
Scheduler::affinityOf(const ProcessContext *proc) const
{
    DBSIM_ASSERT(proc->id() < affinity_.size() &&
                     affinity_[proc->id()] != kNoAffinity,
                 "process ", proc->id(),
                 " was never registered with addProcess");
    return affinity_[proc->id()];
}

void
Scheduler::wake(CpuQueue &q, Cycles now)
{
    while (!q.blocked.empty() && q.blocked.front().wake_at <= now) {
        ProcessContext *p = q.blocked.front().proc;
        std::pop_heap(q.blocked.begin(), q.blocked.end(), WakesLater{});
        q.blocked.pop_back();
        p->state = ProcState::Ready;
        q.ready.push_back(p);
    }
}

ProcessContext *
Scheduler::pickNext(CpuId cpu, Cycles now)
{
    CpuQueue &q = queues_[cpu];
    wake(q, now);
    if (q.ready.empty())
        return nullptr;
    ProcessContext *p = q.ready.front();
    q.ready.pop_front();
    return p;
}

void
Scheduler::makeReady(ProcessContext *proc)
{
    proc->state = ProcState::Ready;
    queues_[affinityOf(proc)].ready.push_back(proc);
}

void
Scheduler::block(ProcessContext *proc, Cycles wake_at)
{
    CpuQueue &q = queues_[affinityOf(proc)];
    proc->state = ProcState::Blocked;
    proc->wake_at = wake_at;
    q.blocked.push_back(BlockedEntry{wake_at, block_seq_++, proc});
    std::push_heap(q.blocked.begin(), q.blocked.end(), WakesLater{});
}

void
Scheduler::finish(ProcessContext *proc)
{
    if (proc->state != ProcState::Done)
        --incomplete_;
    proc->state = ProcState::Done;
}

void
Scheduler::recountIncomplete()
{
    incomplete_ = 0;
    for (const CpuQueue &q : queues_) {
        incomplete_ += static_cast<std::uint32_t>(
            std::count_if(q.all.begin(), q.all.end(),
                          [](const ProcessContext *p) {
                              return p->state != ProcState::Done;
                          }));
    }
}

Cycles
Scheduler::nextWake(CpuId cpu) const
{
    const CpuQueue &q = queues_[cpu];
    return q.blocked.empty() ? kNever : q.blocked.front().wake_at;
}

void
Scheduler::saveState(snap::Writer &w) const
{
    w.u64(block_seq_);
    w.u64(queues_.size());
    for (const CpuQueue &q : queues_) {
        w.u64(q.ready.size());
        for (const cpu::ProcessContext *p : q.ready)
            w.u32(p->id());
        w.u64(q.blocked.size());
        for (const BlockedEntry &e : q.blocked) {
            w.u64(e.wake_at);
            w.u64(e.seq);
            w.u32(e.proc->id());
        }
    }
}

void
Scheduler::restoreState(
    snap::Reader &r,
    const std::function<cpu::ProcessContext *(ProcId)> &resolve)
{
    auto resolved = [&resolve](ProcId id) {
        cpu::ProcessContext *p = resolve(id);
        if (p == nullptr)
            throw snap::SnapshotError("snapshot: unresolvable scheduled "
                                      "process");
        return p;
    };
    block_seq_ = r.u64();
    if (r.length(16) != queues_.size())
        throw snap::SnapshotError("snapshot: CPU count mismatch");
    for (CpuQueue &q : queues_) {
        q.ready.clear();
        const std::size_t nr = r.length(4);
        for (std::size_t i = 0; i < nr; ++i)
            q.ready.push_back(resolved(r.u32()));
        q.blocked.clear();
        const std::size_t nb = r.length(20);
        for (std::size_t i = 0; i < nb; ++i) {
            BlockedEntry e;
            e.wake_at = r.u64();
            e.seq = r.u64();
            e.proc = resolved(r.u32());
            q.blocked.push_back(e);
        }
    }
}

} // namespace dbsim::sim
