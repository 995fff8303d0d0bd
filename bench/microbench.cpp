/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * cache array lookups, MSHR file operations, branch prediction, trace
 * generation, the core pipeline alone, and end-to-end simulated
 * instructions per wall second.
 * These guard the simulator's performance, not the paper's results.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "cpu/branch_predictor.hpp"
#include "cpu/ooo_core.hpp"
#include "memory/cache.hpp"
#include "memory/mshr.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"
#include "workload/dss_engine.hpp"
#include "workload/oltp_engine.hpp"

using namespace dbsim;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheArray cache(512 * 1024, 4, 64);
    Rng rng(7);
    // Pre-fill.
    for (int i = 0; i < 16384; ++i)
        cache.insert(rng.below(1 << 24) * 64, mem::CoherState::Shared);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 24) * 64));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_MshrAllocDrain(benchmark::State &state)
{
    // A 10-cycle miss against 8 registers: most cycles allocate, the
    // rest find the file full and back off.  Like Node, check full()
    // first; allocate() is never called on a full file.
    mem::MshrFile mshr(8);
    Cycles now = 0;
    for (auto _ : state) {
        ++now;
        mshr.drain(now);
        if (!mshr.full())
            mshr.allocate(now * 64, true, now, now + 10);
    }
}
BENCHMARK(BM_MshrAllocDrain);

void
BM_BranchPredict(benchmark::State &state)
{
    cpu::BranchPredictor bp;
    Rng rng(3);
    trace::TraceRecord rec;
    rec.op = trace::OpClass::BranchCond;
    for (auto _ : state) {
        rec.pc = 0x1000 + rng.below(4096) * 4;
        rec.taken = rng.chance(0.7);
        benchmark::DoNotOptimize(bp.predict(rec));
    }
}
BENCHMARK(BM_BranchPredict);

/**
 * The run loop's per-iteration event-skip query with N blocked
 * processes.  Was a linear scan of the blocked list; now the heap root.
 */
void
BM_SchedulerNextWake(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::Scheduler sched(1);
    std::vector<std::unique_ptr<cpu::ProcessContext>> procs;
    for (std::size_t i = 0; i < n; ++i) {
        procs.push_back(std::make_unique<cpu::ProcessContext>(
            static_cast<ProcId>(i), nullptr));
        sched.addProcess(procs.back().get(), 0);
        (void)sched.pickNext(0, 0);
        sched.block(procs.back().get(), 1'000'000 + i);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(sched.nextWake(0));
}
BENCHMARK(BM_SchedulerNextWake)->Arg(8)->Arg(64)->Arg(512);

/**
 * Steady-state block/wake churn with N resident blocked processes:
 * every iteration wakes the earliest process and re-blocks it at the
 * back of the time window.
 */
void
BM_SchedulerBlockWake(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::Scheduler sched(1);
    std::vector<std::unique_ptr<cpu::ProcessContext>> procs;
    for (std::size_t i = 0; i < n; ++i) {
        procs.push_back(std::make_unique<cpu::ProcessContext>(
            static_cast<ProcId>(i), nullptr));
        sched.addProcess(procs.back().get(), 0);
        (void)sched.pickNext(0, 0);
        sched.block(procs.back().get(), static_cast<Cycles>(i) + 1);
    }
    Cycles now = 0;
    for (auto _ : state) {
        ++now;
        cpu::ProcessContext *p = sched.pickNext(0, now);
        if (p)
            sched.block(p, now + static_cast<Cycles>(n));
    }
}
BENCHMARK(BM_SchedulerBlockWake)->Arg(8)->Arg(64)->Arg(512);

/**
 * Reads process 0 of @p wl through its in-place view, as the core's
 * fetch stage does: one record per iteration, each view consumed whole
 * before the next is taken.  A finished stream starts over, so any
 * iteration count is served.
 */
template <typename Workload>
void
consumeViews(benchmark::State &state, const Workload &wl)
{
    std::unique_ptr<trace::TraceSource> src = wl.makeProcess(0);
    std::span<const trace::TraceRecord> v;
    std::size_t used = 0;
    for (auto _ : state) {
        if (used == v.size()) {
            src->consume(used);
            used = 0;
            v = src->view();
            if (v.empty()) {
                src = wl.makeProcess(0);
                v = src->view();
                if (v.empty()) {
                    state.SkipWithError("empty stream");
                    break;
                }
            }
        }
        benchmark::DoNotOptimize(v[used++]);
    }
}

void
BM_OltpTraceGen(benchmark::State &state)
{
    workload::OltpParams p;
    p.num_procs = 1;
    consumeViews(state, workload::OltpWorkload(p));
}
BENCHMARK(BM_OltpTraceGen);

/** One DSS scan process over the whole table. */
void
BM_DssTraceGen(benchmark::State &state)
{
    workload::DssParams p;
    p.num_procs = 1;
    consumeViews(state, workload::DssWorkload(p));
}
BENCHMARK(BM_DssTraceGen);

/** Memory for BM_CoreTick: every data access returns after a fixed
 *  latency, every instruction line after one cycle. */
class FixedLatencyMem : public cpu::CoreMemIf
{
  public:
    static constexpr Cycles kLatency = 3;

    std::optional<cpu::MemAccessResult>
    dataAccess(Addr vaddr, Addr, bool, Cycles now, bool prefetch,
               Cycles *) override
    {
        if (prefetch)
            return std::nullopt;
        return cpu::MemAccessResult{now + kLatency,
                                    coher::AccessClass::L1Hit,
                                    blockAlign(vaddr, 64)};
    }

    cpu::FetchResult
    instrFetch(Addr, Cycles now) override
    {
        return cpu::FetchResult{now + 1};
    }

    void flushHint(Addr, Cycles) override {}
};

/** Locks are always free; only the end of the trace is reported. */
class FreeEnv : public cpu::CoreEnvIf
{
  public:
    bool lockIsFree(Addr, ProcId) const override { return true; }
    bool lockTryAcquire(Addr, ProcId) override { return true; }
    void lockRelease(Addr, ProcId) override {}
    void onSyscallBlock(ProcId, Cycles) override {}
    void onLockYield(ProcId) override {}
    void onProcessDone(ProcId) override { done = true; }

    bool done = false;
};

/** Replays a captured window in place, without copying it. */
class WindowSource : public trace::TraceSource
{
  public:
    explicit WindowSource(const std::vector<trace::TraceRecord> &w) : w_(w)
    {
    }

    bool
    next(trace::TraceRecord &out) override
    {
        if (pos_ >= w_.size())
            return false;
        out = w_[pos_++];
        return true;
    }

    std::span<const trace::TraceRecord>
    view() override
    {
        return std::span<const trace::TraceRecord>(w_).subspan(pos_);
    }

    void consume(std::size_t n) override { pos_ += n; }

  private:
    const std::vector<trace::TraceRecord> &w_;
    std::size_t pos_ = 0;
};

/**
 * The core pipeline without the rest of the machine: one Core of the
 * scaled preset runs the first 100K records of process 0 of the
 * workload (system calls dropped, since nothing would wake the process)
 * over FixedLatencyMem, stepped as System::run steps a core: tick when
 * due, skip to the next event, and account the stalled cycles in
 * between with one accountStall before the next tick.  Reports the host
 * time of tick + arm + accountStall per retired instruction.
 */
void
BM_CoreTick(benchmark::State &state, core::WorkloadKind kind)
{
    const core::SimConfig cfg = core::makeScaledConfig(kind, 4);
    std::vector<trace::TraceRecord> window;
    const auto capture = [&window](trace::TraceSource &src) {
        trace::TraceRecord rec;
        while (window.size() < 100'000 && src.next(rec))
            if (rec.op != trace::OpClass::SyscallBlock)
                window.push_back(rec);
    };
    if (kind == core::WorkloadKind::Oltp)
        capture(*workload::OltpWorkload(cfg.oltp).makeProcess(0));
    else
        capture(*workload::DssWorkload(cfg.dss).makeProcess(0));

    FixedLatencyMem mem;
    std::uint64_t retired = 0;
    for (auto _ : state) {
        FreeEnv env;
        WindowSource src(window);
        cpu::ProcessContext proc(0, &src);
        cpu::Core core(0, cfg.system.core, &mem, &env);
        core.switchTo(&proc, 0, false);
        Cycles now = 0;
        Cycles accounted_to = 0;
        while (!env.done) {
            if (core.due(now)) {
                core.accountStall(accounted_to, now);
                core.tick(now);
                accounted_to = now + 1;
            }
            const Cycles next = std::max(core.arm(now), now + 1);
            now = next == kNever ? now + 1 : next;
        }
        core.accountStall(accounted_to, now);
        retired += core.stats().instructions;
    }
    state.counters["time_per_instr"] = benchmark::Counter(
        static_cast<double>(retired),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_CoreTick, Oltp, core::WorkloadKind::Oltp)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreTick, Dss, core::WorkloadKind::Dss)
    ->Unit(benchmark::kMillisecond);

void
BM_EndToEndOltp(benchmark::State &state)
{
    for (auto _ : state) {
        sim::SystemParams sp;
        sp.num_nodes = 1;
        sim::System sys(sp);
        workload::OltpParams p;
        p.num_procs = 2;
        workload::OltpWorkload wl(p);
        for (ProcId i = 0; i < 2; ++i)
            sys.addProcess(wl.makeProcess(i), 0);
        const auto res = sys.run(20000, 0);
        benchmark::DoNotOptimize(res.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(res.instructions));
    }
}
BENCHMARK(BM_EndToEndOltp)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
