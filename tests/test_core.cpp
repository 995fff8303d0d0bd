/**
 * @file
 * Unit tests for the processor core pipeline, using fake memory and
 * environment interfaces: issue/retire behavior, dependences, in-order
 * vs out-of-order issue, write buffering per consistency model, fences,
 * locks, system calls, branch misprediction, and speculative-load
 * rollback.  The wake-contract tests check, over real OLTP and DSS
 * trace windows, that a core which is not due() would do nothing in a
 * tick but account one stalled cycle.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "core/config.hpp"
#include "cpu/inorder_core.hpp"
#include "cpu/ooo_core.hpp"
#include "trace/source.hpp"
#include "workload/dss_engine.hpp"
#include "workload/hints.hpp"
#include "workload/oltp_engine.hpp"

namespace dbsim::cpu {
namespace {

using trace::OpClass;
using trace::TraceRecord;

/** Fake memory hierarchy with fixed latencies. */
class FakeMem : public CoreMemIf
{
  public:
    Cycles load_latency = 3;
    Cycles store_latency = 3;
    std::uint32_t refusals_remaining = 0;
    Cycles retry_delay = 1; ///< a refused access may retry this much later

    std::optional<MemAccessResult>
    dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
               bool prefetch, Cycles *retry_at) override
    {
        if (prefetch) {
            ++prefetches;
            return std::nullopt;
        }
        if (refusals_remaining > 0) {
            --refusals_remaining;
            if (retry_at)
                *retry_at = now + retry_delay;
            return std::nullopt;
        }
        ++accesses;
        if (is_write)
            ++writes;
        last_addr = vaddr;
        return MemAccessResult{now + (is_write ? store_latency
                                               : load_latency),
                               coher::AccessClass::L1Hit,
                               blockAlign(vaddr, 64), false};
    }

    FetchResult
    instrFetch(Addr pc, Cycles now) override
    {
        ++fetches;
        return FetchResult{now + 1, false, true};
    }

    void flushHint(Addr vaddr, Cycles now) override { ++flushes; }

    std::uint64_t accesses = 0;
    std::uint64_t writes = 0;
    std::uint64_t fetches = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t flushes = 0;
    Addr last_addr = 0;
};

/** Fake environment: lock table + event recording. */
class FakeEnv : public CoreEnvIf
{
  public:
    /** The scheduling action the last notification asks of the owner. */
    enum class Request { None, Switch, Done };

    bool
    lockIsFree(Addr addr, ProcId proc) const override
    {
        ++calls;
        auto it = holders.find(addr);
        return it == holders.end() || it->second == proc;
    }

    bool
    lockTryAcquire(Addr addr, ProcId proc) override
    {
        if (!lockIsFree(addr, proc))
            return false;
        holders[addr] = proc;
        return true;
    }

    void
    lockRelease(Addr addr, ProcId proc) override
    {
        ++calls;
        holders.erase(addr);
        ++releases;
    }

    void
    onSyscallBlock(ProcId proc, Cycles latency) override
    {
        ++calls;
        ++syscalls;
        last_syscall_latency = latency;
        request = Request::Switch;
    }

    void
    onLockYield(ProcId proc) override
    {
        ++calls;
        ++yields;
        if (request == Request::None)
            request = Request::Switch;
    }

    void
    onProcessDone(ProcId proc) override
    {
        ++calls;
        ++dones;
        request = Request::Done;
    }

    std::map<Addr, ProcId> holders;
    int releases = 0;
    int syscalls = 0;
    int yields = 0;
    int dones = 0;
    Cycles last_syscall_latency = 0;
    mutable std::uint64_t calls = 0;
    Request request = Request::None;
};

TraceRecord
op(OpClass cls, Addr pc, Addr va = kNoAddr, std::uint8_t dep1 = 0)
{
    TraceRecord r;
    r.op = cls;
    r.pc = pc;
    r.vaddr = va;
    r.dep1 = dep1;
    return r;
}

/** Test harness: drives one core over a fixed record vector. */
struct Harness
{
    explicit Harness(std::vector<TraceRecord> recs, CoreParams params = {})
        : src(std::move(recs)), proc(0, &src),
          core(0, params, &mem, &env)
    {
        core.switchTo(&proc, 0, false);
    }

    /** Run until the trace is fully retired and the write buffer has
     *  drained (or the cycle cap). */
    Cycles
    runToCompletion(Cycles cap = 100000)
    {
        Cycles now = 0;
        while ((env.dones == 0 || !core.drained()) && now < cap) {
            core.tick(now);
            ++now;
        }
        return now;
    }

    FakeMem mem;
    FakeEnv env;
    trace::VectorSource src;
    ProcessContext proc;
    Core core;
};

std::vector<TraceRecord>
aluChain(int n, std::uint8_t dep)
{
    std::vector<TraceRecord> v;
    for (int i = 0; i < n; ++i)
        v.push_back(op(OpClass::IntAlu, 0x1000 + i * 4, kNoAddr, dep));
    return v;
}

TEST(Core, RetiresAllInstructions)
{
    Harness h(aluChain(100, 0));
    h.runToCompletion();
    EXPECT_EQ(h.core.stats().instructions, 100u);
    EXPECT_EQ(h.env.dones, 1);
}

TEST(Core, DependentChainSlowerThanIndependent)
{
    Harness dep(aluChain(200, 1));
    Harness ind(aluChain(200, 0));
    const Cycles t_dep = dep.runToCompletion();
    const Cycles t_ind = ind.runToCompletion();
    EXPECT_GT(t_dep, t_ind);
    // Dependent chain: ~1 instruction per cycle at best.
    EXPECT_GE(t_dep, 200u);
}

TEST(Core, WiderIssueFasterOnIndependentCode)
{
    CoreParams narrow;
    narrow.issue_width = 1;
    CoreParams wide;
    wide.issue_width = 4;
    Harness n(aluChain(400, 0), narrow);
    Harness w(aluChain(400, 0), wide);
    EXPECT_GT(n.runToCompletion(), w.runToCompletion());
}

TEST(Core, LoadLatencyExposedToDependent)
{
    // load ; dependent alu chain behind it
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));
    v.push_back(op(OpClass::IntAlu, 0x1004, kNoAddr, 1));
    Harness slow(v);
    slow.mem.load_latency = 200;
    Harness fast(v);
    fast.mem.load_latency = 1;
    EXPECT_GT(slow.runToCompletion(), fast.runToCompletion() + 150);
}

TEST(Core, OooOverlapsIndependentWorkBehindMiss)
{
    // A slow load followed by many independent ALU ops: the OOO core
    // hides the miss; the in-order core also issues past it (non-
    // blocking load, no dependence), so compare against a *dependent*
    // in-order stream to check the stall-at-first-dependence rule.
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));
    auto rest = aluChain(100, 0);
    v.insert(v.end(), rest.begin(), rest.end());

    Harness ooo(v);
    ooo.mem.load_latency = 300;
    Harness ino(v, makeInOrderParams(CoreParams{}));
    ino.mem.load_latency = 300;

    const Cycles t_ooo = ooo.runToCompletion();
    const Cycles t_ino = ino.runToCompletion();
    // Both overlap here; OOO at least as fast.
    EXPECT_LE(t_ooo, t_ino + 5);
}

TEST(Core, InOrderStallsAtFirstDependence)
{
    // load ; dependent alu ; many independent alus.
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));
    v.push_back(op(OpClass::IntAlu, 0x1004, kNoAddr, 1)); // depends on load
    auto rest = aluChain(100, 0);
    v.insert(v.end(), rest.begin(), rest.end());

    Harness ooo(v);
    ooo.mem.load_latency = 300;
    Harness ino(v, makeInOrderParams(CoreParams{}));
    ino.mem.load_latency = 300;

    const Cycles t_ooo = ooo.runToCompletion();
    const Cycles t_ino = ino.runToCompletion();
    // The in-order core cannot issue the independent tail past the
    // dependent instruction; the OOO core does that work under the
    // miss (the in-order core regains some ground because the tail is
    // FU-bound either way, so the gap is modest but must exist).
    EXPECT_LT(t_ooo + 20, t_ino);
}

TEST(Core, RcStoreRetiresWithoutWaiting)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Store, 0x1000, 0x8000));
    v.push_back(op(OpClass::IntAlu, 0x1004));
    Harness h(v);
    h.mem.store_latency = 500;
    // Measure when the trace retires (the write drains later).
    Cycles done_at = 0;
    for (Cycles now = 0; now < 2000; ++now) {
        h.core.tick(now);
        if (h.env.dones > 0 && done_at == 0)
            done_at = now;
    }
    EXPECT_GT(done_at, 0u);
    EXPECT_LT(done_at, 100u); // retirement did not wait for the store
    EXPECT_EQ(h.core.stats().stores, 1u);
    EXPECT_TRUE(h.core.drained()); // the store performed eventually
}

TEST(Core, ScStoreBlocksRetire)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Store, 0x1000, 0x8000));
    v.push_back(op(OpClass::IntAlu, 0x1004));
    CoreParams p;
    p.model = ConsistencyModel::SC;
    Harness h(v, p);
    h.mem.store_latency = 500;
    EXPECT_GT(h.runToCompletion(), 500u);
}

TEST(Core, MemBarrierDrainsWriteBuffer)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Store, 0x1000, 0x8000));
    v.push_back(op(OpClass::MemBarrier, 0x1004));
    v.push_back(op(OpClass::IntAlu, 0x1008));
    Harness h(v);
    h.mem.store_latency = 400;
    // The MB cannot retire until the buffered store performs.
    EXPECT_GT(h.runToCompletion(), 400u);
}

TEST(Core, WmbOrdersStoreEpochs)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Store, 0x1000, 0x8000));
    v.push_back(op(OpClass::WriteBarrier, 0x1004));
    v.push_back(op(OpClass::Store, 0x1008, 0x9000));
    Harness h(v);
    h.mem.store_latency = 100;
    h.runToCompletion(5000);
    EXPECT_EQ(h.mem.writes, 2u);
    // The second store must have issued after the first performed
    // (epoch ordering); with 100-cycle stores that means the run took
    // at least two store latencies.
    EXPECT_GE(h.core.stats().run_cycles, 200u);
}

TEST(Core, LockAcquireWhenFree)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::LockAcquire, 0x1000, 0x8000));
    v.push_back(op(OpClass::MemBarrier, 0x1004));
    v.push_back(op(OpClass::IntAlu, 0x1008));
    v.push_back(op(OpClass::WriteBarrier, 0x100c));
    v.push_back(op(OpClass::LockRelease, 0x1010, 0x8000));
    Harness h(v);
    h.runToCompletion();
    EXPECT_EQ(h.core.stats().instructions, 5u);
    EXPECT_EQ(h.env.releases, 1);
    EXPECT_TRUE(h.env.holders.empty());
}

TEST(Core, LockAcquireSpinsWhileHeld)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::LockAcquire, 0x1000, 0x8000));
    v.push_back(op(OpClass::IntAlu, 0x1004));
    Harness h(v);
    h.env.holders[0x8000] = 99; // someone else holds it
    Cycles now = 0;
    for (; now < 500; ++now)
        h.core.tick(now);
    EXPECT_EQ(h.core.stats().instructions, 0u);
    EXPECT_GT(h.core.stats().lock_spin_retries, 2u);
    // Release it; the acquire should now complete.
    h.env.holders.clear();
    for (; now < 1500 && h.env.dones == 0; ++now)
        h.core.tick(now);
    EXPECT_EQ(h.core.stats().instructions, 2u);
}

TEST(Core, LockSpinYieldsAfterThreshold)
{
    CoreParams p;
    p.spin_yield_threshold = 500;
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::LockAcquire, 0x1000, 0x8000));
    Harness h(v, p);
    h.env.holders[0x8000] = 99;
    for (Cycles now = 0; now < 2000 && h.env.yields == 0; ++now)
        h.core.tick(now);
    EXPECT_GE(h.env.yields, 1);
    EXPECT_GE(h.core.stats().lock_yields, 1u);
}

TEST(Core, SyscallNotifiesEnvAndBlocksFetch)
{
    std::vector<TraceRecord> v;
    TraceRecord sc = op(OpClass::SyscallBlock, 0x1000);
    sc.extra = 12345;
    v.push_back(sc);
    v.push_back(op(OpClass::IntAlu, 0x1004));
    Harness h(v);
    for (Cycles now = 0; now < 200 && h.env.syscalls == 0; ++now)
        h.core.tick(now);
    EXPECT_EQ(h.env.syscalls, 1);
    EXPECT_EQ(h.env.last_syscall_latency, 12345u);
    // Nothing after the syscall was fetched or retired.
    EXPECT_EQ(h.core.stats().instructions, 1u);
    EXPECT_TRUE(h.core.drained());
}

TEST(Core, DetachAndRedeliver)
{
    Harness h(aluChain(50, 0));
    for (Cycles now = 0; now < 3; ++now)
        h.core.tick(now);
    // Detach mid-flight: unretired records go back to the process.
    const auto retired = h.core.stats().instructions;
    h.core.detachCurrent();
    EXPECT_EQ(h.core.current(), nullptr);
    h.core.switchTo(&h.proc, 10, true);
    Cycles now = 10;
    while (h.env.dones == 0 && now < 10000) {
        h.core.tick(now);
        ++now;
    }
    EXPECT_EQ(h.core.stats().instructions, 50u + 0 * retired);
}

TEST(Core, MispredictedBranchSlowsFetch)
{
    // All-taken conditional branches at one site train quickly; compare
    // a perfect predictor against a cold one on hard (alternating-site)
    // branches.
    std::vector<TraceRecord> v;
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        TraceRecord r = op(OpClass::BranchCond, 0x1000 + (i % 97) * 4);
        r.taken = rng.chance(0.5);
        r.extra = r.taken ? r.pc + 16 : r.pc + 4;
        v.push_back(r);
        v.push_back(op(OpClass::IntAlu, r.pc + 4));
    }
    CoreParams perfect;
    perfect.bp.perfect = true;
    Harness cold(v);
    Harness perf(v, perfect);
    EXPECT_GT(cold.runToCompletion(), perf.runToCompletion());
    EXPECT_GT(cold.core.branchStats().mispredicts(), 10u);
    EXPECT_EQ(perf.core.branchStats().mispredicts(), 0u);
}

TEST(Core, HintsFireAndDoNotBlock)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::PrefetchExcl, 0x1000, 0x8000));
    v.push_back(op(OpClass::Flush, 0x1004, 0x8000));
    v.push_back(op(OpClass::IntAlu, 0x1008));
    Harness h(v);
    const Cycles t = h.runToCompletion();
    EXPECT_LT(t, 100u);
    EXPECT_EQ(h.mem.prefetches, 1u);
    EXPECT_EQ(h.mem.flushes, 1u);
}

TEST(Core, MemoryRetryAfterRefusal)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));
    Harness h(v);
    h.mem.refusals_remaining = 5;
    h.runToCompletion();
    EXPECT_EQ(h.core.stats().instructions, 1u);
    EXPECT_EQ(h.mem.accesses, 1u);
}

TEST(Core, SpecLoadViolationRollsBack)
{
    // Under SC with speculative loads, two loads execute out of order;
    // invalidating the second load's line before it commits forces a
    // rollback and re-execution.
    CoreParams p;
    p.model = ConsistencyModel::SC;
    p.cons.spec_loads = true;
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000)); // slow via refusals
    v.push_back(op(OpClass::Load, 0x1004, 0x9000)); // speculates early
    v.push_back(op(OpClass::IntAlu, 0x1008));
    Harness h(v, p);
    h.mem.load_latency = 50;

    Cycles now = 0;
    for (; now < 20; ++now)
        h.core.tick(now);
    // Both loads issued (the second speculatively); violate it.
    h.core.onLineInvalidated(blockAlign(0x9000, 64));
    while (h.env.dones == 0 && now < 10000) {
        h.core.tick(now);
        ++now;
    }
    EXPECT_EQ(h.core.stats().instructions, 3u);
    EXPECT_GE(h.core.stats().spec_load_violations, 1u);
    // The violated load re-executed: more than two data accesses.
    EXPECT_GE(h.mem.accesses, 3u);
}

TEST(Core, WindowSizeBoundsInflight)
{
    CoreParams p;
    p.window_size = 4;
    Harness h(aluChain(100, 0), p);
    h.runToCompletion();
    EXPECT_EQ(h.core.stats().instructions, 100u);
}

TEST(Core, BreakdownAccountsAllCycles)
{
    Harness h(aluChain(100, 1));
    const Cycles t = h.runToCompletion();
    double sum = 0;
    for (std::size_t i = 0; i < kNumStallCats; ++i)
        sum += h.core.breakdown().cycles[i];
    EXPECT_NEAR(sum, static_cast<double>(t), 1.5);
}

// ---------------------------------------------------------------------
// Wake contract (DESIGN.md §5a)
// ---------------------------------------------------------------------

/** Memory with random latencies, classes and refusals; counts calls. */
class NoisyMem : public CoreMemIf
{
  public:
    explicit NoisyMem(std::uint64_t seed) : rng_(seed) {}

    std::optional<MemAccessResult>
    dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
               bool prefetch, Cycles *retry_at) override
    {
        ++calls;
        if (!prefetch && rng_.chance(0.05)) {
            if (retry_at)
                *retry_at = now + rng_.range(1, 6);
            return std::nullopt;
        }
        static constexpr struct { Cycles lat; coher::AccessClass cls; }
            kService[] = {
                {1, coher::AccessClass::L1Hit},
                {1, coher::AccessClass::L1Hit},
                {1, coher::AccessClass::L1Hit},
                {8, coher::AccessClass::L2Hit},
                {40, coher::AccessClass::LocalMem},
                {90, coher::AccessClass::RemoteMem},
                {140, coher::AccessClass::RemoteDirty},
            };
        const auto &svc = kService[rng_.below(std::size(kService))];
        return MemAccessResult{now + svc.lat, svc.cls, blockAlign(vaddr, 64),
                               rng_.chance(0.02)};
    }

    FetchResult
    instrFetch(Addr pc, Cycles now) override
    {
        ++calls;
        const bool miss = rng_.chance(0.05);
        return FetchResult{now + (miss ? rng_.range(8, 60) : 1),
                           miss && rng_.chance(0.2), !miss};
    }

    void flushHint(Addr vaddr, Cycles now) override { ++calls; }

    std::uint64_t calls = 0;

  private:
    Rng rng_;
};

/** The first @p n records of each of @p procs workload processes. */
std::vector<std::vector<TraceRecord>>
traceWindows(core::WorkloadKind kind, bool hints, std::uint32_t procs,
             std::size_t n)
{
    const core::SimConfig cfg = core::makeScaledConfig(kind, 4);
    std::unique_ptr<workload::OltpWorkload> oltp;
    std::unique_ptr<workload::DssWorkload> dss;
    if (kind == core::WorkloadKind::Oltp)
        oltp = std::make_unique<workload::OltpWorkload>(cfg.oltp);
    else
        dss = std::make_unique<workload::DssWorkload>(cfg.dss);
    std::vector<std::vector<TraceRecord>> w(procs);
    for (ProcId p = 0; p < procs; ++p) {
        std::unique_ptr<trace::TraceSource> src =
            oltp ? oltp->makeProcess(p) : dss->makeProcess(p);
        if (hints) {
            workload::HintOptions opts; // prefetch + flush, every section
            src = std::make_unique<workload::HintInserter>(std::move(src),
                                                           opts);
        }
        TraceRecord rec;
        while (w[p].size() < n && src->next(rec))
            w[p].push_back(rec);
    }
    return w;
}

std::vector<std::uint8_t>
coreBytes(const Core &c)
{
    snap::Writer w;
    c.saveState(w);
    return w.bytes();
}

struct WakeCheck
{
    std::uint64_t ticks = 0;
    std::uint64_t checked = 0; ///< cycles at which the core was not due
    std::uint64_t retired = 0;
};

/**
 * Step a core over @p windows (one process each, switched round-robin
 * as the run loop would), visiting every cycle.  At every cycle where
 * the core is not due, tick it and apply accountStall(now, now + 1) to
 * a twin restored from its saved state: the two must save identical
 * bytes, and the tick must not have called the memory or environment.
 * Speculative-load lines are invalidated at random, as another node's
 * writes would.
 */
WakeCheck
checkWakeContract(const CoreParams &params,
                  const std::vector<std::vector<TraceRecord>> &windows,
                  std::uint64_t seed)
{
    NoisyMem mem(seed);
    FakeEnv env;
    Core core(0, params, &mem, &env);
    Core twin(0, params, &mem, &env);
    std::vector<std::unique_ptr<trace::VectorSource>> sources;
    std::vector<std::unique_ptr<ProcessContext>> procs;
    std::deque<ProcessContext *> ready;
    std::vector<Addr> load_blocks;
    for (ProcId p = 0; p < windows.size(); ++p) {
        sources.push_back(std::make_unique<trace::VectorSource>(windows[p]));
        procs.push_back(
            std::make_unique<ProcessContext>(p, sources.back().get()));
        ready.push_back(procs.back().get());
        for (const TraceRecord &r : windows[p])
            if (r.op == OpClass::Load)
                load_blocks.push_back(blockAlign(r.vaddr, 64));
    }
    const auto resolve = [&procs](ProcId id) -> ProcessContext * {
        return id < procs.size() ? procs[id].get() : nullptr;
    };

    Rng rng(seed ^ 0x5bd1e995);
    WakeCheck out;
    bool ever_ran = false;
    for (Cycles now = 0; now < 2'000'000; ++now) {
        if (!core.current()) {
            if (ready.empty() && core.drained())
                break;
            if (!ready.empty()) {
                core.switchTo(ready.front(), now, ever_ran);
                ready.pop_front();
                ever_ran = true;
            }
        }
        if (!load_blocks.empty() && rng.chance(0.02))
            core.onLineInvalidated(load_blocks[rng.below(load_blocks.size())]);

        if (core.due(now)) {
            core.tick(now);
            ++out.ticks;
        } else {
            const std::vector<std::uint8_t> before = coreBytes(core);
            snap::Reader r(before);
            twin.restoreState(r, resolve);
            const std::uint64_t calls = mem.calls + env.calls;
            core.tick(now);
            twin.accountStall(now, now + 1);
            EXPECT_EQ(mem.calls + env.calls, calls)
                << "a tick that was not due called out at cycle " << now;
            if (coreBytes(core) != coreBytes(twin)) {
                ADD_FAILURE() << "a tick that was not due changed the core "
                                 "at cycle "
                              << now << " (" << core.debugString() << ")";
                return out;
            }
            ++out.checked;
        }

        if (env.request != FakeEnv::Request::None) {
            ProcessContext *p = core.current();
            core.detachCurrent();
            if (env.request == FakeEnv::Request::Switch) {
                ready.push_back(p);
            } else {
                std::erase_if(env.holders, [p](const auto &kv) {
                    return kv.second == p->id();
                });
            }
            env.request = FakeEnv::Request::None;
        }
        core.arm(now);
    }
    out.retired = core.stats().instructions;
    return out;
}

struct WakeCase
{
    core::WorkloadKind kind;
    ConsistencyModel model;
    bool out_of_order;
};

class WakeContract : public ::testing::TestWithParam<WakeCase>
{
};

TEST_P(WakeContract, SkippedTickEqualsAccountStall)
{
    const WakeCase &c = GetParam();
    CoreParams p;
    p.model = c.model;
    p.cons.spec_loads = true;
    // A small predictor: every skipped cycle saves the core three times.
    p.bp.pa_entries = 64;
    p.bp.pa_hist_bits = 6;
    p.bp.g_hist_bits = 6;
    p.bp.g_pht_bits = 6;
    p.bp.chooser_entries = 64;
    p.bp.btb_entries = 32;
    if (!c.out_of_order)
        p = makeInOrderParams(p);
    const bool oltp = c.kind == core::WorkloadKind::Oltp;
    const auto windows = traceWindows(c.kind, /*hints=*/oltp, 3, 1500);
    const WakeCheck r = checkWakeContract(p, windows, 17);
    std::size_t records = 0;
    for (const auto &w : windows)
        records += w.size();
    EXPECT_EQ(r.retired, records);
    // The contract was exercised, not vacuously true.
    EXPECT_GT(r.checked, r.ticks / 10);
}

std::vector<WakeCase>
wakeCases()
{
    std::vector<WakeCase> v;
    for (const auto kind : {core::WorkloadKind::Oltp, core::WorkloadKind::Dss})
        for (const auto model : {ConsistencyModel::SC, ConsistencyModel::PC,
                                 ConsistencyModel::RC})
            for (const bool ooo : {true, false})
                v.push_back({kind, model, ooo});
    return v;
}

std::string
wakeCaseName(const ::testing::TestParamInfo<WakeCase> &info)
{
    const WakeCase &c = info.param;
    static const char *const kModel[] = {"SC", "PC", "RC"};
    return std::string(c.kind == core::WorkloadKind::Oltp ? "Oltp" : "Dss") +
           kModel[static_cast<int>(c.model)] + (c.out_of_order ? "Ooo" : "InOrder");
}

INSTANTIATE_TEST_SUITE_P(Windows, WakeContract,
                         ::testing::ValuesIn(wakeCases()), wakeCaseName);

TEST(WakeContract, RefusedAccessStaysDueUntilAccepted)
{
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));
    Harness h(v);
    h.mem.load_latency = 100;
    h.mem.refusals_remaining = 4;
    h.mem.retry_delay = 10; // the retry time nextEvent() announces
    Cycles now = 0;
    for (; now < 200 && h.mem.accesses == 0; ++now) {
        h.core.tick(now);
        h.core.arm(now);
        if (h.mem.accesses == 0 && h.mem.refusals_remaining < 4) {
            // Refused: due at the very next iteration, not at the
            // announced retry time.
            EXPECT_TRUE(h.core.due(now + 1)) << "cycle " << now;
            EXPECT_EQ(h.core.wakeReason(), WakeReason::Retry);
            EXPECT_EQ(h.core.nextEvent(now), now + 10);
        }
    }
    ASSERT_EQ(h.mem.accesses, 1u);
    EXPECT_EQ(h.mem.refusals_remaining, 0u);
    // Accepted: after one more tick (the issue was progress), nothing
    // is due until the load returns.
    h.core.tick(now);
    h.core.arm(now);
    EXPECT_FALSE(h.core.due(now + 1));
    EXPECT_EQ(h.core.wakeReason(), WakeReason::Event);
    EXPECT_EQ(h.core.wakeAt(), now - 1 + 100);
}

TEST(WakeContract, InvalidatedSpeculativeLoadMakesCoreDue)
{
    CoreParams p;
    p.model = ConsistencyModel::SC;
    p.cons.spec_loads = true;
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));
    v.push_back(op(OpClass::Load, 0x1004, 0x9000)); // speculates
    v.push_back(op(OpClass::IntAlu, 0x1008));
    Harness h(v, p);
    h.mem.load_latency = 50;
    Cycles now = 0;
    for (; now < 20; ++now) {
        h.core.tick(now);
        h.core.arm(now);
    }
    ASSERT_FALSE(h.core.due(now)); // both loads are in flight

    h.core.onLineInvalidated(blockAlign(0xa000, 64)); // no load there
    EXPECT_FALSE(h.core.due(now));
    h.core.onLineInvalidated(blockAlign(0x9000, 64));
    EXPECT_TRUE(h.core.due(now));
    EXPECT_EQ(h.core.wakeReason(), WakeReason::Poke);

    while (h.env.dones == 0 && now < 10000) {
        if (h.core.due(now))
            h.core.tick(now);
        else
            h.core.accountStall(now, now + 1);
        h.core.arm(now);
        ++now;
    }
    EXPECT_EQ(h.core.stats().instructions, 3u);
    EXPECT_GE(h.core.stats().spec_load_violations, 1u);
}

} // namespace
} // namespace dbsim::cpu
