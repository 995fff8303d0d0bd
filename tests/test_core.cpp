/**
 * @file
 * Unit tests for the processor core pipeline, using fake memory and
 * environment interfaces: issue/retire behavior, dependences, in-order
 * vs out-of-order issue, write buffering per consistency model, fences,
 * locks, system calls, branch misprediction, and speculative-load
 * rollback; completions beyond the completion wheel's span, after long
 * skips and around rollback, detach and restore; stall accounting
 * across a context switch.  The wake-contract tests check, over real
 * OLTP and DSS trace windows, that a core which is not due() would do
 * nothing in a tick but account one stalled cycle, and that a core
 * rebuilt from its saved bytes announces the same next event as the
 * live one, and that gating the memory and write-buffer stages never
 * skips a walk that would act.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** In-flight entries of @p h's process: fetched, not yet retired. */
std::uint64_t
inFlight(const Harness &h)
{
    return h.proc.fetched() - h.proc.retired;
}

TEST(Core, WindowSizeBoundsInflight)
{
    // A miss at the head holds retirement while independent work fills
    // the window: a tiny window, one that is not a power of two (the
    // ring rounds it up to 64 slots), and the in-order core's small
    // fetch buffer.
    CoreParams tiny, odd;
    tiny.window_size = 4;
    odd.window_size = 48;
    for (const CoreParams &p : {tiny, odd, makeInOrderParams(CoreParams{})}) {
        std::vector<TraceRecord> v{op(OpClass::Load, 0x1000, 0x8000)};
        for (const TraceRecord &r : aluChain(200, 0))
            v.push_back(r);
        Harness h(v, p);
        h.mem.load_latency = 1000;
        std::uint64_t most = 0;
        for (Cycles now = 0; now < 500; ++now) {
            h.core.tick(now);
            most = std::max(most, inFlight(h));
        }
        const std::uint32_t window = h.core.params().window_size;
        // One fetched record may wait outside the full window.
        EXPECT_GE(most, window);
        EXPECT_LE(most, window + 1u);
        EXPECT_EQ(h.core.stats().instructions, 0u);
        h.runToCompletion();
        EXPECT_EQ(h.core.stats().instructions, v.size());
    }
}

/** FakeMem whose load latency follows a per-access script, and which
 *  records when each load was accessed. */
class ScriptedMem : public FakeMem
{
  public:
    std::vector<Cycles> load_latencies; ///< one per load, in order
    std::vector<Cycles> load_at;        ///< access cycle of each load

    std::optional<MemAccessResult>
    dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
               bool prefetch, Cycles *retry_at) override
    {
        if (!is_write && !prefetch) {
            if (load_at.size() < load_latencies.size())
                load_latency = load_latencies[load_at.size()];
            load_at.push_back(now);
        }
        return FakeMem::dataAccess(vaddr, pc, is_write, now, prefetch,
                                   retry_at);
    }
};

TEST(Core, RolledBackLoadCompletesAtItsNewTime)
{
    // SC with speculative loads: B issues ahead of the slow load A and
    // is invalidated before it commits.  The rollback happens when A
    // retires (~52), while B's first completion (~102) is still
    // pending.  The replayed B takes 300 cycles, and C, whose address
    // depends on B, must wait for that, not for the stale completion.
    CoreParams p;
    p.model = ConsistencyModel::SC;
    p.cons.spec_loads = true;
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));        // A
    v.push_back(op(OpClass::Load, 0x1004, 0x9000));        // B
    v.push_back(op(OpClass::Load, 0x1008, 0xa000, 1));     // C, uses B
    trace::VectorSource src(v);
    ProcessContext proc(0, &src);
    ScriptedMem mem;
    mem.load_latencies = {50, 100, 300, 5};
    FakeEnv env;
    Core core(0, p, &mem, &env);
    core.switchTo(&proc, 0, false);

    Cycles now = 0;
    for (; now < 20; ++now)
        core.tick(now);
    ASSERT_EQ(mem.load_at.size(), 2u);
    core.onLineInvalidated(blockAlign(0x9000, 64));
    for (; now < 1000 && env.dones == 0; ++now)
        core.tick(now);
    EXPECT_EQ(core.stats().spec_load_violations, 1u);
    EXPECT_EQ(core.stats().instructions, 3u);
    ASSERT_EQ(mem.load_at.size(), 4u);
    EXPECT_LT(mem.load_at[2], mem.load_at[1] + 100); // replayed early
    EXPECT_GE(mem.load_at[3], mem.load_at[2] + 300); // C waited for it
}

TEST(Core, CompletionsQueuedBeforeDetachStayWithTheirEntries)
{
    // P1's load is in flight (completion queued at ~102) when P1 is
    // detached.  P2's load lands in the same window slot and takes 300
    // cycles; the load whose address depends on it must wait for that,
    // not for the stale completion.
    const std::vector<TraceRecord> v1{op(OpClass::Load, 0x1000, 0x8000)};
    std::vector<TraceRecord> v2 = aluChain(63, 0); // seqs 1..63
    // seq 64: the same window slot as P1's load (seq 0).
    v2.push_back(op(OpClass::Load, 0x2000, 0xa000));
    v2.push_back(op(OpClass::Load, 0x2004, 0xb000, 1)); // uses it
    trace::VectorSource src1(v1), src2(v2);
    ProcessContext p1(0, &src1), p2(1, &src2);
    ScriptedMem mem;
    mem.load_latencies = {100, 300, 5, 100};
    FakeEnv env;
    Core core(0, CoreParams{}, &mem, &env);

    core.switchTo(&p1, 0, false);
    Cycles now = 0;
    for (; mem.load_at.empty() && now < 50; ++now)
        core.tick(now);
    ASSERT_EQ(mem.load_at.size(), 1u);
    core.detachCurrent();
    EXPECT_TRUE(core.drained());
    core.switchTo(&p2, now, false);
    for (; env.dones == 0 && now < 2000; ++now)
        core.tick(now);
    EXPECT_EQ(p2.retired, v2.size());
    ASSERT_EQ(mem.load_at.size(), 3u);
    EXPECT_LT(mem.load_at[1], mem.load_at[0] + 100); // before the stale time
    EXPECT_GE(mem.load_at[2], mem.load_at[1] + 300);

    // P1 runs to completion afterwards, its load re-issued.
    core.detachCurrent();
    env.dones = 0;
    core.switchTo(&p1, now, false);
    for (; env.dones == 0 && now < 5000; ++now)
        core.tick(now);
    EXPECT_EQ(p1.retired, v1.size());
    EXPECT_EQ(mem.load_at.size(), 4u);
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
// Completion wheel and stall accounting (DESIGN.md §5a)
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
coreBytes(const Core &c)
{
    snap::Writer w;
    c.saveState(w);
    return w.bytes();
}

/** What a scripted-load run observed. */
struct LoadRun
{
    std::vector<Cycles> load_at; ///< access cycle of each load
    Cycles end = 0;              ///< first cycle after the last retire
    std::vector<std::uint8_t> bytes; ///< the core's final saved state
};

/**
 * Run @p recs with scripted load latencies to completion.  With @p skip
 * the core is ticked only at its next event and the cycles in between
 * are accounted with one accountStall call, as the run loop does;
 * otherwise it is ticked at every cycle.
 */
LoadRun
runLoads(const std::vector<TraceRecord> &recs,
         const std::vector<Cycles> &latencies, bool skip)
{
    trace::VectorSource src(recs);
    ProcessContext proc(0, &src);
    ScriptedMem mem;
    mem.load_latencies = latencies;
    FakeEnv env;
    Core core(0, CoreParams{}, &mem, &env);
    core.switchTo(&proc, 0, false);
    Cycles now = 0;
    while ((env.dones == 0 || !core.drained()) && now < 100000) {
        core.tick(now);
        Cycles next = now + 1;
        if (skip) {
            next = std::max(core.nextEvent(now), now + 1);
            if (next == kNever)
                next = now + 1;
            core.accountStall(now + 1, next);
        }
        now = next;
    }
    return LoadRun{mem.load_at, now, coreBytes(core)};
}

TEST(CompletionWheel, CompletionBeyondTheWheelFiresOnItsCycle)
{
    // The second load's address depends on the first; it issues the
    // same number of cycles after the first completes whatever the
    // first's latency, inside the wheel's span or beyond it.
    const std::vector<TraceRecord> v{op(OpClass::Load, 0x1000, 0x8000),
                                     op(OpClass::Load, 0x1004, 0x9000, 1)};
    const LoadRun near = runLoads(v, {100, 5}, false);
    for (const Cycles far : {Cycles{256}, Cycles{257}, Cycles{1000},
                             Cycles{5000}}) {
        for (const bool skip : {false, true}) {
            const LoadRun r = runLoads(v, {far, 5}, skip);
            ASSERT_EQ(r.load_at.size(), 2u);
            EXPECT_EQ(r.load_at[0], near.load_at[0]);
            EXPECT_EQ(r.load_at[1] - r.load_at[0],
                      near.load_at[1] - near.load_at[0] + (far - 100))
                << "latency " << far << (skip ? ", skipping" : "");
            EXPECT_EQ(r.end, near.end + (far - 100));
        }
    }
}

TEST(CompletionWheel, LongSkipWithinTheSpanCompletesOnTime)
{
    // A slow head load keeps B from retiring, so only its completion
    // can release C.  B completes 230 cycles out, inside the wheel's
    // span; skipping there in one jump must still complete it.
    const std::vector<TraceRecord> v{op(OpClass::Load, 0x1000, 0x8000),
                                     op(OpClass::Load, 0x1004, 0x9000),
                                     op(OpClass::Load, 0x1008, 0xa000, 1)};
    const Cycles agen =
        FuncUnitPool(FuncUnitParams{}).latency(OpClass::Load);
    for (const bool skip : {false, true}) {
        const LoadRun r = runLoads(v, {3000, 230, 5}, skip);
        ASSERT_EQ(r.load_at.size(), 3u);
        EXPECT_EQ(r.load_at[2], r.load_at[1] + 230 + agen)
            << (skip ? "skipping" : "ticking every cycle");
    }
}

TEST(CompletionWheel, SkippingMatchesTickingEveryCycle)
{
    // Behind a slow head load, loads with latencies on both sides of
    // the wheel's span, some chained, some independent: skipping
    // straight to each next event (jumps longer than the span) ends in
    // the same state as visiting every cycle.
    std::vector<TraceRecord> v{op(OpClass::Load, 0x0ff8, 0x7000)};
    for (int i = 0; i < 24; ++i) {
        v.push_back(op(OpClass::Load, 0x1000 + i * 8,
                       0x8000 + static_cast<Addr>(i) * 0x1000,
                       i % 3 == 2 ? 1 : 0));
        v.push_back(op(OpClass::IntAlu, 0x1004 + i * 8, kNoAddr, 1));
    }
    std::vector<Cycles> lat{4000};
    for (int i = 0; i < 24; ++i)
        lat.push_back(i % 4 == 0 ? 300 + 97 * i : 3 + 40 * (i % 7));
    const LoadRun every = runLoads(v, lat, false);
    const LoadRun skipped = runLoads(v, lat, true);
    EXPECT_EQ(skipped.load_at, every.load_at);
    EXPECT_EQ(skipped.end, every.end);
    EXPECT_EQ(skipped.bytes, every.bytes);
}

TEST(CompletionWheel, LateHintCompletesAtTheNextTick)
{
    // A prefetch fires in memoryStage, after completeStage: its
    // completion is overdue, and the core is due at the next cycle for
    // it even though nothing else is pending.
    const std::vector<TraceRecord> v{
        op(OpClass::Prefetch, 0x1000, 0x8000),
        op(OpClass::Load, 0x1004, 0x9000, 1)}; // waits for the hint
    trace::VectorSource src(v);
    ProcessContext proc(0, &src);
    ScriptedMem mem;
    FakeEnv env;
    Core core(0, CoreParams{}, &mem, &env);
    core.switchTo(&proc, 0, false);
    Cycles now = 0;
    for (; mem.prefetches == 0 && now < 100; ++now) {
        core.tick(now);
        core.arm(now);
    }
    ASSERT_EQ(mem.prefetches, 1u);
    const Cycles fired = now - 1;
    EXPECT_EQ(core.wakeAt(), fired + 1);
    EXPECT_EQ(core.wakeReason(), WakeReason::Hint);
    ASSERT_TRUE(mem.load_at.empty());
    for (; mem.load_at.empty() && now < 100; ++now)
        core.tick(now);
    // Complete at fired + 1, then the load's address generation.
    ASSERT_EQ(mem.load_at.size(), 1u);
    EXPECT_EQ(mem.load_at[0],
              fired + 1 + FuncUnitPool(FuncUnitParams{}).latency(
                              OpClass::Load));
}

TEST(CompletionWheel, FarCompletionsAreDroppedByRollback)
{
    // As RolledBackLoadCompletesAtItsNewTime, with B's stale first
    // completion beyond the wheel's span.
    CoreParams p;
    p.model = ConsistencyModel::SC;
    p.cons.spec_loads = true;
    std::vector<TraceRecord> v;
    v.push_back(op(OpClass::Load, 0x1000, 0x8000));    // A
    v.push_back(op(OpClass::Load, 0x1004, 0x9000));    // B
    v.push_back(op(OpClass::Load, 0x1008, 0xa000, 1)); // C, uses B
    trace::VectorSource src(v);
    ProcessContext proc(0, &src);
    ScriptedMem mem;
    mem.load_latencies = {50, 600, 40, 5};
    FakeEnv env;
    Core core(0, p, &mem, &env);
    core.switchTo(&proc, 0, false);

    Cycles now = 0;
    for (; now < 20; ++now)
        core.tick(now);
    ASSERT_EQ(mem.load_at.size(), 2u);
    core.onLineInvalidated(blockAlign(0x9000, 64));
    for (; now < 2000 && env.dones == 0; ++now)
        core.tick(now);
    EXPECT_EQ(core.stats().spec_load_violations, 1u);
    EXPECT_EQ(core.stats().instructions, 3u);
    ASSERT_EQ(mem.load_at.size(), 4u);
    EXPECT_GE(mem.load_at[3], mem.load_at[2] + 40);  // C waited for B
    EXPECT_LT(mem.load_at[3], mem.load_at[1] + 600); // not the stale time
}

TEST(CompletionWheel, FarCompletionsAreDroppedByDetach)
{
    // P1's load (1000 cycles) is in the far heap when P1 is detached.
    // P2's load lands in the same slot and takes 30; its consumer must
    // wait for that, not for the stale completion.
    const std::vector<TraceRecord> v1{op(OpClass::Load, 0x1000, 0x8000)};
    std::vector<TraceRecord> v2 = aluChain(63, 0);
    v2.push_back(op(OpClass::Load, 0x2000, 0xa000));    // slot of seq 0
    v2.push_back(op(OpClass::Load, 0x2004, 0xb000, 1)); // uses it
    trace::VectorSource src1(v1), src2(v2);
    ProcessContext p1(0, &src1), p2(1, &src2);
    ScriptedMem mem;
    mem.load_latencies = {1000, 30, 5, 5};
    FakeEnv env;
    Core core(0, CoreParams{}, &mem, &env);

    core.switchTo(&p1, 0, false);
    Cycles now = 0;
    for (; mem.load_at.empty() && now < 50; ++now)
        core.tick(now);
    core.detachCurrent();
    core.switchTo(&p2, now, false);
    for (; env.dones == 0 && now < 5000; ++now)
        core.tick(now);
    EXPECT_EQ(p2.retired, v2.size());
    ASSERT_EQ(mem.load_at.size(), 3u);
    EXPECT_GE(mem.load_at[2], mem.load_at[1] + 30);
    EXPECT_LT(mem.load_at[2], mem.load_at[0] + 1000);
}

TEST(CompletionWheel, RestoredCoreCatchesUpWithFarCompletions)
{
    // A core restored mid-flight (completions near and far, the clock
    // well past the wheel's span) runs on exactly as the live one.
    std::vector<TraceRecord> v;
    for (int i = 0; i < 8; ++i) {
        v.push_back(op(OpClass::Load, 0x1000 + i * 8,
                       0x8000 + static_cast<Addr>(i) * 0x1000));
        v.push_back(op(OpClass::IntAlu, 0x1004 + i * 8, kNoAddr, 1));
    }
    trace::VectorSource src(v);
    ProcessContext proc(0, &src);
    ScriptedMem mem;
    mem.load_latencies = {900, 20, 700, 300, 5, 1200, 40, 256};
    FakeEnv env;
    Core live(0, CoreParams{}, &mem, &env);
    live.switchTo(&proc, 5000, false);
    Cycles now = 5000;
    for (; now < 5030; ++now)
        live.tick(now);
    ASSERT_EQ(mem.load_at.size(), 8u);

    Core twin(0, CoreParams{}, &mem, &env);
    const std::vector<std::uint8_t> bytes = coreBytes(live);
    snap::Reader r(bytes);
    twin.restoreState(r, [&proc](ProcId) { return &proc; });
    EXPECT_EQ(twin.nextEvent(now - 1), live.nextEvent(now - 1));
    for (; now < 8000; ++now) {
        live.tick(now);
        twin.tick(now);
        ASSERT_EQ(coreBytes(twin), coreBytes(live)) << "cycle " << now;
    }
    EXPECT_EQ(live.stats().instructions, v.size());
}

TEST(StallAccounting, OneCallAcrossRunResumeEqualsPerCycleCalls)
{
    // A charged switch stalls the core until run_resume_at_; one
    // accountStall over a range crossing it books what cycle-by-cycle
    // calls do: Idle before it, the head's stall after it.
    trace::VectorSource src(aluChain(4, 0));
    ProcessContext proc(0, &src);
    FakeMem mem;
    FakeEnv env;
    CoreParams p;
    p.context_switch_cost = 500;
    Core one(0, p, &mem, &env), each(0, p, &mem, &env);
    one.switchTo(&proc, 100, true);
    snap::Writer w;
    one.saveState(w);
    snap::Reader r(w.bytes());
    each.restoreState(r, [&proc](ProcId) { return &proc; });

    one.accountStall(100, 1000);
    for (Cycles c = 100; c < 1000; ++c)
        each.accountStall(c, c + 1);
    EXPECT_EQ(one.breakdown().cycles, each.breakdown().cycles);
    EXPECT_EQ(one.stats().run_cycles, each.stats().run_cycles);
    EXPECT_EQ(one.breakdown()[StallCat::Idle], 500.0);
    EXPECT_EQ(one.breakdown()[StallCat::Fu], 400.0); // empty-window bubble
    EXPECT_EQ(one.stats().run_cycles, 900u);
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
 *
 * After every arm(), a twin restored from the core's bytes -- which
 * rebuilds the completion queue, ready set and counts from scratch --
 * must announce the same next event: the incremental state may not
 * drift from the window it summarizes.
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
        const Cycles next = core.arm(now);
        {
            const std::vector<std::uint8_t> bytes = coreBytes(core);
            snap::Reader r(bytes);
            twin.restoreState(r, resolve);
        }
        if (twin.nextEvent(now) != next) {
            ADD_FAILURE() << "incremental next event " << next
                          << " != rebuilt " << twin.nextEvent(now)
                          << " at cycle " << now << " ("
                          << core.debugString() << ")";
            return out;
        }
    }
    out.retired = core.stats().instructions;
    return out;
}

struct WakeCase
{
    core::WorkloadKind kind;
    ConsistencyModel model;
    bool out_of_order;
    // gtest prints a param that has no PrintTo as its raw bytes, into
    // the test name: name the two padding bytes so they are always zero
    // and the names stay the same from build to build.
    std::uint8_t padding[2] = {};
};
static_assert(sizeof(WakeCase) == 8, "WakeCase must have no unnamed padding");

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

/** One core over a set of trace windows with its own memory,
 *  environment and processes, scheduled round-robin as the run loop
 *  would. */
struct CoreWorld
{
    CoreWorld(const CoreParams &params,
              const std::vector<std::vector<TraceRecord>> &windows,
              std::uint64_t seed)
        : mem(seed), core(0, params, &mem, &env)
    {
        for (ProcId p = 0; p < windows.size(); ++p) {
            sources.push_back(
                std::make_unique<trace::VectorSource>(windows[p]));
            procs.push_back(
                std::make_unique<ProcessContext>(p, sources.back().get()));
            ready.push_back(procs.back().get());
        }
    }

    // The core points at this world's memory and environment.
    CoreWorld(const CoreWorld &) = delete;
    CoreWorld &operator=(const CoreWorld &) = delete;

    /** Switch the next process in if the core is idle; false once every
     *  process ran and the core drained. */
    bool
    dispatch(Cycles now)
    {
        if (core.current())
            return true;
        if (ready.empty())
            return !core.drained();
        core.switchTo(ready.front(), now, ever_ran);
        ready.pop_front();
        ever_ran = true;
        return true;
    }

    /** Carry out the scheduling request of the last tick. */
    void
    serveRequest()
    {
        if (env.request == FakeEnv::Request::None)
            return;
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

    /** Restore the core from its own bytes: every derived structure,
     *  the stage gates included, is rebuilt or unknown. */
    void
    rebuild()
    {
        const std::vector<std::uint8_t> bytes = coreBytes(core);
        snap::Reader r(bytes);
        core.restoreState(r, [this](ProcId id) -> ProcessContext * {
            return id < procs.size() ? procs[id].get() : nullptr;
        });
    }

    NoisyMem mem;
    FakeEnv env;
    Core core;
    std::vector<std::unique_ptr<trace::VectorSource>> sources;
    std::vector<std::unique_ptr<ProcessContext>> procs;
    std::deque<ProcessContext *> ready;
    bool ever_ran = false;
};

TEST_P(WakeContract, GatedStagesEqualFullWalks)
{
    // Two identical worlds tick at every cycle.  One core keeps its
    // stage gates; the other is rebuilt from its bytes before each tick,
    // so its memory and write-buffer stages walk every time.  Both must
    // save the same bytes after every tick: a gate never skips a walk
    // that would act.
    const WakeCase &c = GetParam();
    CoreParams p;
    p.model = c.model;
    p.cons.spec_loads = true;
    // A small predictor, as above: the core is saved three times a cycle.
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
    std::vector<Addr> load_blocks;
    std::size_t records = 0;
    for (const auto &w : windows) {
        records += w.size();
        for (const TraceRecord &r : w)
            if (r.op == OpClass::Load)
                load_blocks.push_back(blockAlign(r.vaddr, 64));
    }

    CoreWorld gated(p, windows, 17), walked(p, windows, 17);
    Rng rng(17 ^ 0x5bd1e995);
    for (Cycles now = 0; now < 2'000'000; ++now) {
        const bool more = gated.dispatch(now);
        ASSERT_EQ(walked.dispatch(now), more) << "cycle " << now;
        if (!more)
            break;
        if (rng.chance(0.02)) {
            // Another node's write to a line a load may have read.
            const Addr block = load_blocks[rng.below(load_blocks.size())];
            gated.core.onLineInvalidated(block);
            walked.core.onLineInvalidated(block);
        }
        walked.rebuild();
        gated.core.tick(now);
        walked.core.tick(now);
        if (coreBytes(gated.core) != coreBytes(walked.core)) {
            ADD_FAILURE() << "a gated stage skipped work at cycle " << now
                          << " (" << gated.core.debugString() << ")";
            return;
        }
        gated.serveRequest();
        walked.serveRequest();
    }
    EXPECT_EQ(gated.core.stats().instructions, records);
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
