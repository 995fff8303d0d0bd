/**
 * @file
 * Tests for the synthetic workload engines: address-space layout, lock
 * directory, code layout / trace builder, and the OLTP / DSS trace
 * generators' structural invariants (lock pairing, call balance,
 * region-confined addresses, determinism).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "workload/code_layout.hpp"
#include "workload/dss_engine.hpp"
#include "workload/lock_manager.hpp"
#include "workload/oltp_engine.hpp"
#include "workload/sga_layout.hpp"

namespace dbsim::workload {
namespace {

using trace::OpClass;
using trace::TraceRecord;

// ---------------------------------------------------------------- SGA

TEST(SgaLayout, RegionsDisjoint)
{
    SgaLayout lay;
    EXPECT_LT(SgaLayout::kCodeBase, SgaLayout::kMetadataBase);
    EXPECT_LT(lay.metadata(lay.params().metadata_bytes - 1),
              SgaLayout::kBufferBase);
    EXPECT_LT(lay.bufferBlock(lay.params().buffer_blocks - 1,
                              lay.params().block_bytes - 1),
              SgaLayout::kLogBase);
    EXPECT_LT(lay.log(lay.params().log_buffer_bytes - 1),
              SgaLayout::kPrivateBase);
}

TEST(SgaLayout, PrivateAreasPerProcessDisjoint)
{
    SgaLayout lay;
    const Addr a = lay.privateMem(0, 0);
    const Addr b = lay.privateMem(1, 0);
    EXPECT_GE(b - a, lay.params().private_bytes);
}

TEST(SgaLayout, OffsetsWrap)
{
    SgaLayout lay;
    EXPECT_EQ(lay.metadata(0), lay.metadata(lay.params().metadata_bytes));
    EXPECT_EQ(lay.log(1), lay.log(lay.params().log_buffer_bytes + 1));
}

TEST(SgaLayout, BufferBlockRangeChecked)
{
    SgaLayout lay;
    EXPECT_DEATH((void)lay.bufferBlock(lay.params().buffer_blocks, 0),
                 "out of range");
}

// ------------------------------------------------------ LockDirectory

TEST(LockDirectory, LatchesDistinct)
{
    SgaLayout lay;
    LockDirectory ld(&lay, 40, 10, 512);
    std::set<Addr> latches;
    for (std::uint32_t b = 0; b < 40; ++b)
        latches.insert(ld.branchLock(b));
    for (std::uint32_t t = 0; t < 400; ++t)
        latches.insert(ld.tellerLock(t));
    for (std::uint32_t h = 0; h < 512; ++h)
        latches.insert(ld.bucketLock(h));
    latches.insert(ld.logLatch());
    EXPECT_EQ(latches.size(), 40u + 400u + 512u + 1u);
}

TEST(LockDirectory, DataOnDifferentLineThanLatch)
{
    SgaLayout lay;
    LockDirectory ld(&lay, 40, 10, 512);
    for (std::uint32_t b = 0; b < 40; ++b) {
        EXPECT_NE(blockAlign(ld.branchLock(b), 64),
                  blockAlign(ld.branchData(b, 0), 64));
    }
}

TEST(LockDirectory, DataStaysInsideSlot)
{
    SgaLayout lay;
    LockDirectory ld(&lay, 40, 10, 512);
    for (std::uint32_t w = 0; w < 64; ++w) {
        const Addr d = ld.tellerData(7, w);
        EXPECT_GE(d, ld.tellerLock(7));
        EXPECT_LT(d, ld.tellerLock(7) + LockDirectory::kSlotBytes);
    }
}

TEST(LockDirectory, HotLatchesCoverBranchesTellersLog)
{
    SgaLayout lay;
    LockDirectory ld(&lay, 40, 10, 512);
    const auto hot = ld.hotLatches();
    EXPECT_EQ(hot.size(), 40u + 400u + 1u);
}

TEST(LockDirectory, RejectsOversizedDirectory)
{
    SgaParams sp;
    sp.metadata_bytes = 4096;
    SgaLayout lay(sp);
    EXPECT_THROW(LockDirectory(&lay, 1000, 10, 512), std::runtime_error);
}

// -------------------------------------------------------- CodeLayout

TEST(CodeLayout, RoutinesTileFootprint)
{
    CodeLayout code(0x10000, 64 * 1024, 42);
    ASSERT_GT(code.numRoutines(), 10u);
    Addr expect = 0x10000;
    for (std::uint32_t r = 0; r < code.numRoutines(); ++r) {
        EXPECT_EQ(code.routineStart(r), expect);
        expect += static_cast<Addr>(code.routineInstrs(r)) * 4;
    }
    EXPECT_LE(expect, 0x10000 + 64 * 1024);
    EXPECT_GE(expect, 0x10000 + 60 * 1024); // nearly full coverage
}

TEST(CodeLayout, DeterministicInSeed)
{
    CodeLayout a(0x10000, 32 * 1024, 7);
    CodeLayout b(0x10000, 32 * 1024, 7);
    CodeLayout c(0x10000, 32 * 1024, 8);
    ASSERT_EQ(a.numRoutines(), b.numRoutines());
    for (std::uint32_t r = 0; r < a.numRoutines(); ++r)
        EXPECT_EQ(a.routineInstrs(r), b.routineInstrs(r));
    bool differs = a.numRoutines() != c.numRoutines();
    for (std::uint32_t r = 0;
         !differs && r < std::min(a.numRoutines(), c.numRoutines()); ++r)
        differs = a.routineInstrs(r) != c.routineInstrs(r);
    EXPECT_TRUE(differs);
}

TEST(CodeLayout, RejectsTinyFootprint)
{
    EXPECT_THROW(CodeLayout(0, 1024, 1), std::runtime_error);
}

// ------------------------------------------------------ TraceBuilder

std::vector<TraceRecord>
build(std::function<void(TraceBuilder &)> f, std::uint64_t seed = 3)
{
    static CodeLayout code(0x10000, 32 * 1024, 11);
    trace::RecordBuffer out;
    Rng rng(seed);
    TraceBuilder b(&code, &rng, &out);
    f(b);
    return {out.begin(), out.end()};
}

TEST(TraceBuilder, ComputeEmitsRequestedWork)
{
    const auto recs = build([](TraceBuilder &b) { b.compute(50); });
    // At least 50 records (fillers + embedded branches).
    EXPECT_GE(recs.size(), 50u);
    int alu = 0;
    for (const auto &r : recs)
        alu += r.op == OpClass::IntAlu;
    EXPECT_GE(alu, 50);
}

TEST(TraceBuilder, PcsStayInsideCodeSegment)
{
    const auto recs = build([](TraceBuilder &b) {
        for (int i = 0; i < 20; ++i) {
            b.call();
            b.compute(30);
            b.ret();
        }
    });
    for (const auto &r : recs) {
        EXPECT_GE(r.pc, 0x10000u);
        EXPECT_LT(r.pc, 0x10000u + 32 * 1024);
    }
}

TEST(TraceBuilder, CallRetBalanced)
{
    const auto recs = build([](TraceBuilder &b) {
        b.call();
        b.compute(10);
        b.call();
        b.compute(10);
        b.ret();
        b.ret();
    });
    int depth = 0;
    for (const auto &r : recs) {
        if (r.op == OpClass::BranchCall)
            ++depth;
        if (r.op == OpClass::BranchRet) {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
}

TEST(TraceBuilder, LockPairEmitsFences)
{
    const auto recs = build([](TraceBuilder &b) {
        b.lockAcquire(0x8000);
        b.compute(5);
        b.lockRelease(0x8000);
    });
    std::vector<OpClass> ops;
    for (const auto &r : recs)
        if (r.op != OpClass::IntAlu && r.op != OpClass::BranchCond &&
            r.op != OpClass::BranchJmp)
            ops.push_back(r.op);
    ASSERT_GE(ops.size(), 4u);
    EXPECT_EQ(ops[0], OpClass::LockAcquire);
    EXPECT_EQ(ops[1], OpClass::MemBarrier);
    EXPECT_EQ(ops[ops.size() - 2], OpClass::WriteBarrier);
    EXPECT_EQ(ops.back(), OpClass::LockRelease);
}

TEST(TraceBuilder, MemOpCarriesAddressAndDep)
{
    const auto recs = build([](TraceBuilder &b) {
        b.memOp(OpClass::Load, 0x1234);
        b.memOp(OpClass::Load, 0x5678, 1);
    });
    std::vector<TraceRecord> loads;
    for (const auto &r : recs)
        if (r.op == OpClass::Load)
            loads.push_back(r);
    ASSERT_EQ(loads.size(), 2u);
    EXPECT_EQ(loads[0].vaddr, 0x1234u);
    EXPECT_EQ(loads[1].dep1, 1u);
}

TEST(TraceBuilder, TakenBranchesChangePc)
{
    const auto recs = build([](TraceBuilder &b) { b.compute(500); });
    bool saw_taken_jump = false;
    for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
        if (recs[i].op == OpClass::BranchCond && recs[i].taken) {
            EXPECT_EQ(recs[i + 1].pc, recs[i].extra);
            saw_taken_jump = true;
        }
    }
    EXPECT_TRUE(saw_taken_jump);
}

// ------------------------------------------------------- OLTP engine

std::vector<TraceRecord>
drain(trace::TraceSource &src, int n)
{
    std::vector<TraceRecord> v;
    TraceRecord r;
    while (static_cast<int>(v.size()) < n && src.next(r))
        v.push_back(r);
    return v;
}

TEST(OltpEngine, LocksAlwaysPaired)
{
    OltpWorkload wl(OltpParams{});
    auto src = wl.makeProcess(0);
    const auto recs = drain(*src, 50000);
    std::map<Addr, int> held;
    for (const auto &r : recs) {
        if (r.op == OpClass::LockAcquire) {
            EXPECT_EQ(held[r.vaddr], 0) << "recursive acquire";
            held[r.vaddr] = 1;
        } else if (r.op == OpClass::LockRelease) {
            EXPECT_EQ(held[r.vaddr], 1) << "release without acquire";
            held[r.vaddr] = 0;
        }
    }
}

TEST(OltpEngine, AddressesConfinedToRegions)
{
    OltpWorkload wl(OltpParams{});
    auto src = wl.makeProcess(3);
    const auto recs = drain(*src, 30000);
    for (const auto &r : recs) {
        if (!trace::isMemory(r.op))
            continue;
        const bool in_known_region =
            (r.vaddr >= SgaLayout::kMetadataBase &&
             r.vaddr < SgaLayout::kBufferBase) ||
            (r.vaddr >= SgaLayout::kBufferBase &&
             r.vaddr < SgaLayout::kLogBase) ||
            (r.vaddr >= SgaLayout::kLogBase &&
             r.vaddr < SgaLayout::kPrivateBase) ||
            r.vaddr >= SgaLayout::kPrivateBase;
        EXPECT_TRUE(in_known_region) << trace::toString(r);
    }
}

TEST(OltpEngine, PrivateAccessesUseOwnArea)
{
    OltpWorkload wl(OltpParams{});
    auto src = wl.makeProcess(5);
    const auto recs = drain(*src, 30000);
    for (const auto &r : recs) {
        if (!trace::isMemory(r.op) ||
            r.vaddr < SgaLayout::kPrivateBase)
            continue;
        const auto proc_slot =
            (r.vaddr - SgaLayout::kPrivateBase) / SgaLayout::kPrivateStride;
        EXPECT_EQ(proc_slot, 5u);
    }
}

TEST(OltpEngine, DeterministicPerSeedAndProcess)
{
    OltpWorkload wl(OltpParams{});
    auto a = drain(*wl.makeProcess(2), 5000);
    auto b = drain(*wl.makeProcess(2), 5000);
    EXPECT_EQ(a, b);
    auto c = drain(*wl.makeProcess(3), 5000);
    EXPECT_NE(a, c);
}

TEST(OltpEngine, EmitsSyscallsAtGroupCommitRate)
{
    OltpParams p;
    p.commits_per_group = 2;
    OltpWorkload wl(p);
    auto recs = drain(*wl.makeProcess(0), 100000);
    int syscalls = 0;
    for (const auto &r : recs)
        syscalls += r.op == OpClass::SyscallBlock;
    EXPECT_GT(syscalls, 3);
}

TEST(OltpEngine, InstructionMixReasonable)
{
    OltpWorkload wl(OltpParams{});
    auto recs = drain(*wl.makeProcess(1), 60000);
    std::uint64_t mem = 0, br = 0;
    for (const auto &r : recs) {
        mem += r.op == OpClass::Load || r.op == OpClass::Store;
        br += trace::isBranch(r.op);
    }
    const double mem_frac = double(mem) / recs.size();
    const double br_frac = double(br) / recs.size();
    EXPECT_GT(mem_frac, 0.10);
    EXPECT_LT(mem_frac, 0.45);
    EXPECT_GT(br_frac, 0.08);
    EXPECT_LT(br_frac, 0.30);
}

// -------------------------------------------------------- DSS engine

TEST(DssEngine, PartitionsCoverTableWithoutOverlap)
{
    DssParams p;
    p.num_procs = 4;
    DssWorkload wl(p);
    // Each process scans distinct blocks; verify via block-header loads.
    std::set<Addr> seen;
    for (ProcId proc = 0; proc < 4; ++proc) {
        auto src = wl.makeProcess(proc);
        auto recs = drain(*src, 20000);
        for (const auto &r : recs) {
            if (r.op != OpClass::Load || r.vaddr < SgaLayout::kBufferBase ||
                r.vaddr >= SgaLayout::kLogBase)
                continue;
            const Addr blk =
                (r.vaddr - SgaLayout::kBufferBase) / p.sga.block_bytes;
            const std::uint32_t per = wl.tableBlocks() / 4;
            EXPECT_EQ(blk / per, proc) << "block outside partition";
            seen.insert(blk);
        }
    }
    EXPECT_GT(seen.size(), 4u);
}

TEST(DssEngine, NoLockingActivity)
{
    DssWorkload wl(DssParams{});
    auto recs = drain(*wl.makeProcess(0), 50000);
    for (const auto &r : recs) {
        EXPECT_NE(r.op, OpClass::LockAcquire);
        EXPECT_NE(r.op, OpClass::SyscallBlock);
    }
}

TEST(DssEngine, SourceEndsAfterPartition)
{
    DssParams p;
    p.table_bytes = 64 * 1024; // tiny table
    p.sga.buffer_blocks = 64;
    p.num_procs = 2;
    DssWorkload wl(p);
    auto src = wl.makeProcess(0);
    TraceRecord r;
    std::uint64_t n = 0;
    while (src->next(r))
        ++n;
    EXPECT_GT(n, 100u);
    EXPECT_LT(n, 2'000'000u);
}

TEST(DssEngine, UsesFloatingPoint)
{
    DssWorkload wl(DssParams{});
    auto recs = drain(*wl.makeProcess(0), 30000);
    int fp = 0;
    for (const auto &r : recs)
        fp += r.op == OpClass::FpAlu;
    EXPECT_GT(fp, 100);
}

TEST(DssEngine, DeterministicPerSeed)
{
    DssWorkload wl(DssParams{});
    auto a = drain(*wl.makeProcess(1), 5000);
    auto b = drain(*wl.makeProcess(1), 5000);
    EXPECT_EQ(a, b);
}


// ------------------------------------------------- streamed generation

/**
 * Read @p src view by view, consuming each whole, through the first
 * view holding an @p end record.  The ring refills only once empty, so
 * the largest view is the ring's high-water mark.
 */
std::size_t
ringHighWater(trace::TraceSource &src, OpClass end)
{
    std::size_t high = 0;
    for (;;) {
        const std::span<const TraceRecord> v = src.view();
        if (v.empty())
            return high;
        high = std::max(high, v.size());
        const bool last = std::any_of(v.begin(), v.end(),
                                      [end](const TraceRecord &r) {
                                          return r.op == end;
                                      });
        src.consume(v.size());
        if (last)
            return high;
    }
}

TEST(StreamedGeneration, RingBoundOverADssBlock)
{
    for (const std::uint32_t scale : {1u, 50u}) {
        DssParams p;
        p.compute_per_row *= scale;
        p.block_epilogue_compute *= scale;
        DssWorkload wl(p);
        // A block is one call ... ret.
        const std::size_t high =
            ringHighWater(*wl.makeProcess(0), OpClass::BranchRet);
        EXPECT_LE(high, trace::GeneratingSource::kRingRecords) << scale;
        EXPECT_GT(high, trace::GeneratingSource::kStepRecords) << scale;
    }
}

TEST(StreamedGeneration, RingBoundThroughAGroupCommit)
{
    for (const std::uint32_t scale : {1u, 50u}) {
        OltpParams p;
        p.compute_per_routine *= scale;
        OltpWorkload wl(p);
        const std::size_t high =
            ringHighWater(*wl.makeProcess(0), OpClass::SyscallBlock);
        EXPECT_LE(high, trace::GeneratingSource::kRingRecords) << scale;
        EXPECT_GT(high, trace::GeneratingSource::kStepRecords) << scale;
    }
}

std::size_t
firstOf(const std::vector<TraceRecord> &v, OpClass op)
{
    return static_cast<std::size_t>(
        std::find_if(v.begin(), v.end(),
                     [op](const TraceRecord &r) { return r.op == op; }) -
        v.begin());
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Read @p n records from @p src view by view; @p high records the
 * largest view seen.
 */
std::vector<TraceRecord>
drainViews(trace::TraceSource &src, std::size_t n, std::size_t &high)
{
    std::vector<TraceRecord> out;
    while (out.size() < n) {
        const std::span<const TraceRecord> v = src.view();
        if (v.empty())
            break;
        high = std::max(high, v.size());
        const std::size_t take = std::min(v.size(), n - out.size());
        out.insert(out.end(), v.begin(), v.begin() + take);
        src.consume(take);
    }
    return out;
}

/**
 * Save a source after @p k records and return the digest of the bytes.
 * The saved bytes hold at most a ring of records plus the engine state.
 * The saved source, a fresh source restored from the bytes, and a
 * second fresh source restored from a save taken right after that
 * restore all continue with the uninterrupted stream for 100K records,
 * and the restored ones never show more than a ring's worth at once.
 */
std::string
resumeDigest(const std::function<std::unique_ptr<trace::TraceSource>()> &make,
             int k)
{
    constexpr int kAfter = 100'000;
    constexpr std::size_t kRing = trace::GeneratingSource::kRingRecords;
    // 28 bytes a record; the RNG, a builder a few calls deep and the
    // position take well under 256.
    constexpr std::size_t kMaxSavedBytes = kRing * 28 + 256;
    const std::vector<TraceRecord> whole = drain(*make(), k + kAfter);
    const std::vector<TraceRecord> expect(whole.begin() + k, whole.end());

    const auto src = make();
    drain(*src, k);
    snap::Writer saved;
    src->saveState(saved);
    EXPECT_LE(saved.size(), kMaxSavedBytes) << "saved at " << k;

    const auto restored = make();
    snap::Reader r(saved.bytes());
    restored->restoreState(r);
    EXPECT_TRUE(r.atEnd());
    snap::Writer again;
    restored->saveState(again);
    EXPECT_EQ(again.bytes(), saved.bytes()) << "save right after restore";

    const auto restored_again = make();
    snap::Reader r2(again.bytes());
    restored_again->restoreState(r2);

    EXPECT_EQ(drain(*src, kAfter), expect) << "saving changed the source";
    std::size_t high = 0;
    EXPECT_EQ(drainViews(*restored, kAfter, high), expect)
        << "restored at " << k;
    EXPECT_EQ(drainViews(*restored_again, kAfter, high), expect)
        << "restored after a restore at " << k;
    EXPECT_LE(high, kRing) << "a restored view outgrew the ring at " << k;
    return hex(saved.hash());
}

// The digests lock a source checkpoint's bytes: the undelivered ring
// records and the finished flag, then the engine's RNG, builder walk
// and position within its burst.
TEST(StreamedGeneration, DssResumesAtEveryPosition)
{
    DssWorkload wl(DssParams{});
    const auto make = [&wl] { return wl.makeProcess(1); };
    const int ret =
        static_cast<int>(firstOf(drain(*make(), 20'000), OpClass::BranchRet));
    ASSERT_EQ(ret, 8107);
    EXPECT_EQ(resumeDigest(make, 2), "0x44eabe93b3b6a8a6"); // prologue
    EXPECT_EQ(resumeDigest(make, ret / 2), "0xfb9c5d6aa1e2216c"); // rows
    EXPECT_EQ(resumeDigest(make, ret - 100),
              "0xb9d7cafa23801b44"); // epilogue
    EXPECT_EQ(resumeDigest(make, ret + 1), "0x134a6f351a2f0882"); // next
}

TEST(StreamedGeneration, OltpResumesAtEveryPosition)
{
    OltpWorkload wl(OltpParams{});
    const auto make = [&wl] { return wl.makeProcess(2); };
    const std::vector<TraceRecord> head = drain(*make(), 20'000);
    const int acquire = static_cast<int>(firstOf(head, OpClass::LockAcquire));
    const int commit = static_cast<int>(firstOf(head, OpClass::SyscallBlock));
    ASSERT_EQ(acquire, 1212);
    ASSERT_EQ(commit, 10244);
    EXPECT_EQ(resumeDigest(make, 300), "0x32c4772ca9f5b714"); // parse
    EXPECT_EQ(resumeDigest(make, acquire - 10),
              "0xf6f3cd1186b15c43"); // body
    EXPECT_EQ(resumeDigest(make, commit - 3),
              "0xc81f4f88defa0c63"); // commit
    EXPECT_EQ(resumeDigest(make, commit + 1), "0xb2be88ed124afb37");

    // 50x the compute per routine makes a transaction about 40x as
    // long; it saves no more bytes (the digests above lock the layout).
    OltpParams long_txn;
    long_txn.compute_per_routine *= 50;
    OltpWorkload long_wl(long_txn);
    const auto make_long = [&long_wl] { return long_wl.makeProcess(2); };
    const int long_commit = static_cast<int>(
        firstOf(drain(*make_long(), 1'000'000), OpClass::SyscallBlock));
    ASSERT_GT(long_commit, 40 * commit);
    for (const int k : {20'000, long_commit / 2, long_commit - 3})
        resumeDigest(make_long, k);
}

/** Restore @p bytes into @p src; expect a SnapshotError naming @p what. */
void
expectRejected(trace::TraceSource &src, const std::vector<std::uint8_t> &bytes,
               const std::string &what)
{
    snap::Reader r(bytes);
    try {
        src.restoreState(r);
        ADD_FAILURE() << "restored a checkpoint with " << what;
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(StreamedGeneration, RestoreRejectsWhatNoGeneratorCouldHaveSaved)
{
    constexpr std::size_t kRing = trace::GeneratingSource::kRingRecords;
    DssWorkload dss(DssParams{});
    OltpWorkload oltp(OltpParams{});
    // A save after 1000 records: u64 ring count, the ring records, the
    // finished flag, then the engine state ending in the position byte
    // and its counters (six u32 for a DSS scan, five u32 and four u64
    // for an OLTP transaction).
    const auto saveAfter1000 = [](trace::TraceSource &src) {
        drain(src, 1000);
        snap::Writer w;
        src.saveState(w);
        snap::Reader ok(w.bytes());
        src.restoreState(ok); // the unmodified bytes restore
        EXPECT_TRUE(ok.atEnd());
        return w.bytes();
    };

    // One record more than the ring holds, ahead of a valid engine
    // state.
    {
        const auto src = dss.makeProcess(0);
        const std::vector<std::uint8_t> ok = saveAfter1000(*src);
        snap::Reader r(ok);
        const std::size_t n = r.length(28);
        snap::Writer w;
        w.u64(kRing + 1);
        for (std::size_t i = 0; i <= kRing; ++i)
            trace::saveRecord(w, TraceRecord{});
        std::vector<std::uint8_t> bytes = w.bytes();
        bytes.insert(bytes.end(), ok.begin() + 8 + n * 28, ok.end());
        expectRejected(*src, bytes, "more than the ring holds");
    }

    // A position byte that is no position.
    const auto badPosition = [&](trace::TraceSource &src, std::size_t tail) {
        std::vector<std::uint8_t> bytes = saveAfter1000(src);
        bytes[bytes.size() - tail - 1] = 0xff;
        expectRejected(src, bytes, "position 255 out of range");
    };
    badPosition(*dss.makeProcess(0), 6 * 4);
    badPosition(*oltp.makeProcess(0), 5 * 4 + 4 * 8);

    // A builder routine the code layout does not have.  The builder's
    // state follows the ring, the finished flag and the RNG's 32 bytes.
    {
        const auto src = dss.makeProcess(0);
        std::vector<std::uint8_t> bytes = saveAfter1000(*src);
        snap::Reader r(bytes);
        const std::size_t routine_at = 8 + r.length(28) * 28 + 1 + 32;
        for (std::size_t i = 0; i < 4; ++i)
            bytes[routine_at + i] = 0xff;
        expectRejected(*src, bytes, "routine 4294967295 out of range");
    }
}

} // namespace
} // namespace dbsim::workload
