/**
 * @file
 * Tests for the software prefetch / flush hint-insertion pass
 * (paper section 4.2).
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "trace/source.hpp"
#include "workload/hints.hpp"

namespace dbsim::workload {
namespace {

using trace::OpClass;
using trace::TraceRecord;

TraceRecord
rec(OpClass op, Addr pc, Addr va = kNoAddr)
{
    TraceRecord r;
    r.op = op;
    r.pc = pc;
    r.vaddr = va;
    return r;
}

std::vector<TraceRecord>
criticalSection(Addr lock, std::initializer_list<Addr> stores)
{
    std::vector<TraceRecord> v;
    v.push_back(rec(OpClass::LockAcquire, 0x100, lock));
    v.push_back(rec(OpClass::MemBarrier, 0x104));
    for (const Addr a : stores) {
        v.push_back(rec(OpClass::Load, 0x108, a));
        v.push_back(rec(OpClass::Store, 0x10c, a));
    }
    v.push_back(rec(OpClass::WriteBarrier, 0x110));
    v.push_back(rec(OpClass::LockRelease, 0x114, lock));
    return v;
}

std::vector<TraceRecord>
drainAll(trace::TraceSource &src)
{
    std::vector<TraceRecord> v;
    TraceRecord r;
    while (src.next(r))
        v.push_back(r);
    return v;
}

TEST(HintInserter, InsertsPrefetchBeforeAcquireAndFlushAfterRelease)
{
    auto v = criticalSection(0x8000, {0x9000});
    HintInserter hi(std::make_unique<trace::VectorSource>(v),
                    HintOptions{});
    const auto out = drainAll(hi);

    // Prefetches first, then the original section, then flushes.
    std::size_t i = 0;
    while (i < out.size() && out[i].op == OpClass::PrefetchExcl)
        ++i;
    EXPECT_GT(i, 0u) << "expected at least one prefetch";
    EXPECT_EQ(out[i].op, OpClass::LockAcquire);
    EXPECT_EQ(out.back().op, OpClass::Flush);
    EXPECT_GE(hi.prefetchesInserted(), 2u); // lock line + data line
    // The latch line is prefetched but never flushed.
    EXPECT_EQ(hi.prefetchesInserted(), hi.flushesInserted() + 1);
}

TEST(HintInserter, CoversLockAndStoreLines)
{
    auto v = criticalSection(0x8000, {0x9000, 0x9040});
    HintInserter hi(std::make_unique<trace::VectorSource>(v),
                    HintOptions{});
    const auto out = drainAll(hi);
    std::set<Addr> flushed, prefetched;
    for (const auto &r : out) {
        if (r.op == OpClass::Flush)
            flushed.insert(r.vaddr);
        if (r.op == OpClass::PrefetchExcl)
            prefetched.insert(r.vaddr);
    }
    // Data lines are flushed; the latch line is only prefetched.
    EXPECT_FALSE(flushed.count(blockAlign(0x8000, 64)));
    EXPECT_TRUE(flushed.count(blockAlign(0x9000, 64)));
    EXPECT_TRUE(flushed.count(blockAlign(0x9040, 64)));
    EXPECT_TRUE(prefetched.count(blockAlign(0x8000, 64)));
}

TEST(HintInserter, DeduplicatesLines)
{
    // Two stores to the same line yield one flush for it.
    auto v = criticalSection(0x8000, {0x9000, 0x9008});
    HintInserter hi(std::make_unique<trace::VectorSource>(v),
                    HintOptions{});
    const auto out = drainAll(hi);
    int flushes_to_line = 0;
    for (const auto &r : out) {
        if (r.op == OpClass::Flush && r.vaddr == blockAlign(0x9000, 64))
            ++flushes_to_line;
    }
    EXPECT_EQ(flushes_to_line, 1);
}

TEST(HintInserter, PrefetchOnlyMode)
{
    auto v = criticalSection(0x8000, {0x9000});
    HintOptions opts;
    opts.flush = false;
    HintInserter hi(std::make_unique<trace::VectorSource>(v), opts);
    const auto out = drainAll(hi);
    for (const auto &r : out)
        EXPECT_NE(r.op, OpClass::Flush);
    EXPECT_GT(hi.prefetchesInserted(), 0u);
    EXPECT_EQ(hi.flushesInserted(), 0u);
}

TEST(HintInserter, HotLockFilter)
{
    auto v = criticalSection(0x8000, {0x9000});
    auto w = criticalSection(0xF000, {0x9100});
    v.insert(v.end(), w.begin(), w.end());
    HintOptions opts;
    opts.hot_locks.insert(0x8000); // only the first lock is hot
    HintInserter hi(std::make_unique<trace::VectorSource>(v), opts);
    const auto out = drainAll(hi);
    for (const auto &r : out) {
        if (r.op == OpClass::Flush) {
            EXPECT_NE(r.vaddr, blockAlign(0x9100, 64));
        }
    }
}

TEST(HintInserter, PassesThroughNonSectionRecords)
{
    std::vector<TraceRecord> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(rec(OpClass::IntAlu, 0x100 + i * 4));
    HintInserter hi(std::make_unique<trace::VectorSource>(v),
                    HintOptions{});
    EXPECT_EQ(drainAll(hi), v);
}

TEST(HintInserter, PreservesOriginalRecordOrder)
{
    auto v = criticalSection(0x8000, {0x9000});
    v.push_back(rec(OpClass::IntAlu, 0x200));
    HintInserter hi(std::make_unique<trace::VectorSource>(v),
                    HintOptions{});
    const auto out = drainAll(hi);
    // Strip hints: the rest must equal the input.
    std::vector<TraceRecord> stripped;
    for (const auto &r : out)
        if (!trace::isHint(r.op))
            stripped.push_back(r);
    EXPECT_EQ(stripped, v);
}

TEST(HintInserter, UnterminatedSectionPassesThrough)
{
    std::vector<TraceRecord> v;
    v.push_back(rec(OpClass::LockAcquire, 0x100, 0x8000));
    v.push_back(rec(OpClass::IntAlu, 0x104));
    // Trace ends without a release.
    HintInserter hi(std::make_unique<trace::VectorSource>(v),
                    HintOptions{});
    const auto out = drainAll(hi);
    for (const auto &r : out)
        EXPECT_FALSE(trace::isHint(r.op));
    EXPECT_EQ(out.size(), 2u);
}

TEST(HintInserter, SectionLengthCapRespected)
{
    std::vector<TraceRecord> v;
    v.push_back(rec(OpClass::LockAcquire, 0x100, 0x8000));
    for (int i = 0; i < 1000; ++i)
        v.push_back(rec(OpClass::IntAlu, 0x104));
    v.push_back(rec(OpClass::LockRelease, 0x108, 0x8000));
    HintOptions opts;
    opts.max_section = 64;
    HintInserter hi(std::make_unique<trace::VectorSource>(v), opts);
    const auto out = drainAll(hi);
    // The cap was hit: no hints inserted, everything delivered.
    EXPECT_EQ(out.size(), v.size());
}

TEST(HintInserter, ViewDeliversTheNextStream)
{
    std::vector<TraceRecord> v = criticalSection(0x8000, {0x9000, 0x9100});
    v.push_back(rec(OpClass::IntAlu, 0x200));
    const std::vector<TraceRecord> w = criticalSection(0xF000, {0x9200});
    v.insert(v.end(), w.begin(), w.end());
    HintInserter by_next(std::make_unique<trace::VectorSource>(v),
                         HintOptions{});
    HintInserter by_view(std::make_unique<trace::VectorSource>(v),
                         HintOptions{});
    std::vector<TraceRecord> out;
    for (std::span<const TraceRecord> s; !(s = by_view.view()).empty();) {
        // A section is served whole; take it in two parts.
        const std::size_t n = (s.size() + 1) / 2;
        out.insert(out.end(), s.begin(), s.begin() + n);
        by_view.consume(n);
    }
    EXPECT_EQ(out, drainAll(by_next));
    EXPECT_EQ(by_view.prefetchesInserted(), by_next.prefetchesInserted());
}

} // namespace
} // namespace dbsim::workload
