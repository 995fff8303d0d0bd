/**
 * @file
 * Unit tests for the trace layer: record classification, sources,
 * and limits.
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dbsim::trace {
namespace {

TraceRecord
rec(OpClass op, Addr pc = 0x1000, Addr va = kNoAddr)
{
    TraceRecord r;
    r.op = op;
    r.pc = pc;
    r.vaddr = va;
    return r;
}

TEST(Record, Classification)
{
    EXPECT_TRUE(isMemory(OpClass::Load));
    EXPECT_TRUE(isMemory(OpClass::Store));
    EXPECT_TRUE(isMemory(OpClass::LockAcquire));
    EXPECT_TRUE(isMemory(OpClass::Flush));
    EXPECT_FALSE(isMemory(OpClass::IntAlu));
    EXPECT_FALSE(isMemory(OpClass::MemBarrier));
    EXPECT_FALSE(isMemory(OpClass::SyscallBlock));

    EXPECT_TRUE(isLoad(OpClass::Load));
    EXPECT_TRUE(isLoad(OpClass::LockAcquire));
    EXPECT_FALSE(isLoad(OpClass::Store));

    EXPECT_TRUE(isStore(OpClass::Store));
    EXPECT_TRUE(isStore(OpClass::LockRelease));
    EXPECT_FALSE(isStore(OpClass::Load));

    EXPECT_TRUE(isBranch(OpClass::BranchCond));
    EXPECT_TRUE(isBranch(OpClass::BranchRet));
    EXPECT_FALSE(isBranch(OpClass::Load));

    EXPECT_TRUE(isHint(OpClass::Prefetch));
    EXPECT_TRUE(isHint(OpClass::PrefetchExcl));
    EXPECT_TRUE(isHint(OpClass::Flush));
    EXPECT_FALSE(isHint(OpClass::Load));
}

TEST(Record, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumOpClasses; ++i)
        names.insert(opClassName(static_cast<OpClass>(i)));
    EXPECT_EQ(names.size(), kNumOpClasses);
}

TEST(Record, ToStringContainsClass)
{
    const auto s = toString(rec(OpClass::LockAcquire, 0x400, 0x999));
    EXPECT_NE(s.find("LockAcquire"), std::string::npos);
}

TEST(VectorSource, DeliversInOrder)
{
    std::vector<TraceRecord> v{rec(OpClass::IntAlu, 0x10),
                               rec(OpClass::Load, 0x14, 0x100),
                               rec(OpClass::Store, 0x18, 0x104)};
    VectorSource src(v);
    TraceRecord r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.op, OpClass::IntAlu);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.op, OpClass::Load);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.op, OpClass::Store);
    EXPECT_FALSE(src.next(r));
    EXPECT_FALSE(src.next(r)); // stays exhausted
}

TEST(LimitSource, CapsDelivery)
{
    std::vector<TraceRecord> v(10, rec(OpClass::IntAlu));
    LimitSource src(std::make_unique<VectorSource>(v), 4);
    TraceRecord r;
    int n = 0;
    while (src.next(r))
        ++n;
    EXPECT_EQ(n, 4);
    EXPECT_EQ(src.delivered(), 4u);
}

TEST(LimitSource, UnderlyingShorterThanLimit)
{
    std::vector<TraceRecord> v(3, rec(OpClass::IntAlu));
    LimitSource src(std::make_unique<VectorSource>(v), 100);
    TraceRecord r;
    int n = 0;
    while (src.next(r))
        ++n;
    EXPECT_EQ(n, 3);
}

class CountingSource : public GeneratingSource
{
  public:
    explicit CountingSource(int batches) : batches_(batches) {}

  protected:
    void
    refill() override
    {
        if (produced_ >= batches_) {
            finish();
            return;
        }
        for (int i = 0; i < 3; ++i) {
            TraceRecord r;
            r.op = OpClass::IntAlu;
            r.pc = static_cast<Addr>(produced_ * 3 + i);
            buffer()->push_back(r);
        }
        ++produced_;
    }

  private:
    int batches_;
    int produced_ = 0;
};

TEST(GeneratingSource, RefillsInBatches)
{
    CountingSource src(4);
    TraceRecord r;
    std::vector<Addr> pcs;
    while (src.next(r))
        pcs.push_back(r.pc);
    ASSERT_EQ(pcs.size(), 12u);
    for (std::size_t i = 0; i < pcs.size(); ++i)
        EXPECT_EQ(pcs[i], i);
}

/** Overrides only next(), so it is read through the default view. */
class NextOnlySource : public TraceSource
{
  public:
    explicit NextOnlySource(std::vector<TraceRecord> v) : inner_(std::move(v))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        ++calls;
        return inner_.next(out);
    }

    int calls = 0;

  private:
    VectorSource inner_;
};

std::vector<TraceRecord>
numbered(int n)
{
    std::vector<TraceRecord> v;
    for (int i = 0; i < n; ++i)
        v.push_back(rec(OpClass::IntAlu, static_cast<Addr>(4 * i)));
    return v;
}

TEST(TraceSourceView, DefaultViewDeliversTheNextStream)
{
    const std::vector<TraceRecord> v = numbered(10);
    NextOnlySource src(v);
    std::vector<TraceRecord> got;
    for (;;) {
        const std::span<const TraceRecord> view = src.view();
        EXPECT_EQ(src.calls, static_cast<int>(got.size()) + 1);
        if (view.empty())
            break;
        ASSERT_EQ(view.size(), 1u);
        // The record is taken from next() once, when first viewed.
        EXPECT_EQ(src.view().data(), view.data());
        EXPECT_EQ(src.calls, static_cast<int>(got.size()) + 1);
        got.push_back(view.front());
        src.consume(1);
    }
    EXPECT_EQ(got, v);
    EXPECT_TRUE(src.view().empty());
}

TEST(TraceSourceView, VectorAndLimitViewsReadInPlace)
{
    const std::vector<TraceRecord> v = numbered(10);
    LimitSource src(std::make_unique<VectorSource>(v), 7);
    std::span<const TraceRecord> view = src.view();
    ASSERT_EQ(view.size(), 7u); // clamped at the limit
    EXPECT_EQ(view.front(), v[0]);
    src.consume(3);
    view = src.view();
    ASSERT_EQ(view.size(), 4u);
    EXPECT_EQ(view.front(), v[3]);
    TraceRecord r;
    ASSERT_TRUE(src.next(r)); // next() and the view share one position
    EXPECT_EQ(r, v[3]);
    src.consume(3);
    EXPECT_EQ(src.delivered(), 7u);
    EXPECT_TRUE(src.view().empty());
    EXPECT_FALSE(src.next(r));
}

TEST(GeneratingSource, ViewServesEachRefillInPlace)
{
    CountingSource src(4);
    std::vector<Addr> pcs;
    for (std::span<const TraceRecord> v; !(v = src.view()).empty();) {
        EXPECT_EQ(v.size(), 3u); // one refill at a time
        for (const TraceRecord &r : v)
            pcs.push_back(r.pc);
        src.consume(v.size());
    }
    ASSERT_EQ(pcs.size(), 12u);
    for (std::size_t i = 0; i < pcs.size(); ++i)
        EXPECT_EQ(pcs[i], i);
}

} // namespace
} // namespace dbsim::trace
