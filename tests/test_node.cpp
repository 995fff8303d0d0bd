/**
 * @file
 * Unit tests for the Node cache hierarchy: hit/miss timing through L1,
 * L2 and the fabric, delayed hits on in-flight lines, non-inclusive
 * victim handling, TLB penalties, write upgrades, the instruction-fetch
 * path with and without the stream buffer, and the flush-hint path.
 */

#include <gtest/gtest.h>

#include "coherence/directory.hpp"
#include "memory/page_map.hpp"
#include "sim/node.hpp"

namespace dbsim::sim {
namespace {

using coher::AccessClass;
using mem::CoherState;

struct NodeFixture : ::testing::Test
{
    NodeFixture()
        : page_map(8192, 16, 2), fabric(2),
          node0(0, params(), &page_map, &fabric),
          node1(1, params(), &page_map, &fabric)
    {
        fabric.attachSite(0, &node0);
        fabric.attachSite(1, &node1);
    }

    static NodeParams
    params()
    {
        NodeParams p;
        p.l1i = {4 * 1024, 2, 64, 1, 8, 1};
        p.l1d = {4 * 1024, 2, 64, 1, 8, 2};
        p.l2 = {32 * 1024, 4, 64, 20, 8, 1};
        return p;
    }

    cpu::MemAccessResult
    access(Node &n, Addr va, bool write, Cycles now)
    {
        auto r = n.dataAccess(va, 0x100, write, now, false);
        EXPECT_TRUE(r.has_value());
        return *r;
    }

    mem::PageMap page_map;
    coher::CoherenceFabric fabric;
    Node node0;
    Node node1;
};

TEST_F(NodeFixture, ColdMissThenL1Hit)
{
    const auto miss = access(node0, 0x10000, false, 0);
    EXPECT_EQ(miss.cls, AccessClass::LocalMem);
    EXPECT_GT(miss.ready, 80u);

    const Cycles after = miss.ready + 1;
    const auto hit = access(node0, 0x10000, false, after);
    EXPECT_EQ(hit.cls, AccessClass::L1Hit);
    EXPECT_EQ(hit.ready, after + 1);
    EXPECT_EQ(node0.stats().l1d_misses, 1u);
    EXPECT_EQ(node0.stats().l1d_accesses, 2u);
}

TEST_F(NodeFixture, DelayedHitWaitsForFill)
{
    const auto miss = access(node0, 0x10000, false, 0);
    // Access the same line while the fill is in flight: the data cannot
    // arrive before the original fill.
    const auto delayed = access(node0, 0x10008, false, 5);
    EXPECT_GE(delayed.ready, miss.ready);
    EXPECT_EQ(node0.stats().l1d_delayed_hits, 1u);
    EXPECT_EQ(node0.stats().l1d_misses, 1u);
}

TEST_F(NodeFixture, WriteUpgradeOnSharedLine)
{
    // Both nodes read the line (Shared everywhere), then node0 writes:
    // that takes an upgrade through the fabric, not an L1 hit.
    const auto r0 = access(node0, 0x20000, false, 0);
    access(node1, 0x20000, false, 1000);
    const auto w = access(node0, 0x20000, true, 2000);
    EXPECT_GT(w.ready, 2000u + 10u); // not a 1-cycle hit
    EXPECT_GT(fabric.stats().upgrades + fabric.stats().writes_local +
                  fabric.stats().writes_remote,
              0u);
    (void)r0;
    // Node1's copy must be gone.
    EXPECT_EQ(node1.siteState(blockAlign(page_map.translate(0x20000, 0),
                                         64)),
              CoherState::Invalid);
}

TEST_F(NodeFixture, StoreHitOnExclusiveIsSilent)
{
    const auto rd = access(node0, 0x30000, false, 0); // grants E
    const Cycles t = rd.ready + 1;
    const auto wr = access(node0, 0x30000, true, t);
    EXPECT_EQ(wr.cls, AccessClass::L1Hit);
    EXPECT_EQ(wr.ready, t + 1);
}

TEST_F(NodeFixture, DtlbMissAddsPenalty)
{
    const auto a = access(node0, 0x40000, false, 0);
    // New page: dTLB miss flagged; a second access to the same page
    // hits the TLB.
    EXPECT_TRUE(a.dtlb_miss);
    const auto b = access(node0, 0x40008, false, a.ready + 1);
    EXPECT_FALSE(b.dtlb_miss);
}

TEST_F(NodeFixture, PerfectDtlbNeverMisses)
{
    NodeParams p = params();
    p.perfect_dtlb = true;
    Node n(0, p, &page_map, &fabric);
    // Not attached to the fabric as a site: use addresses homed at 0.
    auto r = n.dataAccess(0x900000, 0x100, false, 0, false);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->dtlb_miss);
}

TEST_F(NodeFixture, NonInclusiveVictimSurvivesInL1)
{
    // Keep one line hot in the L1 (periodic re-touches) while streaming
    // far more than the L2's capacity past it.  The L1 hits do not
    // refresh the line's L2 LRU state, so the L2 eventually evicts it;
    // in the non-inclusive hierarchy the L1 copy survives and the node
    // still answers for the line.
    const auto first = access(node0, 0x50000, false, 0);
    Cycles t = first.ready + 1;
    const Addr pblock = first.pblock;

    bool evicted_from_l2 = false;
    for (int i = 1; i <= 1500; ++i) {
        const auto r = access(
            node0, 0x100000 + static_cast<Addr>(i) * 64, false, t);
        t = r.ready + 1;
        if (i % 8 == 0) {
            const auto keep = access(node0, 0x50000, false, t);
            EXPECT_EQ(keep.cls, AccessClass::L1Hit)
                << "hot line lost at iteration " << i;
            t = keep.ready + 1;
        }
        if (!node0.l2Array().contains(pblock))
            evicted_from_l2 = true;
    }
    EXPECT_TRUE(evicted_from_l2) << "stream never evicted the L2 copy";
    EXPECT_NE(node0.siteState(pblock), CoherState::Invalid);
}

TEST_F(NodeFixture, IfetchMissThenHit)
{
    const auto f0 = node0.instrFetch(0x60000, 0);
    EXPECT_FALSE(f0.l1_hit);
    EXPECT_GT(f0.ready, 50u);
    const auto f1 = node0.instrFetch(0x60004, f0.ready + 1);
    EXPECT_TRUE(f1.l1_hit);
}

TEST_F(NodeFixture, StreamBufferCoversSequentialFetch)
{
    NodeParams p = params();
    p.stream_buffer_entries = 4;
    mem::PageMap pm(8192, 16, 1);
    coher::CoherenceFabric fab(1);
    Node n(0, p, &pm, &fab);
    fab.attachSite(0, &n);

    // First line misses and arms the buffer; following sequential lines
    // are covered by prefetches.
    auto f = n.instrFetch(0x70000, 0);
    Cycles t = f.ready + 50;
    for (int i = 1; i <= 6; ++i) {
        f = n.instrFetch(0x70000 + static_cast<Addr>(i) * 64, t);
        t = f.ready + 50;
    }
    EXPECT_GE(n.stats().l1i_sbuf_hits, 4u);
    EXPECT_GT(n.streamBufferStats().hitRate(), 0.4);
}

TEST_F(NodeFixture, FlushPushesLineHome)
{
    const auto w = access(node0, 0x80000, true, 0);
    node0.flushHint(0x80000, w.ready + 1);
    EXPECT_EQ(node0.stats().flush_hints, 1u);
    EXPECT_EQ(fabric.stats().flushes, 1u);
    // The next reader on another node is serviced by memory, not c2c.
    const auto r = access(node1, 0x80000, false, w.ready + 500);
    EXPECT_NE(r.cls, AccessClass::RemoteDirty);
}

TEST_F(NodeFixture, PrefetchWarmsCacheWithoutCounting)
{
    (void)node0.dataAccess(0x90000, 0x100, false, 0, /*prefetch=*/true);
    EXPECT_EQ(node0.stats().l1d_accesses, 0u);
    // A later demand access hits (once the prefetch fill completes).
    const auto r = access(node0, 0x90000, false, 1000);
    EXPECT_EQ(r.cls, AccessClass::L1Hit);
}

TEST_F(NodeFixture, PrefetchBypassesTheDtlbAndTranslatesExactly)
{
    // A prefetch to a fresh page allocates it (first touch) without
    // touching the dTLB; the demand access after it misses the dTLB and
    // then hits it, every time at the page map's address.
    const auto p = node0.dataAccess(0xd0000, 0x100, false, 0, true);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(node0.dtlbStats().accesses, 0u);
    const Addr line = blockAlign(page_map.translate(0xd0000, 0), 64);
    EXPECT_EQ(p->pblock, line);
    const auto miss = access(node0, 0xd0040, false, 1000);
    EXPECT_TRUE(miss.dtlb_miss);
    EXPECT_EQ(miss.pblock, line + 64);
    const auto hit = access(node0, 0xd0000, true, 2000);
    EXPECT_FALSE(hit.dtlb_miss);
    EXPECT_EQ(hit.pblock, line);
    EXPECT_EQ(node0.dtlbStats().accesses, 2u);
}

TEST_F(NodeFixture, FetchTranslatesThroughTheItlb)
{
    const auto f0 = node0.instrFetch(0xe0000, 0);
    EXPECT_TRUE(f0.itlb_miss);
    const auto f1 = node0.instrFetch(0xe1000, f0.ready + 1);
    EXPECT_FALSE(f1.itlb_miss); // same 8 KB page
    // Both lines sit in the frame the page map gave the page.
    const Addr frame = page_map.translate(0xe0000, 0);
    EXPECT_NE(node0.siteState(blockAlign(frame, 64)), CoherState::Invalid);
    EXPECT_NE(node0.siteState(blockAlign(frame + 0x1000, 64)),
              CoherState::Invalid);
}

TEST_F(NodeFixture, PortLimitRefusesThirdAccessInCycle)
{
    access(node0, 0xa0000, false, 0);
    access(node0, 0xa1000, false, 0);
    auto r3 = node0.dataAccess(0xa2000, 0x100, false, 0, false);
    EXPECT_FALSE(r3.has_value()); // dual-ported L1D
    auto r4 = node0.dataAccess(0xa2000, 0x100, false, 1, false);
    EXPECT_TRUE(r4.has_value());
}

TEST_F(NodeFixture, MshrFullSetsRetryHint)
{
    NodeParams p = params();
    p.l1d.mshrs = 1;
    p.l2.mshrs = 1;
    mem::PageMap pm(8192, 16, 1);
    coher::CoherenceFabric fab(1);
    Node n(0, p, &pm, &fab);
    fab.attachSite(0, &n);

    auto first = n.dataAccess(0xb0000, 0x100, false, 0, false);
    ASSERT_TRUE(first.has_value());
    Cycles retry = 0;
    auto second = n.dataAccess(0xb1000, 0x100, false, 1, false, &retry);
    EXPECT_FALSE(second.has_value());
    EXPECT_GE(retry, first->ready); // retry once the register frees
}

TEST_F(NodeFixture, SiteInvalidateClearsAllLevels)
{
    const auto r = access(node0, 0xc0000, false, 0);
    node0.siteInvalidate(r.pblock);
    EXPECT_EQ(node0.siteState(r.pblock), CoherState::Invalid);
    // Next access misses again.
    const auto r2 = access(node0, 0xc0000, false, r.ready + 100);
    EXPECT_NE(r2.cls, AccessClass::L1Hit);
}

TEST_F(NodeFixture, ResetStatsClearsCounters)
{
    access(node0, 0xd0000, false, 0);
    node0.resetStats();
    EXPECT_EQ(node0.stats().l1d_accesses, 0u);
    EXPECT_EQ(node0.stats().l1d_misses, 0u);
}

} // namespace
} // namespace dbsim::sim
