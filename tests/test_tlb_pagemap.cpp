/**
 * @file
 * Unit tests for the TLBs and the bin-hopping, first-touch page map.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/snapshot.hpp"
#include "memory/page_map.hpp"
#include "memory/tlb.hpp"

namespace dbsim::mem {
namespace {

/** One access through @p tlb; true on a hit. */
bool
access(Tlb &tlb, Addr vaddr)
{
    static PageMap pm(8192, 16, 4);
    bool hit = false;
    (void)tlb.translate(vaddr, pm, 0, hit);
    return hit;
}

TEST(Tlb, HitAfterMiss)
{
    Tlb tlb(4, 8192);
    EXPECT_FALSE(access(tlb, 0x1000));
    EXPECT_TRUE(access(tlb, 0x1000));
    EXPECT_TRUE(access(tlb, 0x1fff)); // same page
    EXPECT_FALSE(access(tlb, 0x2000)); // next page
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2, 8192);
    access(tlb, 0x0000);  // page 0
    access(tlb, 0x2000);  // page 1
    access(tlb, 0x0000);  // touch page 0 (page 1 is now LRU)
    access(tlb, 0x4000);  // page 2 evicts page 1
    EXPECT_TRUE(access(tlb, 0x0000));
    EXPECT_FALSE(access(tlb, 0x2000));
}

TEST(Tlb, PerfectNeverMisses)
{
    Tlb tlb(0, 8192);
    for (Addr a = 0; a < 100; ++a)
        EXPECT_TRUE(access(tlb, a * 8192));
    EXPECT_EQ(tlb.stats().misses, 0u);
    EXPECT_EQ(tlb.stats().accesses, 100u);
}

TEST(Tlb, MissRate)
{
    Tlb tlb(128, 8192);
    for (int i = 0; i < 64; ++i)
        access(tlb, static_cast<Addr>(i) * 8192);
    for (int r = 0; r < 3; ++r)
        for (int i = 0; i < 64; ++i)
            access(tlb, static_cast<Addr>(i) * 8192);
    EXPECT_DOUBLE_EQ(tlb.stats().missRate(), 64.0 / 256.0);
}

TEST(Tlb, ResetClearsContents)
{
    Tlb tlb(8, 8192);
    access(tlb, 0x0);
    tlb.reset();
    EXPECT_FALSE(access(tlb, 0x0));
    EXPECT_EQ(tlb.stats().accesses, 1u);
}

/**
 * Translate @p vas through @p tlb and check each address against a
 * reference page map driven by PageMap::translate alone, in the same
 * order: equal addresses, homes and first-touch order.  Returns the
 * number of hits.
 */
std::uint64_t
expectTranslationsMatch(Tlb &tlb, PageMap &pm, const std::vector<Addr> &vas)
{
    PageMap ref(8192, 16, 4);
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < vas.size(); ++i) {
        const std::uint32_t node = static_cast<std::uint32_t>(i % 4);
        bool hit = false;
        const Addr pa = tlb.translate(vas[i], pm, node, hit);
        EXPECT_EQ(pa, ref.translate(vas[i], node)) << "access " << i;
        EXPECT_EQ(pa, pm.translate(vas[i], node)) << "access " << i;
        EXPECT_EQ(pm.homeOf(pa), ref.homeOf(pa));
        hits += hit;
    }
    EXPECT_EQ(pm.pagesTouched(), ref.pagesTouched());
    return hits;
}

TEST(Tlb, HitReturnsThePageMapTranslation)
{
    // Two entries over three pages, round-robin and back and forth:
    // hits, evictions and refills, with varying page offsets.
    Tlb tlb(2, 8192);
    PageMap pm(8192, 16, 4);
    std::vector<Addr> vas;
    for (int r = 0; r < 6; ++r)
        for (Addr page : {Addr{5}, Addr{9}, Addr{5}, Addr{2}, Addr{9}})
            vas.push_back(page * 8192 + static_cast<Addr>(r) * 1000 + 8);
    const std::uint64_t hits = expectTranslationsMatch(tlb, pm, vas);
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, vas.size());
    EXPECT_EQ(tlb.stats().accesses, vas.size());
    EXPECT_EQ(tlb.stats().misses, vas.size() - hits);
}

TEST(Tlb, RestoredEntriesTranslateCorrectly)
{
    // Saved entries carry no frame; after a restore a hit asks the page
    // map once and then answers from the entry.
    Tlb tlb(4, 8192);
    PageMap pm(8192, 16, 4);
    bool hit = false;
    for (Addr page = 0; page < 4; ++page)
        (void)tlb.translate(page * 8192 + 64, pm, 1, hit);
    snap::Writer w;
    tlb.saveState(w);
    snap::Reader r(w.bytes());
    Tlb restored(4, 8192);
    restored.restoreState(r);
    for (int round = 0; round < 2; ++round) {
        for (Addr page = 0; page < 4; ++page) {
            const Addr va = page * 8192 + 100 + round;
            EXPECT_EQ(restored.translate(va, pm, 2, hit),
                      pm.translate(va, 2));
            EXPECT_TRUE(hit);
        }
    }
    EXPECT_EQ(pm.pagesTouched(), 4u);
}

TEST(Tlb, PerfectTlbTranslatesThroughThePageMap)
{
    Tlb tlb(0, 8192);
    PageMap pm(8192, 16, 4);
    std::vector<Addr> vas;
    for (Addr a = 0; a < 40; ++a)
        vas.push_back((a % 7) * 8192 + a * 24);
    EXPECT_EQ(expectTranslationsMatch(tlb, pm, vas), vas.size());
    EXPECT_EQ(tlb.stats().misses, 0u);
}

TEST(PageMap, TranslationStable)
{
    PageMap pm(8192, 16, 4);
    const Addr p1 = pm.translate(0x123456, 2);
    const Addr p2 = pm.translate(0x123456, 3); // already mapped
    EXPECT_EQ(p1, p2);
}

TEST(PageMap, OffsetPreserved)
{
    PageMap pm(8192, 16, 4);
    const Addr p = pm.translate(0xabcdef, 0);
    EXPECT_EQ(p & 8191u, 0xabcdefull & 8191u);
}

TEST(PageMap, DistinctPagesDistinctFrames)
{
    PageMap pm(8192, 16, 4);
    std::set<Addr> frames;
    for (Addr v = 0; v < 100; ++v)
        frames.insert(pm.translate(v * 8192, 0) / 8192);
    EXPECT_EQ(frames.size(), 100u);
}

TEST(PageMap, FirstTouchHome)
{
    PageMap pm(8192, 16, 4);
    const Addr a = pm.translate(0x10000, 3);
    EXPECT_EQ(pm.homeOf(a), 3u);
    // Second toucher does not move the page.
    const Addr b = pm.translate(0x10000, 1);
    EXPECT_EQ(pm.homeOf(b), 3u);
}

TEST(PageMap, BinHoppingSpreadsSets)
{
    // Consecutive first-touched pages land in consecutive bins: the
    // physical page number mod bins cycles.
    PageMap pm(8192, 16, 1);
    for (Addr v = 0; v < 32; ++v) {
        const Addr p = pm.translate(v * 8192, 0);
        EXPECT_EQ((p / 8192) % 16, v % 16);
    }
}

TEST(PageMap, PagesTouchedCount)
{
    PageMap pm(8192, 16, 2);
    pm.translate(0x0, 0);
    pm.translate(0x100, 0); // same page
    pm.translate(0x2000, 1);
    EXPECT_EQ(pm.pagesTouched(), 2u);
}

TEST(PageMap, HomeWrapsNodeCount)
{
    PageMap pm(8192, 16, 2);
    const Addr a = pm.translate(0x0, 7); // node id wraps mod 2
    EXPECT_EQ(pm.homeOf(a), 1u);
}

} // namespace
} // namespace dbsim::mem
