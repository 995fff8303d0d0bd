/**
 * @file
 * Unit tests for the MSHR file: allocation, coalescing, capacity,
 * draining, and occupancy accounting.
 */

#include <gtest/gtest.h>

#include "memory/mshr.hpp"

namespace dbsim::mem {
namespace {

TEST(Mshr, RejectsZeroEntries)
{
    EXPECT_THROW(MshrFile(0), std::runtime_error);
}

TEST(Mshr, AllocateAndDrain)
{
    MshrFile m(4);
    EXPECT_TRUE(m.allocate(0x100, true, 0, 50));
    EXPECT_TRUE(m.outstanding(0x100));
    EXPECT_EQ(m.inUse(), 1u);
    m.drain(49);
    EXPECT_TRUE(m.outstanding(0x100));
    m.drain(50);
    EXPECT_FALSE(m.outstanding(0x100));
    EXPECT_EQ(m.inUse(), 0u);
}

TEST(Mshr, FullRefusesAllocation)
{
    MshrFile m(2);
    EXPECT_TRUE(m.allocate(0x0, true, 0, 100));
    EXPECT_TRUE(m.allocate(0x40, true, 0, 100));
    EXPECT_FALSE(m.allocate(0x80, true, 0, 100));
    m.drain(100);
    EXPECT_TRUE(m.allocate(0x80, true, 100, 200));
}

TEST(Mshr, RetriedStallDoesNotSkewOccupancy)
{
    MshrFile m(1);
    // One entry busy 0..100.  A stalled competitor hammers drain() every
    // cycle from 10..90; the occupancy distribution must still see one
    // uninterrupted interval at occupancy 1.
    ASSERT_TRUE(m.allocate(0x0, true, 0, 100));
    for (Cycles now = 10; now <= 90; ++now) {
        m.drain(now);
        EXPECT_FALSE(m.allocate(0x40, true, now, now + 100));
    }
    m.drain(100);
    const auto &occ = m.stats().occupancy;
    EXPECT_EQ(occ.busyTime(), 100u);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(1), 1.0);
}

TEST(Mshr, CoalesceReturnsFillTime)
{
    MshrFile m(4);
    ASSERT_TRUE(m.allocate(0x100, true, 0, 75));
    EXPECT_EQ(m.coalesce(0x100, true, 10), 75u);
    EXPECT_EQ(m.inUse(), 1u);
    EXPECT_EQ(m.stats().coalesced, 1u);
}

TEST(Mshr, WriteJoiningReadCountsAsRead)
{
    MshrFile m(4);
    ASSERT_TRUE(m.allocate(0x100, /*is_read=*/false, 0, 60));
    EXPECT_FALSE(m.outstandingRead(0x100));
    m.coalesce(0x100, /*is_read=*/true, 5);
    EXPECT_TRUE(m.outstandingRead(0x100));
}

TEST(Mshr, OccupancyTracksAllAndReads)
{
    MshrFile m(4);
    // One read miss outstanding 0..100, one write miss 50..100.
    ASSERT_TRUE(m.allocate(0x0, true, 0, 100));
    ASSERT_TRUE(m.allocate(0x40, false, 50, 100));
    m.drain(100);
    m.drain(150); // idle tail should not affect busy fractions

    const auto &all = m.stats().occupancy;
    EXPECT_EQ(all.busyTime(), 100u);
    EXPECT_DOUBLE_EQ(all.fracAtLeast(1), 1.0);
    EXPECT_DOUBLE_EQ(all.fracAtLeast(2), 0.5);

    const auto &rd = m.stats().read_occupancy;
    EXPECT_EQ(rd.busyTime(), 100u);
    EXPECT_DOUBLE_EQ(rd.fracAtLeast(2), 0.0);
}

TEST(Mshr, AllocationsCounted)
{
    MshrFile m(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(m.allocate(static_cast<Addr>(i) * 64, true, 0, 10));
    EXPECT_EQ(m.stats().allocations, 5u);
}

} // namespace
} // namespace dbsim::mem
