/**
 * @file
 * Unit tests for common utilities: types helpers, deterministic RNG,
 * histograms, occupancy trackers and the log sink.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dbsim {
namespace {

TEST(Types, BlockAlign)
{
    EXPECT_EQ(blockAlign(0, 64), 0u);
    EXPECT_EQ(blockAlign(63, 64), 0u);
    EXPECT_EQ(blockAlign(64, 64), 64u);
    EXPECT_EQ(blockAlign(0x12345, 64), 0x12340u);
    EXPECT_EQ(blockAlign(0xffffffffffffffffull, 64),
              0xffffffffffffffc0ull);
}

TEST(Types, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(Types, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(64), 6u);
    EXPECT_EQ(log2i(8192), 13u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, RunLengthBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const auto n = rng.runLength(0.5, 6);
        EXPECT_GE(n, 1u);
        EXPECT_LE(n, 6u);
    }
}

TEST(Rng, ZipfSkewsTowardHead)
{
    Rng rng(13);
    std::uint64_t head = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (rng.zipf(1000, 0.9) < 100)
            ++head;
    }
    // With skew, the first 10% of items receive far more than 10%.
    EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.3);
}

TEST(Rng, ZipfInRange)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(rng.zipf(50, 1.0), 50u);
    EXPECT_EQ(rng.zipf(1, 0.8), 0u);
}

TEST(Rng, ForkIndependent)
{
    Rng a(21);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Histogram, BasicAccumulation)
{
    stats::Histogram h(8);
    h.sample(0);
    h.sample(3);
    h.sample(3);
    h.sample(100); // overflow bucket
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(8), 1u);
}

TEST(Histogram, FracAtLeast)
{
    stats::Histogram h(8);
    for (int i = 0; i < 6; ++i)
        h.sample(1);
    for (int i = 0; i < 4; ++i)
        h.sample(4);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(0), 1.0);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(2), 0.4);
    EXPECT_DOUBLE_EQ(h.fracAtLeast(5), 0.0);
}

TEST(Histogram, Mean)
{
    stats::Histogram h(16);
    h.sample(2);
    h.sample(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(OccupancyTracker, FractionAtLeast)
{
    stats::OccupancyTracker occ(4);
    occ.advance(0, 0);   // starts idle
    occ.advance(10, 1);  // idle 0..10
    occ.advance(20, 2);  // 1 in use 10..20
    occ.advance(30, 0);  // 2 in use 20..30
    occ.advance(40, 0);  // idle 30..40

    EXPECT_EQ(occ.busyTime(), 20u);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(1), 1.0);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(2), 0.5);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(3), 0.0);
}

TEST(OccupancyTracker, SaturatesAtMax)
{
    stats::OccupancyTracker occ(2);
    occ.advance(0, 5); // clamped into top bucket
    occ.advance(10, 0);
    EXPECT_EQ(occ.busyTime(), 10u);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(2), 1.0);
}

TEST(OccupancyTracker, ResetClears)
{
    stats::OccupancyTracker occ(4);
    occ.advance(0, 2);
    occ.advance(50, 0);
    occ.reset();
    EXPECT_EQ(occ.busyTime(), 0u);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(DBSIM_FATAL("bad config ", 42), std::runtime_error);
}

TEST(LogSink, ConcurrentWarningsComeOutAsWholeLines)
{
    // Sweep workers warn concurrently; the sink must emit each warning
    // as one whole line.  Under TSan this also exercises the sink lock.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    testing::internal::CaptureStderr();
    {
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back([t] {
                for (int m = 0; m < kPerThread; ++m)
                    DBSIM_WARN("t", t, " m", m);
            });
        for (std::thread &w : workers)
            w.join();
    }
    const std::string captured = testing::internal::GetCapturedStderr();

    std::istringstream in(captured);
    std::string line;
    std::set<std::pair<int, int>> seen;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        // warn: t<i> m<j> (<file>:<line>)
        std::istringstream ls(line);
        std::string tag, ti, mj, where;
        ls >> tag >> ti >> mj >> where;
        ASSERT_EQ(tag, "warn:") << line;
        ASSERT_TRUE(ti.size() > 1 && ti[0] == 't') << line;
        ASSERT_TRUE(mj.size() > 1 && mj[0] == 'm') << line;
        ASSERT_TRUE(where.size() > 2 && where.front() == '(' &&
                    where.back() == ')')
            << line;
        const int i = std::stoi(ti.substr(1));
        const int j = std::stoi(mj.substr(1));
        ASSERT_TRUE(i >= 0 && i < kThreads && j >= 0 && j < kPerThread)
            << line;
        EXPECT_TRUE(seen.insert({i, j}).second) << "duplicate: " << line;
        EXPECT_EQ(ti + " " + mj, "t" + std::to_string(i) + " m" +
                                     std::to_string(j))
            << line;
    }
    EXPECT_EQ(lines, kThreads * kPerThread);
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Stats, PctFormatting)
{
    EXPECT_EQ(stats::pct(0.1234), "12.3%");
    EXPECT_EQ(stats::pct(1.0), "100.0%");
}

} // namespace
} // namespace dbsim
