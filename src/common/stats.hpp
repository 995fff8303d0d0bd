/**
 * @file
 * A small statistics package: counters, ratios, histograms, and
 * occupancy distributions, with uniform text formatting.
 *
 * Components own their stats as plain members of these types; the system
 * aggregates and prints them.  There is deliberately no global registry.
 */

#ifndef DBSIM_COMMON_STATS_HPP
#define DBSIM_COMMON_STATS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::stats {

/**
 * A histogram over a fixed number of integer-indexed buckets with an
 * overflow bucket.  Used e.g. for stream lengths and queue depths.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 16) : counts_(buckets + 1, 0) {}

    void
    sample(std::uint64_t value, std::uint64_t weight = 1)
    {
        const std::size_t idx =
            value >= counts_.size() - 1 ? counts_.size() - 1
                                        : static_cast<std::size_t>(value);
        counts_[idx] += weight;
        total_ += weight;
        sum_ += value * weight;
    }

    std::uint64_t total() const { return total_; }
    double mean() const { return total_ ? double(sum_) / double(total_) : 0.0; }
    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::size_t buckets() const { return counts_.size(); }

    /** Fraction of samples with value >= i (for occupancy curves). */
    double fracAtLeast(std::size_t i) const;

    void
    reset()
    {
        for (auto &c : counts_)
            c = 0;
        total_ = sum_ = 0;
    }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(counts_.size());
        for (std::uint64_t c : counts_)
            w.u64(c);
        w.u64(total_);
        w.u64(sum_);
    }

    void
    restoreState(snap::Reader &r)
    {
        const std::size_t n = r.length(8);
        if (n != counts_.size())
            throw snap::SnapshotError("snapshot: histogram bucket mismatch");
        for (auto &c : counts_)
            c = r.u64();
        total_ = r.u64();
        sum_ = r.u64();
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Tracks, over simulated time, how many units of a resource are in use,
 * and reports the distribution of occupancy conditioned on the resource
 * being non-idle.  This is exactly the "MSHR occupancy distribution" of
 * the paper's Figures 2(d)-(g): the fraction of non-idle time with at
 * least n entries in use.
 */
class OccupancyTracker
{
  public:
    explicit OccupancyTracker(std::uint32_t max_units = 8)
        : time_at_(max_units + 1, 0) {}

    /**
     * Advance time to @p now (charging the elapsed interval to the
     * occupancy level in effect since the last call), then set the
     * occupancy to @p in_use.  Call on every occupancy change.
     *
     * Repeated samples at the same timestamp are deduplicated: they
     * charge nothing and only the latest level survives, so callers
     * that re-sample in a retry loop (e.g. MshrFile::drain on every
     * failed allocation) cannot skew the distribution.
     */
    void advance(Cycles now, std::uint32_t in_use);

    std::uint32_t current() const { return current_; }

    /** Total non-idle time (occupancy >= 1). */
    Cycles busyTime() const;

    /** Fraction of non-idle time with occupancy >= n. */
    double fracAtLeast(std::uint32_t n) const;

    void reset();

    void
    saveState(snap::Writer &w) const
    {
        w.u64(time_at_.size());
        for (Cycles t : time_at_)
            w.u64(t);
        w.u64(last_);
        w.u32(current_);
    }

    void
    restoreState(snap::Reader &r)
    {
        const std::size_t n = r.length(8);
        if (n != time_at_.size())
            throw snap::SnapshotError("snapshot: occupancy level mismatch");
        for (auto &t : time_at_)
            t = r.u64();
        last_ = r.u64();
        current_ = r.u32();
    }

  private:
    std::vector<Cycles> time_at_;
    Cycles last_ = 0;
    std::uint32_t current_ = 0;
};

/** Percentage with one decimal, e.g. 12.3%. */
std::string pct(double fraction);

} // namespace dbsim::stats

#endif // DBSIM_COMMON_STATS_HPP
