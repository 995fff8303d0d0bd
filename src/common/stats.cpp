#include "common/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace dbsim::stats {

double
Histogram::fracAtLeast(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    std::uint64_t acc = 0;
    for (std::size_t b = i; b < counts_.size(); ++b)
        acc += counts_[b];
    return static_cast<double>(acc) / static_cast<double>(total_);
}

void
OccupancyTracker::advance(Cycles now, std::uint32_t in_use)
{
    if (now <= last_) {
        // Zero-width sample (or a stale timestamp): nothing to charge;
        // keep only the latest level.
        current_ = in_use;
        return;
    }
    const Cycles dt = now - last_;
    const std::size_t idx = current_ >= time_at_.size()
                                ? time_at_.size() - 1
                                : current_;
    time_at_[idx] += dt;
    last_ = now;
    current_ = in_use;
}

Cycles
OccupancyTracker::busyTime() const
{
    Cycles t = 0;
    for (std::size_t i = 1; i < time_at_.size(); ++i)
        t += time_at_[i];
    return t;
}

double
OccupancyTracker::fracAtLeast(std::uint32_t n) const
{
    const Cycles busy = busyTime();
    if (busy == 0 || n == 0)
        return n == 0 ? 1.0 : 0.0;
    Cycles t = 0;
    for (std::size_t i = n; i < time_at_.size(); ++i)
        t += time_at_[i];
    return static_cast<double>(t) / static_cast<double>(busy);
}

void
OccupancyTracker::reset()
{
    std::fill(time_at_.begin(), time_at_.end(), Cycles{0});
    last_ = 0;
    current_ = 0;
}

std::string
pct(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

} // namespace dbsim::stats
