#include "coherence/migratory.hpp"

#include <algorithm>

namespace dbsim::coher {

bool
MigratoryDetector::observeWrite(Addr block, std::uint32_t copies,
                                int last_writer, std::uint32_t requester,
                                bool shared, Addr pc)
{
    if (shared)
        ++stats_.shared_writes;

    // Paper heuristic: exclusive request, exactly two cached copies, and
    // the last writer is a different node.
    if (copies == 2 && last_writer >= 0 &&
        static_cast<std::uint32_t>(last_writer) != requester) {
        if (migratory_.insert(block).second)
            ++stats_.lines_marked;
    }

    const bool mig = isMigratory(block);
    if (mig) {
        if (shared)
            ++stats_.migratory_writes;
        ++line_write_refs_[block];
        ++pc_refs_[pc];
    }
    return mig;
}

bool
MigratoryDetector::observeDirtyRead(Addr block, Addr pc)
{
    ++stats_.dirty_reads;
    const bool mig = isMigratory(block);
    if (mig) {
        ++stats_.migratory_dirty_reads;
        ++pc_refs_[pc];
    }
    return mig;
}

double
MigratoryDetector::concentration(std::vector<std::uint64_t> counts,
                                 double frac)
{
    if (counts.empty())
        return 0.0;
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t total = 0;
    for (auto c : counts)
        total += c;
    const auto target = static_cast<std::uint64_t>(frac * double(total));
    std::uint64_t acc = 0;
    std::size_t used = 0;
    for (auto c : counts) {
        acc += c;
        ++used;
        if (acc >= target)
            break;
    }
    return double(used) / double(counts.size());
}

double
MigratoryDetector::lineConcentration(double frac) const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(line_write_refs_.size());
    for (const auto &[line, n] : line_write_refs_)
        counts.push_back(n);
    return concentration(std::move(counts), frac);
}

double
MigratoryDetector::pcConcentration(double frac) const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(pc_refs_.size());
    for (const auto &[pc, n] : pc_refs_)
        counts.push_back(n);
    return concentration(std::move(counts), frac);
}

} // namespace dbsim::coher
