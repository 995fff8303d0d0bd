#include "trace/source.hpp"

#include <string>

#include "common/log.hpp"

namespace dbsim::trace {

bool
GeneratingSource::reload()
{
    while (head_ == ring_.size()) {
        if (done_)
            return false;
        ring_.clear();
        head_ = 0;
        if (ring_.capacity() < kRingRecords)
            ring_.reserve(kRingRecords);
        refill();
        DBSIM_ASSERT(ring_.size() <= kRingRecords,
                     "a refill overran the trace ring: ", ring_.size(),
                     " records");
    }
    return true;
}

void
GeneratingSource::saveState(snap::Writer &w) const
{
    w.u64(ring_.size() - head_);
    for (std::size_t i = head_; i < ring_.size(); ++i)
        saveRecord(w, ring_[i]);
    w.boolean(done_);
}

void
GeneratingSource::restoreState(snap::Reader &r)
{
    const std::size_t n = r.length(28);
    if (n > kRingRecords)
        throw snap::SnapshotError("snapshot: " + std::to_string(n) +
                                  " trace records, more than the ring "
                                  "holds");
    ring_.clear();
    ring_.reserve(kRingRecords);
    head_ = 0;
    for (std::size_t i = 0; i < n; ++i)
        ring_.push_back(loadRecord(r));
    done_ = r.boolean();
}

} // namespace dbsim::trace
