#include "trace/source.hpp"

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
GeneratingSource::saveBurst(snap::Writer &w,
                            std::span<const TraceRecord> rest) const
{
    w.u64(ring_.size() - head_ + rest.size());
    for (std::size_t i = head_; i < ring_.size(); ++i)
        saveRecord(w, ring_[i]);
    for (const TraceRecord &rec : rest)
        saveRecord(w, rec);
    w.boolean(done_);
}

void
GeneratingSource::restoreBurst(snap::Reader &r)
{
    ring_.clear();
    head_ = 0;
    const std::size_t n = r.length(28);
    for (std::size_t i = 0; i < n; ++i)
        ring_.push_back(loadRecord(r));
    done_ = r.boolean();
}

} // namespace dbsim::trace
