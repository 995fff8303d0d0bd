#include "memory/tlb.hpp"

#include <limits>

#include "common/log.hpp"

namespace dbsim::mem {

Tlb::Tlb(std::uint32_t entries, std::uint32_t page_bytes)
    : entries_(entries)
{
    if (!isPow2(page_bytes))
        DBSIM_FATAL("TLB page size must be a power of two");
    page_shift_ = log2i(page_bytes);
    page_mask_ = page_bytes - 1;
}

Tlb::Entry *
Tlb::touch(Addr vaddr, bool &hit)
{
    ++stats_.accesses;
    hit = true;
    if (perfect())
        return nullptr;

    const Addr vpage = pageOf(vaddr);
    ++stamp_;
    auto it = map_.find(vpage);
    if (it != map_.end()) {
        it->second.stamp = stamp_;
        return &it->second;
    }

    hit = false;
    ++stats_.misses;
    if (map_.size() >= entries_) {
        // Evict the true-LRU entry: use stamps are unique, so the
        // minimum stamp names one victim.
        auto victim = map_.begin();
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (auto jt = map_.begin(); jt != map_.end(); ++jt) {
            if (jt->second.stamp < oldest) {
                oldest = jt->second.stamp;
                victim = jt;
            }
        }
        map_.erase(victim);
    }
    return &map_.emplace(vpage, Entry{stamp_}).first->second;
}

void
Tlb::reset()
{
    map_.clear();
    stamp_ = 0;
    stats_ = TlbStats{};
}

} // namespace dbsim::mem
