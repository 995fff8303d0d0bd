#include "memory/page_map.hpp"

#include "common/log.hpp"

namespace dbsim::mem {

PageMap::PageMap(std::uint32_t page_bytes, std::uint32_t num_bins,
                 std::uint32_t num_nodes)
    : page_bytes_(page_bytes), num_bins_(num_bins), num_nodes_(num_nodes)
{
    if (!isPow2(page_bytes) || !isPow2(num_bins))
        DBSIM_FATAL("page size and bin count must be powers of two");
    if (num_nodes == 0)
        DBSIM_FATAL("need at least one node");
    page_shift_ = log2i(page_bytes);
}

Addr
PageMap::translate(Addr vaddr, std::uint32_t node)
{
    const Addr vpage = vaddr >> page_shift_;
    auto it = map_.find(vpage);
    if (it == map_.end()) {
        // Bin hopping: the k-th allocated page goes to cache bin
        // (k mod bins); the physical page number encodes the bin in its
        // low bits so translations never collide.  The home node is the
        // first toucher (first-touch NUMA placement).
        const std::uint64_t seq = next_seq_++;
        const Addr ppage = seq;
        const std::uint32_t home = node % num_nodes_;
        it = map_.emplace(vpage, Phys{ppage, home}).first;
        home_by_ppage_.push_back(home);
    }
    return (it->second.ppage << page_shift_) |
           (vaddr & (page_bytes_ - 1));
}

std::uint32_t
PageMap::homeOf(Addr paddr) const
{
    const Addr ppage = paddr >> page_shift_;
    if (ppage < home_by_ppage_.size())
        return home_by_ppage_[static_cast<std::size_t>(ppage)];
    return 0;
}

} // namespace dbsim::mem
