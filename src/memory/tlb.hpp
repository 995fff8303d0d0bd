/**
 * @file
 * Fully associative translation lookaside buffer.
 *
 * The simulated machine uses separate 128-entry fully associative
 * instruction and data TLBs with 8 KB pages (paper Figure 1).  Misses
 * incur a fixed software/hardware-walk penalty and are charged to the
 * iTLB / dTLB components of the execution-time breakdown.
 */

#ifndef DBSIM_MEMORY_TLB_HPP
#define DBSIM_MEMORY_TLB_HPP

#include <cstdint>
#include <map>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "memory/page_map.hpp"

namespace dbsim::mem {

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
    }
};

/**
 * A fully associative, true-LRU TLB over virtual page numbers.  Each
 * entry caches its page's physical frame once the PageMap has been
 * consulted for it, so a hit does not walk the page map.
 */
class Tlb
{
  public:
    /**
     * @param entries     number of TLB entries (0 = perfect TLB)
     * @param page_bytes  page size (power of two)
     */
    Tlb(std::uint32_t entries, std::uint32_t page_bytes);

    /**
     * Access the TLB for @p vaddr and return its physical address;
     * @p hit says whether the access hit (always, for a perfect TLB).
     * A hit on an entry that carries its frame answers without @p pm; a
     * miss, an entry restored from a checkpoint, or a perfect TLB asks
     * @p pm (allocating the page to @p node on first touch).  @p pm must
     * use this TLB's page size.
     */
    Addr
    translate(Addr vaddr, PageMap &pm, std::uint32_t node, bool &hit)
    {
        Entry *e = touch(vaddr, hit);
        if (e && e->frame != kNoAddr)
            return e->frame | (vaddr & page_mask_);
        const Addr paddr = pm.translate(vaddr, node);
        if (e)
            e->frame = paddr & ~page_mask_;
        return paddr;
    }

    /** Page number of @p vaddr. */
    Addr pageOf(Addr vaddr) const { return vaddr >> page_shift_; }

    bool perfect() const { return entries_ == 0; }

    const TlbStats &stats() const { return stats_; }

    void reset();

    /** The cached frames are not saved: a restored entry looks its
     *  frame up again on its next hit. */
    void
    saveState(snap::Writer &w) const
    {
        w.u64(stamp_);
        w.u64(map_.size());
        for (const auto &[vpage, e] : map_) {
            w.u64(vpage);
            w.u64(e.stamp);
        }
        w.u64(stats_.accesses);
        w.u64(stats_.misses);
    }

    void
    restoreState(snap::Reader &r)
    {
        stamp_ = r.u64();
        map_.clear();
        const std::size_t n = r.length(16);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr vpage = r.u64();
            map_[vpage] = Entry{r.u64(), kNoAddr};
        }
        stats_.accesses = r.u64();
        stats_.misses = r.u64();
    }

  private:
    struct Entry
    {
        std::uint64_t stamp;  ///< last-use stamp (LRU order)
        Addr frame = kNoAddr; ///< physical page address, once known
    };

    /** Count an access; @p hit says whether it hit.  Returns the entry
     *  now holding the page, or nullptr for a perfect TLB. */
    Entry *touch(Addr vaddr, bool &hit);

    std::uint32_t entries_;
    std::uint32_t page_shift_;
    Addr page_mask_;
    std::uint64_t stamp_ = 0;
    /** vpage -> entry; size bounded by entries_. */
    std::map<Addr, Entry> map_;
    TlbStats stats_;
};

} // namespace dbsim::mem

#endif // DBSIM_MEMORY_TLB_HPP
