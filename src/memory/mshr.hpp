/**
 * @file
 * Miss status holding registers (Kroft-style lockup-free cache support).
 *
 * An MshrFile tracks the set of cache-line misses currently outstanding at
 * one cache level, coalesces secondary requests to the same line, and
 * records the occupancy distribution that the paper reports in
 * Figures 2(d)-(g) / 3(d)-(g): the fraction of non-idle time during which
 * at least n registers are in use, kept both for all misses and for read
 * misses only.
 */

#ifndef DBSIM_MEMORY_MSHR_HPP
#define DBSIM_MEMORY_MSHR_HPP

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dbsim::mem {

/** Statistics exported by an MshrFile. */
struct MshrStats
{
    std::uint64_t allocations = 0;   ///< primary misses
    std::uint64_t coalesced = 0;     ///< secondary misses merged
    stats::OccupancyTracker occupancy{64};      ///< all misses
    stats::OccupancyTracker read_occupancy{64}; ///< read misses only

    void
    saveState(snap::Writer &w) const
    {
        w.u64(allocations);
        w.u64(coalesced);
        occupancy.saveState(w);
        read_occupancy.saveState(w);
    }

    void
    restoreState(snap::Reader &r)
    {
        allocations = r.u64();
        coalesced = r.u64();
        occupancy.restoreState(r);
        read_occupancy.restoreState(r);
    }
};

/**
 * A file of miss status holding registers for one cache.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t entries);

    /** Max simultaneous outstanding line misses. */
    std::uint32_t capacity() const { return capacity_; }

    /** Entries currently valid. */
    std::uint32_t inUse() const { return static_cast<std::uint32_t>(entries_.size()); }

    bool full() const { return inUse() >= capacity_; }

    /** True iff a miss to @p block is already outstanding. */
    bool outstanding(Addr block) const { return findIdx(block) >= 0; }

    /** True iff an outstanding miss to @p block is a read. */
    bool outstandingRead(Addr block) const;

    /**
     * Allocate a register for a primary miss to @p block.
     * @param now     current cycle (for occupancy accounting)
     * @param is_read true for read misses (load / ifetch)
     * @param done    cycle at which the miss will be filled
     * @param tag     opaque caller tag carried with the entry (the node
     *                stores the fill's coherence access class here so
     *                coalesced secondaries inherit the attribution
     *                without a side lookup table); never interpreted.
     * @return false if the file is full (caller must retry).
     */
    bool allocate(Addr block, bool is_read, Cycles now, Cycles done,
                  std::uint8_t tag = 0);

    /** Caller tag of the outstanding miss to @p block (0 if none). */
    std::uint8_t tagOf(Addr block) const;

    /**
     * Merge a secondary miss into an existing register.
     * @pre outstanding(block)
     * @return the fill time of the existing miss.
     */
    Cycles coalesce(Addr block, bool is_read, Cycles now);

    /**
     * Retire all registers whose fill time is <= @p now.
     * Call once per cycle (or before allocation attempts).
     */
    void drain(Cycles now);

    /** Earliest fill time among outstanding entries (kNever if empty). */
    Cycles earliestDone() const;

    /**
     * Outstanding entries whose fill time is kNever, i.e. misses that
     * can never drain.  Always zero in a healthy machine; the integrity
     * layer's end-of-run quiescence check panics otherwise.
     */
    std::uint32_t unboundedEntries() const;

    /** Fill time of the outstanding miss to @p block (kNever if none). */
    Cycles doneTimeOf(Addr block) const;

    const MshrStats &stats() const { return stats_; }
    MshrStats &stats() { return stats_; }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(entries_.size());
        for (const Entry &e : entries_) {
            w.u64(e.block);
            w.u64(e.done);
            w.boolean(e.is_read);
            w.boolean(e.has_write);
            w.u8(e.tag);
        }
        stats_.saveState(w);
    }

    void
    restoreState(snap::Reader &r)
    {
        const std::size_t n = r.length(19);
        if (n > capacity_)
            throw snap::SnapshotError("snapshot: MSHR capacity mismatch");
        entries_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            Entry e;
            e.block = r.u64();
            e.done = r.u64();
            e.is_read = r.boolean();
            e.has_write = r.boolean();
            e.tag = r.u8();
            entries_.push_back(e);
        }
        stats_.restoreState(r);
    }

  private:
    struct Entry
    {
        Addr block;
        Cycles done;
        bool is_read;     ///< true if any merged request was a read
        bool has_write;   ///< true if any merged request was a write
        std::uint8_t tag; ///< opaque caller tag (see allocate())
    };

    int findIdx(Addr block) const;
    void touchOccupancy(Cycles now);
    std::uint32_t readsInUse() const;

    std::uint32_t capacity_;
    std::vector<Entry> entries_;
    MshrStats stats_;
};

} // namespace dbsim::mem

#endif // DBSIM_MEMORY_MSHR_HPP
