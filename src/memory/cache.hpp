/**
 * @file
 * Set-associative cache tag array with MESI-compatible line states.
 *
 * The tag array tracks state only (no data payloads are simulated).  It is
 * used for the L1 instruction cache, the dual-ported L1 data cache, and
 * the unified L2 cache of each node.  Timing and miss handling live in the
 * hierarchy / MSHR layers; this class is purely the state container, which
 * keeps it independently testable.
 */

#ifndef DBSIM_MEMORY_CACHE_HPP
#define DBSIM_MEMORY_CACHE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::mem {

/** Coherence state of a cached line (MESI). */
enum class CoherState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

const char *coherStateName(CoherState s);

/** Result of inserting a line: describes the victim, if any. */
struct Eviction
{
    Addr block;        ///< block address of the evicted line
    CoherState state;  ///< state the victim held (Modified => writeback)
};

/**
 * A set-associative, LRU, write-back tag array.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes   total capacity (power of two)
     * @param assoc        associativity
     * @param line_bytes   line size (power of two)
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t assoc,
               std::uint32_t line_bytes);

    /** Block-align an address to this cache's line size. */
    Addr blockOf(Addr addr) const { return blockAlign(addr, line_bytes_); }

    /** State of @p addr's line, Invalid if not present. */
    CoherState state(Addr addr) const;

    /** True iff line present in a valid state. */
    bool contains(Addr addr) const { return state(addr) != CoherState::Invalid; }

    /**
     * Look up @p addr; on hit, update LRU and return state.
     * @return std::nullopt on miss.
     */
    std::optional<CoherState> access(Addr addr);

    /**
     * Insert @p addr in @p st, evicting the LRU victim if the set is full.
     * @return the eviction performed, if any.
     */
    std::optional<Eviction> insert(Addr addr, CoherState st);

    /** Change the state of a present line; no-op if absent. */
    void setState(Addr addr, CoherState st);

    /** Invalidate @p addr if present. @return prior state. */
    CoherState invalidate(Addr addr);

    std::uint32_t lineBytes() const { return line_bytes_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t numSets() const { return sets_; }

    /** Number of valid lines (for tests / occupancy checks). */
    std::uint64_t validLines() const;

    void
    saveState(snap::Writer &w) const
    {
        w.u64(ways_.size());
        for (const Way &way : ways_) {
            w.u64(way.tag);
            w.u8(static_cast<std::uint8_t>(way.state));
            w.u64(way.lru);
        }
        w.u64(stamp_);
    }

    void
    restoreState(snap::Reader &r)
    {
        const std::size_t n = r.length(17);
        if (n != ways_.size())
            throw snap::SnapshotError("snapshot: cache geometry mismatch");
        for (Way &way : ways_) {
            way.tag = r.u64();
            way.state = static_cast<CoherState>(r.u8());
            way.lru = r.u64();
        }
        stamp_ = r.u64();
    }

  private:
    struct Way
    {
        Addr tag = 0;
        CoherState state = CoherState::Invalid;
        std::uint64_t lru = 0; ///< last-touch stamp
    };

    std::uint32_t setIndex(Addr addr) const;
    Way *find(Addr addr);
    const Way *find(Addr addr) const;

    std::uint32_t assoc_;
    std::uint32_t line_bytes_;
    std::uint32_t sets_;
    std::uint64_t stamp_ = 0;
    std::vector<Way> ways_; ///< sets_ * assoc_, set-major
};

} // namespace dbsim::mem

#endif // DBSIM_MEMORY_CACHE_HPP
