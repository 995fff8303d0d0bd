/**
 * @file
 * One node of the CC-NUMA machine: the processor's cache hierarchy
 * (split L1 I/D caches, unified L2, MSHRs, TLBs, optional instruction
 * stream buffer) plus the glue to the coherence fabric.
 *
 * The Node implements cpu::CoreMemIf (data accesses and instruction
 * fetches from its core) and coher::CacheSite (invalidations and
 * downgrades from the fabric).  All caches are physically indexed and
 * tagged; the hierarchy is inclusive (an L2 invalidation or eviction
 * removes the L1 copies).
 */

#ifndef DBSIM_SIM_NODE_HPP
#define DBSIM_SIM_NODE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/directory.hpp"
#include "cpu/interfaces.hpp"
#include "cpu/ooo_core.hpp"
#include "interconnect/network.hpp"
#include "memory/cache.hpp"
#include "memory/mshr.hpp"
#include "memory/page_map.hpp"
#include "memory/stream_buffer.hpp"
#include "memory/tlb.hpp"

namespace dbsim::sim {

/** Parameters of one cache level. */
struct CacheLevelParams
{
    std::uint64_t size_bytes;
    std::uint32_t assoc;
    std::uint32_t line_bytes;
    Cycles hit_time;
    std::uint32_t mshrs;
    std::uint32_t ports;
};

/** Node (cache hierarchy) parameters; defaults follow paper Figure 1,
 *  scaled as documented in DESIGN.md. */
struct NodeParams
{
    CacheLevelParams l1i{128 * 1024, 2, 64, 1, 8, 1};
    CacheLevelParams l1d{128 * 1024, 2, 64, 1, 8, 2};
    CacheLevelParams l2{8 * 1024 * 1024, 4, 64, 20, 8, 1};
    std::uint32_t itlb_entries = 128;
    std::uint32_t dtlb_entries = 128;
    std::uint32_t page_bytes = 8192;
    Cycles tlb_miss_penalty = 40;
    std::uint32_t stream_buffer_entries = 0; ///< 0 disables (base system)
    bool perfect_icache = false;             ///< idealization (Figure 4)
    bool perfect_itlb = false;
    bool perfect_dtlb = false;
    Cycles l2_port_hold = 4;                 ///< pipelined L2 occupancy
};

/** Cache-hierarchy statistics for one node. */
struct NodeStats
{
    std::uint64_t l1i_fetches = 0;   ///< fetch-line requests
    std::uint64_t l1i_misses = 0;    ///< L1I tag misses
    std::uint64_t l1i_sbuf_hits = 0; ///< ... of which the stream buffer caught
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;       ///< primary misses
    std::uint64_t l1d_delayed_hits = 0; ///< coalesced on an in-flight fill
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t l2_delayed_hits = 0;
    std::uint64_t prefetches_dropped = 0;
    std::uint64_t flush_hints = 0;
};

/**
 * A CC-NUMA node.  The core itself is owned by the Node but constructed
 * by the System (which supplies the environment interface).
 */
class Node : public cpu::CoreMemIf, public coher::CacheSite
{
  public:
    Node(CpuId id, const NodeParams &params, mem::PageMap *page_map,
         coher::CoherenceFabric *fabric);

    CpuId id() const { return id_; }

    /** Attach the core after construction (two-phase init). */
    void attachCore(cpu::Core *core) { core_ = core; }

    // CoreMemIf
    std::optional<cpu::MemAccessResult>
    dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
               bool prefetch, Cycles *retry_at = nullptr) override;
    cpu::FetchResult instrFetch(Addr pc, Cycles now) override;
    void flushHint(Addr vaddr, Cycles now) override;

    // CacheSite
    mem::CoherState siteState(Addr block) override;
    void siteInvalidate(Addr block) override;
    void siteDowngrade(Addr block) override;

    const NodeStats &stats() const { return stats_; }
    const mem::MshrFile &l1dMshr() const { return l1d_mshr_; }
    const mem::MshrFile &l2Mshr() const { return l2_mshr_; }
    const mem::StreamBuffer &streamBuffer() const { return sbuf_; }
    const mem::MshrStats &l1dMshrStats() const { return l1d_mshr_.stats(); }
    const mem::MshrStats &l2MshrStats() const { return l2_mshr_.stats(); }
    const mem::StreamBufferStats &streamBufferStats() const
    {
        return sbuf_.stats();
    }
    const mem::TlbStats &itlbStats() const { return itlb_.stats(); }
    const mem::TlbStats &dtlbStats() const { return dtlb_.stats(); }

    /** Advance occupancy trackers to @p now (call at end of run). */
    void finalizeStats(Cycles now);

    /** Tag-array access for tests and diagnostics. */
    const mem::CacheArray &l2Array() const { return l2_; }

    void resetStats();

    void
    saveState(snap::Writer &w) const
    {
        l1i_.saveState(w);
        l1d_.saveState(w);
        l2_.saveState(w);
        l1d_mshr_.saveState(w);
        l2_mshr_.saveState(w);
        itlb_.saveState(w);
        dtlb_.saveState(w);
        sbuf_.saveState(w);
        l2_port_.saveState(w);
        w.u64(l1d_port_cycle_);
        w.u32(l1d_ports_used_);
        w.u64(stats_.l1i_fetches);
        w.u64(stats_.l1i_misses);
        w.u64(stats_.l1i_sbuf_hits);
        w.u64(stats_.l1d_accesses);
        w.u64(stats_.l1d_misses);
        w.u64(stats_.l1d_delayed_hits);
        w.u64(stats_.l2_accesses);
        w.u64(stats_.l2_misses);
        w.u64(stats_.l2_delayed_hits);
        w.u64(stats_.prefetches_dropped);
        w.u64(stats_.flush_hints);
    }

    void
    restoreState(snap::Reader &r)
    {
        l1i_.restoreState(r);
        l1d_.restoreState(r);
        l2_.restoreState(r);
        l1d_mshr_.restoreState(r);
        l2_mshr_.restoreState(r);
        itlb_.restoreState(r);
        dtlb_.restoreState(r);
        sbuf_.restoreState(r);
        l2_port_.restoreState(r);
        l1d_port_cycle_ = r.u64();
        l1d_ports_used_ = r.u32();
        stats_.l1i_fetches = r.u64();
        stats_.l1i_misses = r.u64();
        stats_.l1i_sbuf_hits = r.u64();
        stats_.l1d_accesses = r.u64();
        stats_.l1d_misses = r.u64();
        stats_.l1d_delayed_hits = r.u64();
        stats_.l2_accesses = r.u64();
        stats_.l2_misses = r.u64();
        stats_.l2_delayed_hits = r.u64();
        stats_.prefetches_dropped = r.u64();
        stats_.flush_hints = r.u64();
    }

  private:
    /** L2 access shared by data, ifetch, and stream-buffer prefetch
     *  paths.  Performs the lookup, goes to the fabric on a miss, and
     *  maintains inclusion.  Returns completion time and class. */
    struct L2Result
    {
        Cycles ready;
        coher::AccessClass cls;
        bool accepted; ///< false if the L2 MSHRs were full
    };
    L2Result accessL2(Addr block, std::uint32_t home, Addr pc,
                      bool is_write, Cycles now, bool count_access);

    void insertL1d(Addr block, mem::CoherState st);
    void insertL1i(Addr block);
    void insertL2(Addr block, mem::CoherState st, Cycles now);

    bool l1dPortAvailable(Cycles now);
    void consumeL1dPort(Cycles now);

    CpuId id_;
    NodeParams params_;
    mem::PageMap *page_map_;
    coher::CoherenceFabric *fabric_;
    cpu::Core *core_ = nullptr;

    mem::CacheArray l1i_;
    mem::CacheArray l1d_;
    mem::CacheArray l2_;
    mem::MshrFile l1d_mshr_;
    mem::MshrFile l2_mshr_;
    mem::Tlb itlb_;
    mem::Tlb dtlb_;
    mem::StreamBuffer sbuf_;
    net::Resource l2_port_;

    /** Scratch for stream-buffer refill candidates, reused across
     *  instrFetch calls (cleared per call; never serialized). */
    std::vector<Addr> ifetch_refills_;

    Cycles l1d_port_cycle_ = kNever;
    std::uint32_t l1d_ports_used_ = 0;

    NodeStats stats_;
};

} // namespace dbsim::sim

#endif // DBSIM_SIM_NODE_HPP
