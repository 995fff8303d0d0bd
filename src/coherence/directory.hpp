/**
 * @file
 * Invalidation-based four-state MESI directory coherence fabric for the
 * CC-NUMA system (paper section 2.4).
 *
 * One CoherenceFabric instance serves the whole machine.  Each node's L2
 * miss enters the fabric, which walks the protocol path -- requester bus,
 * network, home directory, memory or remote owner -- acquiring timing
 * Resources along the way, updates the directory and the remote caches'
 * states synchronously, and returns the completion time plus the miss
 * class (local / remote / cache-to-cache "dirty").  The migratory
 * detector observes every exclusive request and dirty read.
 */

#ifndef DBSIM_COHERENCE_DIRECTORY_HPP
#define DBSIM_COHERENCE_DIRECTORY_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "coherence/migratory.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "interconnect/network.hpp"
#include "memory/cache.hpp"
#include "common/mutator.hpp"

namespace dbsim::coher {

class CoherenceChecker;

/** Read-only view of one directory entry (for the invariant checker
 *  and diagnostics). */
struct DirSnapshot
{
    bool present = false;      ///< directory has an entry for the block
    std::uint32_t sharers = 0; ///< bitmask of nodes with Shared copies
    int owner = -1;            ///< node holding E/M, or -1
    int last_writer = -1;      ///< last node granted write ownership
};

/** Classification of where a data access was serviced. */
enum class AccessClass : std::uint8_t {
    L1Hit,      ///< hit in the first-level cache
    L2Hit,      ///< hit in the second-level cache
    LocalMem,   ///< L2 miss serviced by local memory
    RemoteMem,  ///< L2 miss serviced by remote memory
    RemoteDirty,///< L2 miss serviced by a cache-to-cache transfer
};

/**
 * Interface through which the fabric manipulates a node's cached state.
 * Implemented by sim::Node; it must invalidate/downgrade the L2 and the
 * L1s inclusively and notify the core (speculative-load violations).
 */
class CacheSite
{
  public:
    virtual ~CacheSite() = default;

    /** Coherence state of @p block in this node's L2. */
    virtual mem::CoherState siteState(Addr block) = 0;

    /** Invalidate @p block across the node's hierarchy. */
    virtual void siteInvalidate(Addr block) = 0;

    /** Downgrade @p block to Shared across the node's hierarchy. */
    virtual void siteDowngrade(Addr block) = 0;
};

/** Protocol timing parameters (contentionless hold times, cycles). */
struct FabricParams
{
    Cycles bus_hold = 6;      ///< split-transaction bus occupancy per phase
    Cycles dir_hold = 10;     ///< directory controller service time
    Cycles dram_hold = 50;    ///< DRAM access time
    Cycles resp_overhead = 14;///< fill/response overhead at the requester
    Cycles owner_l2_hold = 20;///< remote owner's L2 access for a transfer
    Cycles c2c_extra = 100;   ///< additional 3-hop protocol overhead

    /**
     * Latency scale applied to dirty reads of lines already marked
     * migratory -- the paper's approximate upper bound for the flush
     * optimization selectively reduces migratory read latency by 40%
     * (factor 0.6) to reflect service at memory (section 4.2).
     */
    double migratory_read_factor = 1.0;

    /**
     * Adaptive migratory protocol (Cox-Fowler / Stenstrom et al., the
     * paper's footnote 2): a read miss to a line already detected as
     * migratory is granted exclusively (the previous owner invalidates
     * instead of downgrading), so the reader's subsequent write hits
     * locally without an upgrade.  The paper argues this cannot help
     * under a relaxed model because write latency is already hidden;
     * bench/ablation_migratory checks that claim.
     */
    bool adaptive_migratory = false;

    /**
     * When true, flush() invalidates the flushing cache's copy instead
     * of keeping a clean Shared copy (ablation of the design choice the
     * paper calls out: invalidating neutralizes the gains because the
     * flusher's next read misses).
     */
    bool flush_invalidates = false;
};

/** Result of a fabric transaction. */
struct FabricResult
{
    Cycles ready;          ///< cycle the data is available at the L2
    AccessClass cls;       ///< service classification
    mem::CoherState grant; ///< state granted to the requester's caches
};

/** Aggregate fabric statistics. */
struct FabricStats
{
    std::uint64_t reads_local = 0;
    std::uint64_t reads_remote = 0;
    std::uint64_t reads_dirty = 0;
    std::uint64_t writes_local = 0;
    std::uint64_t writes_remote = 0;
    std::uint64_t writes_dirty = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t migratory_handoffs = 0; ///< adaptive exclusive grants
    std::uint64_t invalidations_sent = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t flushes = 0;

    std::uint64_t
    totalMisses() const
    {
        return reads_local + reads_remote + reads_dirty + writes_local +
               writes_remote + writes_dirty;
    }

    std::uint64_t
    dirtyMisses() const
    {
        return reads_dirty + writes_dirty;
    }
};

/**
 * The machine-wide coherence fabric.
 */
class CoherenceFabric
{
  public:
    CoherenceFabric(std::uint32_t num_nodes, FabricParams params = {},
                    net::MeshParams mesh_params = {});

    /** Register the cache site for @p node (must be done for all nodes). */
    void attachSite(std::uint32_t node, CacheSite *site);

    std::uint32_t numNodes() const { return num_nodes_; }

    /**
     * Read (GetS) for @p block whose home is @p home, issued by @p node
     * at @p now.  @p pc is the requesting instruction (for migratory
     * characterization).  The line is granted Exclusive if uncached,
     * Shared otherwise; remote M copies are downgraded with a
     * cache-to-cache transfer.
     */
    FabricResult read(std::uint32_t node, Addr block, std::uint32_t home,
                      Cycles now, Addr pc);

    /**
     * Write / read-exclusive (GetX or Upgrade).  Invalidates all other
     * copies and grants Modified ownership.
     */
    FabricResult write(std::uint32_t node, Addr block, std::uint32_t home,
                       Cycles now, Addr pc);

    /**
     * L2 eviction notification.  @p dirty selects a writeback of modified
     * data versus a silent clean replacement hint.
     */
    void evict(std::uint32_t node, Addr block, std::uint32_t home,
               bool dirty, Cycles now);

    /**
     * Flush / WriteThrough hint (paper section 4.2): if @p node holds the
     * block Modified, push the data back to the home memory while keeping
     * a clean Shared copy (unsolicited sharing writeback).  Non-blocking
     * for the issuing processor.
     * @return completion time of the writeback (kNever if it was a no-op).
     */
    Cycles flush(std::uint32_t node, Addr block, std::uint32_t home,
                 Cycles now);

    const FabricStats &stats() const { return stats_; }
    const MigratoryStats &migratoryStats() const { return migratory_.stats(); }
    const MigratoryDetector &migratory() const { return migratory_; }
    net::Mesh &mesh() { return mesh_; }

    /** True iff the directory believes @p block is cached somewhere. */
    bool cached(Addr block) const;

    // ------------------------------------------------------------------
    // Integrity-layer hooks
    // ------------------------------------------------------------------

    /**
     * Attach an invariant checker; every subsequent transaction is
     * recorded with it (nullptr detaches).  The checker is owned by the
     * caller (sim::System) and must outlive the fabric or be detached.
     */
    void attachChecker(CoherenceChecker *checker) { checker_ = checker; }
    CoherenceChecker *checker() const { return checker_; }

    /**
     * Attach a protocol mutator (verification layer / tests only;
     * nullptr detaches).  The seeded bug fires at its decision point in
     * every subsequent transaction; the caller owns the mutator and
     * reads its trigger count.
     */
    void attachMutator(const verify::ProtocolMutator *m) { mutator_ = m; }

    /** Snapshot of the directory entry for @p block (for audits/dumps). */
    DirSnapshot dirState(Addr block) const;

    /** The cache site attached for @p node (nullptr if none). */
    CacheSite *site(std::uint32_t node) const { return sites_[node]; }

    /** Number of blocks the directory currently tracks. */
    std::size_t dirEntries() const { return dir_.size(); }

    /** Number of tracked blocks the directory believes are cached. */
    std::size_t dirCachedEntries() const;

    void
    saveState(snap::Writer &w) const
    {
        for (const NodeRes &nr : res_) {
            nr.bus.saveState(w);
            nr.dir.saveState(w);
            nr.mem.saveState(w);
        }
        mesh_.saveState(w);
        w.u64(dir_.size());
        for (const auto &[block, e] : dir_) {
            w.u64(block);
            w.u32(e.sharers);
            w.i32(e.owner);
            w.i32(e.last_writer);
        }
        migratory_.saveState(w);
        w.u64(stats_.reads_local);
        w.u64(stats_.reads_remote);
        w.u64(stats_.reads_dirty);
        w.u64(stats_.writes_local);
        w.u64(stats_.writes_remote);
        w.u64(stats_.writes_dirty);
        w.u64(stats_.upgrades);
        w.u64(stats_.migratory_handoffs);
        w.u64(stats_.invalidations_sent);
        w.u64(stats_.writebacks);
        w.u64(stats_.flushes);
    }

    void
    restoreState(snap::Reader &r)
    {
        for (NodeRes &nr : res_) {
            nr.bus.restoreState(r);
            nr.dir.restoreState(r);
            nr.mem.restoreState(r);
        }
        mesh_.restoreState(r);
        dir_.clear();
        const std::size_t n = r.length(20);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr block = r.u64();
            DirEntry e;
            e.sharers = r.u32();
            e.owner = r.i32();
            e.last_writer = r.i32();
            dir_[block] = e;
        }
        migratory_.restoreState(r);
        stats_.reads_local = r.u64();
        stats_.reads_remote = r.u64();
        stats_.reads_dirty = r.u64();
        stats_.writes_local = r.u64();
        stats_.writes_remote = r.u64();
        stats_.writes_dirty = r.u64();
        stats_.upgrades = r.u64();
        stats_.migratory_handoffs = r.u64();
        stats_.invalidations_sent = r.u64();
        stats_.writebacks = r.u64();
        stats_.flushes = r.u64();
    }

  private:
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< bitmask of nodes with Shared copies
        int owner = -1;            ///< node holding E/M, or -1
        int last_writer = -1;      ///< last node granted write ownership
    };

    DirEntry &entry(Addr block) { return dir_[block]; }

    struct NodeRes
    {
        net::Resource bus;
        net::Resource dir;
        net::Resource mem;
    };

    std::uint32_t num_nodes_;
    FabricParams params_;
    net::Mesh mesh_;
    std::vector<NodeRes> res_;
    std::vector<CacheSite *> sites_;
    std::map<Addr, DirEntry> dir_;
    MigratoryDetector migratory_;
    FabricStats stats_;
    CoherenceChecker *checker_ = nullptr;
    const verify::ProtocolMutator *mutator_ = nullptr;
};

} // namespace dbsim::coher

#endif // DBSIM_COHERENCE_DIRECTORY_HPP
