/**
 * @file
 * Interconnect timing models: reservation resources, the per-node
 * split-transaction bus, and the two-dimensional wormhole-routed mesh.
 *
 * Timing uses a resource-reservation discipline: each contended unit
 * (bus, directory controller, memory bank, mesh link) is a Resource with
 * a busy-until horizon.  A transaction walks its path, acquiring each
 * resource no earlier than it arrives and no earlier than the resource
 * frees up.  Because the simulator issues transactions in nondecreasing
 * time order, this produces consistent queuing delays without simulating
 * individual flits.
 */

#ifndef DBSIM_INTERCONNECT_NETWORK_HPP
#define DBSIM_INTERCONNECT_NETWORK_HPP

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::net {

/**
 * A unit-capacity resource with a busy-until reservation horizon.
 */
class Resource
{
  public:
    /**
     * Reserve the resource for @p hold cycles starting no earlier than
     * @p earliest.
     * @return the cycle at which the hold completes.
     */
    Cycles
    acquire(Cycles earliest, Cycles hold)
    {
        const Cycles start = earliest > busy_until_ ? earliest : busy_until_;
        busy_until_ = start + hold;
        total_held_ += hold;
        total_wait_ += start - earliest;
        ++acquisitions_;
        return busy_until_;
    }

    Cycles busyUntil() const { return busy_until_; }
    Cycles totalWait() const { return total_wait_; }
    std::uint64_t acquisitions() const { return acquisitions_; }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(busy_until_);
        w.u64(total_held_);
        w.u64(total_wait_);
        w.u64(acquisitions_);
    }

    void
    restoreState(snap::Reader &r)
    {
        busy_until_ = r.u64();
        total_held_ = r.u64();
        total_wait_ = r.u64();
        acquisitions_ = r.u64();
    }

  private:
    Cycles busy_until_ = 0;
    Cycles total_held_ = 0;
    Cycles total_wait_ = 0;
    std::uint64_t acquisitions_ = 0;
};

/** Mesh configuration. */
struct MeshParams
{
    std::uint32_t router_delay = 4;  ///< per-hop router pipeline delay
    std::uint32_t wire_delay = 2;    ///< per-hop wire delay
    std::uint32_t inject_delay = 8;  ///< NI injection/ejection overhead
    std::uint32_t ctrl_flits = 1;    ///< flits in a control message
    std::uint32_t data_flits = 5;    ///< flits in a data (line) message
};

/**
 * A two-dimensional wormhole-routed mesh connecting the nodes.
 *
 * Nodes are arranged in the most square grid possible (2x2 for four
 * nodes).  Routing is dimension-ordered (X then Y).  Each directional
 * link is a Resource held for the message's flit count, which models
 * wormhole serialization; header latency accrues per hop.
 */
class Mesh
{
  public:
    explicit Mesh(std::uint32_t num_nodes, MeshParams params = {});

    std::uint32_t numNodes() const { return num_nodes_; }

    /** Manhattan hop distance between two nodes. */
    std::uint32_t hops(std::uint32_t src, std::uint32_t dst) const;

    /**
     * Send a message of @p flits flits from @p src to @p dst, departing
     * no earlier than @p start.
     * @return arrival time of the tail flit at @p dst.
     */
    Cycles transfer(std::uint32_t src, std::uint32_t dst,
                    std::uint32_t flits, Cycles start);

    /** Control-message transfer (requests, invalidations, acks). */
    Cycles
    control(std::uint32_t src, std::uint32_t dst, Cycles start)
    {
        return transfer(src, dst, params_.ctrl_flits, start);
    }

    /** Data-message transfer (a cache line). */
    Cycles
    data(std::uint32_t src, std::uint32_t dst, Cycles start)
    {
        return transfer(src, dst, params_.data_flits, start);
    }

    const MeshParams &params() const { return params_; }

    /** Aggregate queueing delay experienced on all links (contention). */
    Cycles totalLinkWait() const;

    void
    saveState(snap::Writer &w) const
    {
        w.u64(links_.size());
        for (const Resource &res : links_)
            res.saveState(w);
    }

    void
    restoreState(snap::Reader &r)
    {
        const std::size_t n = r.length(32);
        if (n != links_.size())
            throw snap::SnapshotError("snapshot: mesh geometry mismatch");
        for (Resource &res : links_)
            res.restoreState(r);
    }

  private:
    std::uint32_t xOf(std::uint32_t node) const { return node % width_; }
    std::uint32_t yOf(std::uint32_t node) const { return node / width_; }
    Resource &link(std::uint32_t from, std::uint32_t to);

    std::uint32_t num_nodes_;
    std::uint32_t width_;
    std::uint32_t height_;
    std::uint32_t grid_; ///< width*height: routes may cross positions
                         ///< beyond num_nodes on non-square meshes
    MeshParams params_;
    /** links indexed [from * grid_ + to] for adjacent grid positions. */
    std::vector<Resource> links_;
};

} // namespace dbsim::net

#endif // DBSIM_INTERCONNECT_NETWORK_HPP
