#include "coherence/directory.hpp"

#include <bit>

#include "coherence/checker.hpp"
#include "common/log.hpp"

namespace dbsim::coher {

CoherenceFabric::CoherenceFabric(std::uint32_t num_nodes,
                                 FabricParams params,
                                 net::MeshParams mesh_params)
    : num_nodes_(num_nodes), params_(params), mesh_(num_nodes, mesh_params),
      res_(num_nodes), sites_(num_nodes, nullptr)
{
    if (num_nodes == 0 || num_nodes > 32)
        DBSIM_FATAL("fabric supports 1..32 nodes");
}

void
CoherenceFabric::attachSite(std::uint32_t node, CacheSite *site)
{
    DBSIM_ASSERT(node < num_nodes_, "bad node id");
    sites_[node] = site;
}

bool
CoherenceFabric::cached(Addr block) const
{
    auto it = dir_.find(block);
    if (it == dir_.end())
        return false;
    return it->second.owner >= 0 || it->second.sharers != 0;
}

DirSnapshot
CoherenceFabric::dirState(Addr block) const
{
    auto it = dir_.find(block);
    if (it == dir_.end())
        return {};
    return {true, it->second.sharers, it->second.owner,
            it->second.last_writer};
}

std::size_t
CoherenceFabric::dirCachedEntries() const
{
    std::size_t n = 0;
    for (const auto &[block, e] : dir_)
        if (e.owner >= 0 || e.sharers != 0)
            ++n;
    return n;
}

FabricResult
CoherenceFabric::read(std::uint32_t node, Addr block, std::uint32_t home,
                      Cycles now, Addr pc)
{
    DBSIM_ASSERT(node < num_nodes_ && home < num_nodes_, "bad node/home");
    DirEntry &e = entry(block);

    // Requester bus, request to home, directory lookup.
    Cycles t = res_[node].bus.acquire(now, params_.bus_hold);
    t = mesh_.control(node, home, t);
    t = res_[home].dir.acquire(t, params_.dir_hold);

    AccessClass cls;
    if (e.owner >= 0 && static_cast<std::uint32_t>(e.owner) != node) {
        const auto owner = static_cast<std::uint32_t>(e.owner);
        const mem::CoherState ost =
            sites_[owner] ? sites_[owner]->siteState(block)
                          : mem::CoherState::Invalid;
        if (ost == mem::CoherState::Modified) {
            // Cache-to-cache transfer: forward to owner, owner supplies
            // the line to the requester and writes back to memory
            // (downgrading to Shared).
            t = mesh_.control(home, owner, t);
            t = res_[owner].bus.acquire(t, params_.bus_hold);
            t += params_.owner_l2_hold;
            if (!(mutator_ &&
                  mutator_->armed(verify::ProtocolBug::MissingDowngrade)))
                sites_[owner]->siteDowngrade(block);
            t = mesh_.data(owner, node, t);
            t += params_.c2c_extra;
            const bool was_migratory = migratory_.isMigratory(block);
            if (params_.adaptive_migratory && was_migratory) {
                // Migratory handoff: pass exclusive (dirty) ownership to
                // the reader; the old owner invalidates its copy.
                sites_[owner]->siteInvalidate(block);
                e.sharers = 0;
                e.owner = static_cast<int>(node);
                ++stats_.migratory_handoffs;
            } else {
                e.sharers = (1u << owner) | (1u << node);
                e.owner = -1;
            }
            cls = AccessClass::RemoteDirty;
            ++stats_.reads_dirty;
            migratory_.observeDirtyRead(block, pc);
            if (was_migratory && params_.migratory_read_factor != 1.0) {
                // Bound experiment: migratory reads serviced at
                // memory-like latency (paper section 4.2).
                t = now + static_cast<Cycles>(
                              static_cast<double>(t - now) *
                              params_.migratory_read_factor);
            }
        } else if (ost == mem::CoherState::Exclusive) {
            // Clean-exclusive: downgrade silently, service from memory.
            sites_[owner]->siteDowngrade(block);
            t = res_[home].mem.acquire(t, params_.dram_hold);
            t = mesh_.data(home, node, t);
            e.sharers = (1u << owner) | (1u << node);
            e.owner = -1;
            cls = home == node ? AccessClass::LocalMem
                               : AccessClass::RemoteMem;
        } else {
            // Stale directory info (silent eviction): treat as uncached.
            e.owner = -1;
            e.sharers = 1u << node;
            t = res_[home].mem.acquire(t, params_.dram_hold);
            t = mesh_.data(home, node, t);
            e.owner = node; // grant Exclusive again
            e.sharers = 0;
            cls = home == node ? AccessClass::LocalMem
                               : AccessClass::RemoteMem;
        }
    } else if (e.owner < 0 && e.sharers != 0) {
        // Shared at the directory: service from memory, add sharer.
        t = res_[home].mem.acquire(t, params_.dram_hold);
        t = mesh_.data(home, node, t);
        if (!(mutator_ && mutator_->armed(verify::ProtocolBug::LostSharerBit)))
            e.sharers |= 1u << node;
        cls = home == node ? AccessClass::LocalMem : AccessClass::RemoteMem;
    } else {
        // Uncached (or the requester itself was the stale owner):
        // grant Exclusive.
        t = res_[home].mem.acquire(t, params_.dram_hold);
        t = mesh_.data(home, node, t);
        e.owner = static_cast<int>(node);
        e.sharers = 0;
        cls = home == node ? AccessClass::LocalMem : AccessClass::RemoteMem;
    }

    t += params_.resp_overhead;
    if (cls == AccessClass::LocalMem)
        ++stats_.reads_local;
    else if (cls == AccessClass::RemoteMem)
        ++stats_.reads_remote;
    mem::CoherState grant = mem::CoherState::Shared;
    if (e.owner >= 0 && static_cast<std::uint32_t>(e.owner) == node) {
        // Exclusive grant; a migratory handoff carries dirty data.
        grant = cls == AccessClass::RemoteDirty ? mem::CoherState::Modified
                                                : mem::CoherState::Exclusive;
    }
    if (checker_)
        checker_->noteTransaction(block, "read");
    return {t, cls, grant};
}

FabricResult
CoherenceFabric::write(std::uint32_t node, Addr block, std::uint32_t home,
                       Cycles now, Addr pc)
{
    DBSIM_ASSERT(node < num_nodes_ && home < num_nodes_, "bad node/home");
    DirEntry &e = entry(block);

    const std::uint32_t my_bit = 1u << node;
    const std::uint32_t copies =
        (e.owner >= 0 ? 1u : 0u) +
        static_cast<std::uint32_t>(std::popcount(e.sharers));
    const bool shared_write =
        (e.owner >= 0 && static_cast<std::uint32_t>(e.owner) != node) ||
        (e.sharers & ~my_bit) != 0;

    migratory_.observeWrite(block, copies, e.last_writer, node,
                            shared_write, pc);

    Cycles t = res_[node].bus.acquire(now, params_.bus_hold);
    t = mesh_.control(node, home, t);
    t = res_[home].dir.acquire(t, params_.dir_hold);

    AccessClass cls;
    if (e.owner >= 0 && static_cast<std::uint32_t>(e.owner) != node) {
        const auto owner = static_cast<std::uint32_t>(e.owner);
        const mem::CoherState ost =
            sites_[owner] ? sites_[owner]->siteState(block)
                          : mem::CoherState::Invalid;
        if (ost == mem::CoherState::Modified ||
            ost == mem::CoherState::Exclusive) {
            // Forward; owner transfers ownership and invalidates.
            t = mesh_.control(home, owner, t);
            t = res_[owner].bus.acquire(t, params_.bus_hold);
            t += params_.owner_l2_hold;
            const bool was_dirty = ost == mem::CoherState::Modified;
            sites_[owner]->siteInvalidate(block);
            t = mesh_.data(owner, node, t);
            if (was_dirty) {
                t += params_.c2c_extra;
                cls = AccessClass::RemoteDirty;
                ++stats_.writes_dirty;
            } else {
                cls = home == node ? AccessClass::LocalMem
                                   : AccessClass::RemoteMem;
            }
        } else {
            // Stale owner: service from memory.
            t = res_[home].mem.acquire(t, params_.dram_hold);
            t = mesh_.data(home, node, t);
            cls = home == node ? AccessClass::LocalMem
                               : AccessClass::RemoteMem;
        }
    } else if ((e.sharers & ~my_bit) != 0) {
        // Invalidate all other sharers.
        Cycles acks = t;
        bool dropped_one = false;
        for (std::uint32_t n = 0; n < num_nodes_; ++n) {
            if (n == node || !(e.sharers & (1u << n)))
                continue;
            const Cycles arrive = mesh_.control(home, n, t);
            if (!dropped_one && mutator_ &&
                mutator_->armed(verify::ProtocolBug::DroppedInvalidation)) {
                // Seeded bug: this sharer never hears the invalidation
                // (its directory bit is still cleared below).
                dropped_one = true;
            } else if (sites_[n]) {
                sites_[n]->siteInvalidate(block);
            }
            const Cycles ack = mesh_.control(n, home, arrive);
            if (ack > acks)
                acks = ack;
            ++stats_.invalidations_sent;
        }
        if (e.sharers & my_bit) {
            // Upgrade: no data transfer, just the ownership grant.
            t = mesh_.control(home, node, acks);
            ++stats_.upgrades;
        } else {
            const Cycles mem_done =
                res_[home].mem.acquire(t, params_.dram_hold);
            const Cycles start = mem_done > acks ? mem_done : acks;
            t = mesh_.data(home, node, start);
        }
        cls = home == node ? AccessClass::LocalMem : AccessClass::RemoteMem;
    } else if (e.sharers & my_bit) {
        // Sole sharer upgrading: grant immediately.
        t = mesh_.control(home, node, t);
        ++stats_.upgrades;
        cls = home == node ? AccessClass::LocalMem : AccessClass::RemoteMem;
    } else {
        // Uncached, or requester is already the (stale) owner.
        t = res_[home].mem.acquire(t, params_.dram_hold);
        t = mesh_.data(home, node, t);
        cls = home == node ? AccessClass::LocalMem : AccessClass::RemoteMem;
    }

    // Seeded StaleOwner bug: the directory forgets to record the new
    // owner, so the writer's Modified copy contradicts (or is unknown
    // to) the directory.
    if (!(mutator_ && mutator_->armed(verify::ProtocolBug::StaleOwner)))
        e.owner = static_cast<int>(node);
    e.sharers = 0;
    e.last_writer = static_cast<int>(node);

    t += params_.resp_overhead;
    if (cls == AccessClass::LocalMem)
        ++stats_.writes_local;
    else if (cls == AccessClass::RemoteMem)
        ++stats_.writes_remote;
    if (checker_)
        checker_->noteTransaction(block, "write");
    return {t, cls, mem::CoherState::Modified};
}

void
CoherenceFabric::evict(std::uint32_t node, Addr block, std::uint32_t home,
                       bool dirty, Cycles now)
{
    auto it = dir_.find(block);
    if (it == dir_.end())
        return;
    DirEntry &e = it->second;
    if (e.owner >= 0 && static_cast<std::uint32_t>(e.owner) == node) {
        e.owner = -1;
        if (dirty) {
            // Writeback occupies the node bus, network, and home memory.
            Cycles t = res_[node].bus.acquire(now, params_.bus_hold);
            t = mesh_.data(node, home, t);
            res_[home].mem.acquire(t, params_.dram_hold);
            ++stats_.writebacks;
        }
    } else {
        e.sharers &= ~(1u << node);
    }
    if (checker_)
        checker_->noteTransaction(block, "evict");
}

Cycles
CoherenceFabric::flush(std::uint32_t node, Addr block, std::uint32_t home,
                       Cycles now)
{
    auto it = dir_.find(block);
    if (it == dir_.end())
        return kNever;
    DirEntry &e = it->second;
    if (e.owner < 0 || static_cast<std::uint32_t>(e.owner) != node)
        return kNever;
    if (!sites_[node] ||
        sites_[node]->siteState(block) != mem::CoherState::Modified) {
        return kNever;
    }

    // Unsolicited sharing writeback: memory is updated.  By default the
    // flushing node keeps a clean Shared copy so its own subsequent
    // reads still hit; the invalidating variant is an ablation knob.
    if (params_.flush_invalidates) {
        sites_[node]->siteInvalidate(block);
        e.owner = -1;
        e.sharers = 0;
    } else {
        sites_[node]->siteDowngrade(block);
        e.owner = -1;
        e.sharers = 1u << node;
    }

    Cycles t = res_[node].bus.acquire(now, params_.bus_hold);
    t = mesh_.data(node, home, t);
    t = res_[home].dir.acquire(t, params_.dir_hold);
    t = res_[home].mem.acquire(t, params_.dram_hold);
    ++stats_.flushes;
    if (checker_)
        checker_->noteTransaction(block, "flush");
    return t;
}

} // namespace dbsim::coher
