#include "sim/node.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dbsim::sim {

using coher::AccessClass;
using mem::CoherState;

Node::Node(CpuId id, const NodeParams &params, mem::PageMap *page_map,
           coher::CoherenceFabric *fabric)
    : id_(id), params_(params), page_map_(page_map), fabric_(fabric),
      l1i_(params.l1i.size_bytes, params.l1i.assoc, params.l1i.line_bytes),
      l1d_(params.l1d.size_bytes, params.l1d.assoc, params.l1d.line_bytes),
      l2_(params.l2.size_bytes, params.l2.assoc, params.l2.line_bytes),
      l1d_mshr_(params.l1d.mshrs), l2_mshr_(params.l2.mshrs),
      itlb_(params.perfect_itlb ? 0 : params.itlb_entries,
            params.page_bytes),
      dtlb_(params.perfect_dtlb ? 0 : params.dtlb_entries,
            params.page_bytes),
      sbuf_(params.stream_buffer_entries, params.l1i.line_bytes)
{
    if (params.l1i.line_bytes != params.l2.line_bytes ||
        params.l1d.line_bytes != params.l2.line_bytes) {
        DBSIM_FATAL("all cache levels must share one line size");
    }
    if (page_map->pageBytes() != params.page_bytes)
        DBSIM_FATAL("the TLBs and the page map must share one page size");
}

void
Node::resetStats()
{
    stats_ = NodeStats{};
    // MSHR / stream-buffer / TLB statistics are embedded in their
    // components; reset the resettable ones.
    l1d_mshr_.stats().occupancy.reset();
    l1d_mshr_.stats().read_occupancy.reset();
    l2_mshr_.stats().occupancy.reset();
    l2_mshr_.stats().read_occupancy.reset();
}

void
Node::finalizeStats(Cycles now)
{
    l1d_mshr_.drain(now);
    l2_mshr_.drain(now);
}

// ---------------------------------------------------------------------
// Inclusion-maintaining line insertion
// ---------------------------------------------------------------------

void
Node::insertL1d(Addr block, CoherState st)
{
    if (auto ev = l1d_.insert(block, st)) {
        if (ev->state == CoherState::Modified) {
            // Dirty L1 victim folds into the L2 copy; in the
            // non-inclusive hierarchy the L2 may no longer hold the
            // line, in which case the victim re-enters the L2.
            if (l2_.contains(ev->block))
                l2_.setState(ev->block, CoherState::Modified);
            else
                insertL2(ev->block, CoherState::Modified, 0);
        }
    }
}

void
Node::insertL1i(Addr block)
{
    (void)l1i_.insert(block, CoherState::Shared);
}

void
Node::insertL2(Addr block, CoherState st, Cycles now)
{
    if (auto ev = l2_.insert(block, st)) {
        // Non-inclusive hierarchy (as in RSIM's cache model): if an L1
        // still holds the victim, the line simply lives on there and
        // the node remains its owner/sharer at the directory.  Only
        // when no L1 copy remains does the node give the line up.
        if (l1d_.contains(ev->block) || l1i_.contains(ev->block))
            return;
        const bool dirty = ev->state == CoherState::Modified;
        if (core_)
            core_->onLineInvalidated(ev->block);
        fabric_->evict(id_, ev->block, page_map_->homeOf(ev->block), dirty,
                       now);
    }
}

// ---------------------------------------------------------------------
// Shared L2 access path
// ---------------------------------------------------------------------

Node::L2Result
Node::accessL2(Addr block, std::uint32_t home, Addr pc, bool is_write,
               Cycles now, bool count_access)
{
    l2_mshr_.drain(now);

    // Secondary miss: coalesce into the outstanding register.
    if (l2_mshr_.outstanding(block)) {
        if (count_access) {
            ++stats_.l2_accesses;
            ++stats_.l2_delayed_hits;
        }
        const Cycles ready = l2_mshr_.coalesce(block, !is_write, now);
        // The register carries the fill's access class as its tag.
        const auto cls =
            static_cast<AccessClass>(l2_mshr_.tagOf(block));
        if (is_write) {
            // Approximation: a write coalescing into an outstanding read
            // upgrades the filled line silently (see DESIGN.md).
            l2_.setState(block, CoherState::Modified);
        }
        return {std::max(ready, now + params_.l2.hit_time), cls, true};
    }

    // Tag lookup first: a refused access must not hold any resource
    // (retries would otherwise inflate the port's reservation horizon).
    const auto st = l2_.access(block);
    const bool hit = st && (!is_write || *st == CoherState::Modified ||
                            *st == CoherState::Exclusive);
    if (!hit && l2_mshr_.full())
        return {0, AccessClass::L2Hit, false}; // retried; not counted

    // Pipelined L2: the port is held briefly, the data is available
    // after the hit latency.
    const Cycles port_done = l2_port_.acquire(now, params_.l2_port_hold);
    const Cycles access_start = port_done - params_.l2_port_hold;
    const Cycles hit_ready = access_start + params_.l2.hit_time;

    if (hit) {
        if (count_access)
            ++stats_.l2_accesses;
        if (is_write)
            l2_.setState(block, CoherState::Modified);
        return {hit_ready, AccessClass::L2Hit, true};
    }

    // Primary L2 miss (or write upgrade on a Shared line).
    if (count_access) {
        ++stats_.l2_accesses;
        ++stats_.l2_misses;
    }
    const coher::FabricResult fr =
        is_write ? fabric_->write(id_, block, home, hit_ready, pc)
                 : fabric_->read(id_, block, home, hit_ready, pc);
    l2_mshr_.allocate(block, !is_write, now, fr.ready,
                      static_cast<std::uint8_t>(fr.cls));
    insertL2(block, fr.grant, now);
    return {fr.ready, fr.cls, true};
}

// ---------------------------------------------------------------------
// CoreMemIf
// ---------------------------------------------------------------------

bool
Node::l1dPortAvailable(Cycles now)
{
    if (l1d_port_cycle_ != now)
        return params_.l1d.ports > 0;
    return l1d_ports_used_ < params_.l1d.ports;
}

void
Node::consumeL1dPort(Cycles now)
{
    if (l1d_port_cycle_ != now) {
        l1d_port_cycle_ = now;
        l1d_ports_used_ = 0;
    }
    ++l1d_ports_used_;
}

std::optional<cpu::MemAccessResult>
Node::dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
                 bool prefetch, Cycles *retry_at)
{
    l1d_mshr_.drain(now);
    if (retry_at)
        *retry_at = now + 1;

    if (!prefetch && !l1dPortAvailable(now))
        return std::nullopt; // port conflict: retry next cycle

    // Prefetches bypass the timing TLB.
    bool dtlb_hit = true;
    const Addr paddr =
        prefetch ? page_map_->translate(vaddr, id_)
                 : dtlb_.translate(vaddr, *page_map_, id_, dtlb_hit);
    const bool dtlb_miss = !dtlb_hit;
    const Addr block = l2_.blockOf(paddr);
    const std::uint32_t home = page_map_->homeOf(paddr);
    const Cycles start =
        now + (dtlb_miss ? params_.tlb_miss_penalty : 0);

    // Delayed hit: the line's tags are installed when the miss issues,
    // so an access while the fill is still in flight must coalesce on
    // the MSHR (and count as a miss), not hit in one cycle.
    if (l1d_mshr_.outstanding(block)) {
        if (!prefetch) {
            consumeL1dPort(now);
            ++stats_.l1d_accesses;
            ++stats_.l1d_delayed_hits;
        }
        const Cycles ready = l1d_mshr_.coalesce(block, !is_write, now);
        const auto cls =
            static_cast<AccessClass>(l1d_mshr_.tagOf(block));
        if (is_write) {
            l1d_.setState(block, CoherState::Modified);
            l2_.setState(block, CoherState::Modified);
        }
        return cpu::MemAccessResult{std::max(ready, start + 1), cls, block,
                                    dtlb_miss};
    }

    // L1 data cache.
    const auto l1 = l1d_.access(block);
    if (l1 && (!is_write || *l1 == CoherState::Modified ||
               *l1 == CoherState::Exclusive)) {
        if (!prefetch) {
            consumeL1dPort(now);
            ++stats_.l1d_accesses;
        }
        if (is_write && *l1 != CoherState::Modified) {
            l1d_.setState(block, CoherState::Modified);
            l2_.setState(block, CoherState::Modified);
        }
        return cpu::MemAccessResult{start + params_.l1d.hit_time,
                                    AccessClass::L1Hit, block, dtlb_miss};
    }

    // L1 miss (or write upgrade).  Coalescing was already handled by
    // the delayed-hit check above; nothing between it and here can
    // allocate into the L1D MSHR file.
    if (l1d_mshr_.full()) {
        if (prefetch)
            ++stats_.prefetches_dropped;
        if (retry_at)
            *retry_at = l1d_mshr_.earliestDone();
        return std::nullopt;
    }

    const L2Result l2r =
        accessL2(block, home, pc, is_write, start + params_.l1d.hit_time,
                 /*count_access=*/!prefetch);
    if (!l2r.accepted) {
        if (prefetch)
            ++stats_.prefetches_dropped;
        if (retry_at)
            *retry_at = l2_mshr_.earliestDone();
        return std::nullopt;
    }

    if (!prefetch) {
        consumeL1dPort(now);
        ++stats_.l1d_accesses;
        ++stats_.l1d_misses;
    }
    l1d_mshr_.allocate(block, !is_write, now, l2r.ready,
                       static_cast<std::uint8_t>(l2r.cls));
    insertL1d(block, is_write ? CoherState::Modified
                              : (l2_.state(block) == CoherState::Exclusive
                                     ? CoherState::Exclusive
                                     : CoherState::Shared));
    return cpu::MemAccessResult{l2r.ready, l2r.cls, block, dtlb_miss};
}

cpu::FetchResult
Node::instrFetch(Addr pc, Cycles now)
{
    ++stats_.l1i_fetches;
    bool itlb_hit;
    const Addr paddr = itlb_.translate(pc, *page_map_, id_, itlb_hit);
    const bool itlb_miss = !itlb_hit;
    const Addr block = l2_.blockOf(paddr);
    const std::uint32_t home = page_map_->homeOf(paddr);
    const Cycles start =
        now + (itlb_miss ? params_.tlb_miss_penalty : 0);

    if (l1i_.access(block)) {
        // Delayed hit: honor an in-flight fill for this line.
        const Cycles fill = l2_mshr_.doneTimeOf(block);
        const Cycles ready = start + params_.l1i.hit_time;
        return cpu::FetchResult{fill == kNever ? ready
                                               : std::max(ready, fill),
                                itlb_miss, true};
    }

    ++stats_.l1i_misses;

    if (params_.perfect_icache) {
        return cpu::FetchResult{start + params_.l1i.hit_time, itlb_miss,
                                false};
    }

    // Probe the instruction stream buffer (member scratch: no per-call
    // allocation on the fetch path).
    ifetch_refills_.clear();
    Cycles sb_ready = 0;
    const bool sb_hit = sbuf_.probe(block, start, sb_ready, ifetch_refills_);

    Cycles ready;
    if (sb_hit) {
        ++stats_.l1i_sbuf_hits;
        ready = std::max(sb_ready, start + params_.l1i.hit_time);
        insertL1i(block);
    } else {
        // Miss everywhere: fetch the line through the L2.
        L2Result l2r = accessL2(block, home, pc, /*is_write=*/false,
                                start, /*count_access=*/true);
        if (!l2r.accepted) {
            // L2 MSHRs full: the fetch queues behind the outstanding
            // misses; charge the earliest time a register frees up.
            l2r = accessL2(block, home, pc, /*is_write=*/false,
                           start + params_.l2.hit_time,
                           /*count_access=*/false);
        }
        if (!l2r.accepted) {
            // Still full: conservatively wait out an L2 hit time; the
            // core will re-request the line.
            return cpu::FetchResult{now + params_.l2.hit_time, itlb_miss,
                                    false};
        }
        ready = l2r.ready;
        insertL1i(block);
    }

    // Issue the stream-buffer refill prefetches through the L2 (these
    // consume L2 bandwidth; useless ones cause the contention the paper
    // notes for oversized buffers).
    for (const Addr rb : ifetch_refills_) {
        if (l1i_.contains(rb)) {
            sbuf_.fill(rb, now); // already cached; trivially ready
            continue;
        }
        const L2Result pr = accessL2(rb, page_map_->homeOf(rb), pc,
                                     /*is_write=*/false, now,
                                     /*count_access=*/false);
        if (pr.accepted)
            sbuf_.fill(rb, pr.ready);
        else
            ++stats_.prefetches_dropped;
    }

    return cpu::FetchResult{ready, itlb_miss, false};
}

void
Node::flushHint(Addr vaddr, Cycles now)
{
    const Addr paddr = page_map_->translate(vaddr, id_);
    const Addr block = l2_.blockOf(paddr);
    ++stats_.flush_hints;
    fabric_->flush(id_, block, page_map_->homeOf(paddr), now);
}

// ---------------------------------------------------------------------
// CacheSite
// ---------------------------------------------------------------------

mem::CoherState
Node::siteState(Addr block)
{
    // Non-inclusive hierarchy: a line may live in an L1 without an L2
    // copy; report the strongest state held anywhere in the node.
    const CoherState l2s = l2_.state(block);
    if (l2s != CoherState::Invalid)
        return l2s;
    const CoherState l1s = l1d_.state(block);
    if (l1s != CoherState::Invalid)
        return l1s;
    if (l1i_.contains(block))
        return CoherState::Shared;
    return CoherState::Invalid;
}

void
Node::siteInvalidate(Addr block)
{
    l2_.invalidate(block);
    l1d_.invalidate(block);
    l1i_.invalidate(block);
    if (core_)
        core_->onLineInvalidated(block);
}

void
Node::siteDowngrade(Addr block)
{
    l2_.setState(block, CoherState::Shared);
    if (l1d_.contains(block))
        l1d_.setState(block, CoherState::Shared);
}

} // namespace dbsim::sim
