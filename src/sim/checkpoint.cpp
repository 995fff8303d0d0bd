/**
 * @file
 * System-level checkpoint / restore (DESIGN.md §5g).
 *
 * serializeState() walks every stateful component of the machine in a
 * fixed order, producing the byte-stable stream that feeds both the
 * checkpoint bytes and the per-epoch FNV state hashes.
 * checkpoint()/restore() wrap that stream in a versioned byte layout:
 *
 *     magic "DBSIMCKP" | u32 version | u64 config signature |
 *     machine state    | epoch bookkeeping | u64 FNV-1a of the above
 *
 * The config signature hashes the structural configuration (machine
 * geometry + process placement) but not host observation knobs
 * (state-hash interval, stop_at_cycle), so a checkpoint taken at one
 * interval restores under any other.
 */

#include <string>
#include <vector>

#include "common/errors.hpp"
#include "sim/system.hpp"

namespace dbsim::sim {

namespace {

constexpr char kCheckpointMagic[8] = {'D', 'B', 'S', 'I', 'M',
                                      'C', 'K', 'P'};
constexpr std::uint32_t kCheckpointVersion = 3;

void
signCacheLevel(snap::Writer &w, const CacheLevelParams &p)
{
    w.u64(p.size_bytes);
    w.u32(p.assoc);
    w.u32(p.line_bytes);
    w.u64(p.hit_time);
    w.u32(p.mshrs);
    w.u32(p.ports);
}

} // namespace

std::uint64_t
System::configSignature() const
{
    snap::Writer w;
    w.u32(params_.num_nodes);
    w.u64(params_.sched_quantum);
    w.u32(params_.page_bins);
    w.u64(params_.max_cycles);
    w.u64(params_.watchdog_cycles);

    const cpu::CoreParams &c = params_.core;
    w.boolean(c.out_of_order);
    w.u32(c.issue_width);
    w.u32(c.window_size);
    w.u32(c.mem_queue_size);
    w.u32(c.write_buffer_size);
    w.u32(c.max_spec_branches);
    w.u32(c.mispredict_restart);
    w.u32(c.rollback_penalty);
    w.u32(c.fetch_line_bytes);
    w.u32(c.spin_retry_interval);
    w.u64(c.spin_yield_threshold);
    w.u64(c.context_switch_cost);
    w.u32(c.fu.int_alus);
    w.u32(c.fu.fp_units);
    w.u32(c.fu.addr_units);
    w.boolean(c.fu.infinite);
    w.u32(c.fu.int_latency);
    w.u32(c.fu.fp_latency);
    w.u32(c.fu.agen_latency);
    w.u32(c.fu.branch_latency);
    w.u32(c.bp.pa_entries);
    w.u32(c.bp.pa_hist_bits);
    w.u32(c.bp.g_hist_bits);
    w.u32(c.bp.g_pht_bits);
    w.u32(c.bp.chooser_entries);
    w.u32(c.bp.btb_entries);
    w.u32(c.bp.btb_assoc);
    w.u32(c.bp.ras_entries);
    w.boolean(c.bp.perfect);
    w.u8(static_cast<std::uint8_t>(c.model));
    w.boolean(c.cons.hw_prefetch);
    w.boolean(c.cons.spec_loads);

    const NodeParams &n = params_.node;
    signCacheLevel(w, n.l1i);
    signCacheLevel(w, n.l1d);
    signCacheLevel(w, n.l2);
    w.u32(n.itlb_entries);
    w.u32(n.dtlb_entries);
    w.u32(n.page_bytes);
    w.u64(n.tlb_miss_penalty);
    w.u32(n.stream_buffer_entries);
    w.boolean(n.perfect_icache);
    w.boolean(n.perfect_itlb);
    w.boolean(n.perfect_dtlb);
    w.u64(n.l2_port_hold);

    const coher::FabricParams &f = params_.fabric;
    w.u64(f.bus_hold);
    w.u64(f.dir_hold);
    w.u64(f.dram_hold);
    w.u64(f.resp_overhead);
    w.u64(f.owner_l2_hold);
    w.u64(f.c2c_extra);
    w.f64(f.migratory_read_factor);
    w.boolean(f.adaptive_migratory);
    w.boolean(f.flush_invalidates);

    const net::MeshParams &m = params_.mesh;
    w.u32(m.router_delay);
    w.u32(m.wire_delay);
    w.u32(m.inject_delay);
    w.u32(m.ctrl_flits);
    w.u32(m.data_flits);

    // Process placement: the checkpoint only restores into a machine
    // with the exact same process set on the exact same CPUs.
    w.u64(procs_.size());
    for (CpuId cpu : proc_cpu_)
        w.u32(cpu);
    w.boolean(checker_ != nullptr);

    return w.hash();
}

void
System::serializeState(snap::Writer &w) const
{
    w.u64(now_);
    w.u64(retired_before_reset_);
    w.u64(window_start_);

    // Run-loop carry state (see the member comment in system.hpp).
    w.boolean(warmed_);
    w.u64(wd_last_retired_);
    w.u64(wd_last_progress_);

    // Simulated-environment lock table, in lock address order.
    w.u64(lock_holder_.size());
    for (const auto &[addr, proc] : lock_holder_) {
        w.u64(addr);
        w.u32(proc);
    }

    // Per-CPU scheduling glue.
    w.u32(static_cast<std::uint32_t>(cpus_.size()));
    for (const CpuState &cs : cpus_) {
        w.u8(static_cast<std::uint8_t>(cs.pending));
        w.u64(cs.pending_latency);
        w.u64(cs.run_start);
        w.boolean(cs.ever_ran);
    }

    page_map_.saveState(w);
    fabric_.saveState(w);
    sched_.saveState(w);

    w.boolean(checker_ != nullptr);
    if (checker_)
        checker_->saveState(w);

    for (const CpuState &cs : cpus_) {
        cs.node->saveState(w);
        cs.core->saveState(w);
    }

    w.u64(procs_.size());
    for (const auto &p : procs_)
        p->saveState(w);
    for (const auto &s : sources_)
        s->saveState(w);
}

void
System::deserializeState(snap::Reader &r)
{
    now_ = r.u64();
    retired_before_reset_ = r.u64();
    window_start_ = r.u64();

    warmed_ = r.boolean();
    wd_last_retired_ = r.u64();
    wd_last_progress_ = r.u64();

    lock_holder_.clear();
    const std::size_t nlocks = r.length(12);
    for (std::size_t i = 0; i < nlocks; ++i) {
        const Addr addr = r.u64();
        lock_holder_[addr] = r.u32();
    }

    if (r.u32() != cpus_.size())
        throw snap::SnapshotError("snapshot: CPU count mismatch");
    for (CpuState &cs : cpus_) {
        cs.pending = static_cast<Pending>(r.u8());
        cs.pending_latency = r.u64();
        cs.run_start = r.u64();
        cs.ever_ran = r.boolean();
    }

    const auto resolve = [this](ProcId id) -> cpu::ProcessContext * {
        return id < procs_.size() ? procs_[id].get() : nullptr;
    };

    page_map_.restoreState(r);
    fabric_.restoreState(r);
    sched_.restoreState(r, resolve);

    const bool had_checker = r.boolean();
    if (had_checker != (checker_ != nullptr)) {
        throw snap::SnapshotError(
            "snapshot: coherence-checker presence mismatch (was the "
            "checkpoint taken under a different DBSIM_CHECK setting?)");
    }
    if (checker_)
        checker_->restoreState(r);

    for (CpuState &cs : cpus_) {
        cs.node->restoreState(r);
        cs.core->restoreState(r, resolve);
    }

    if (r.u64() != procs_.size())
        throw snap::SnapshotError("snapshot: process count mismatch");
    for (const auto &p : procs_)
        p->restoreState(r);
    for (const auto &s : sources_)
        s->restoreState(r);
    sched_.recountIncomplete();

    carry_valid_ = true;
}

std::uint64_t
System::stateHash() const
{
    snap::Writer w;
    serializeState(w);
    return w.hash();
}

std::vector<std::uint8_t>
System::checkpoint() const
{
    snap::Writer w;
    for (char c : kCheckpointMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kCheckpointVersion);
    w.u64(configSignature());

    serializeState(w);

    // Epoch bookkeeping rides outside the machine state so stateHash()
    // stays insensitive to the hashing knobs, but restored runs still
    // continue the recorded hash series seamlessly.
    w.u64(epoch_next_);
    w.u64(epoch_hashes_.size());
    for (const EpochHash &eh : epoch_hashes_) {
        w.u64(eh.epoch);
        w.u64(eh.hash);
    }

    w.u64(w.hash()); // integrity trailer over everything above
    return w.bytes();
}

void
System::restore(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < sizeof(kCheckpointMagic) + 4 + 8 + 8)
        throw snap::SnapshotError("checkpoint: too short");

    // Integrity first: everything before the trailer must hash to it.
    const std::size_t body = bytes.size() - 8;
    std::uint64_t trailer = 0;
    for (int i = 0; i < 8; ++i)
        trailer |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
    if (snap::fnv1a(bytes.data(), body) != trailer)
        throw snap::SnapshotError("checkpoint: integrity hash mismatch");

    snap::Reader r(bytes.data(), body);
    for (char c : kCheckpointMagic) {
        if (r.u8() != static_cast<std::uint8_t>(c))
            throw snap::SnapshotError("checkpoint: bad magic");
    }
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion) {
        throw snap::SnapshotError(
            "checkpoint: unsupported version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kCheckpointVersion) + ")");
    }
    if (r.u64() != configSignature()) {
        throw snap::SnapshotError(
            "checkpoint: config signature mismatch (checkpoint was taken "
            "under a structurally different configuration)");
    }

    deserializeState(r);

    epoch_next_ = r.u64();
    epoch_hashes_.clear();
    const std::size_t nh = r.length(16);
    epoch_hashes_.reserve(nh);
    for (std::size_t i = 0; i < nh; ++i) {
        EpochHash eh;
        eh.epoch = r.u64();
        eh.hash = r.u64();
        epoch_hashes_.push_back(eh);
    }

    if (!r.atEnd())
        throw snap::SnapshotError("checkpoint: trailing bytes after state");
}

} // namespace dbsim::sim
