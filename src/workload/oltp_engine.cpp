#include "workload/oltp_engine.hpp"

#include "common/log.hpp"

namespace dbsim::workload {

using trace::OpClass;

namespace {

/** Per-server-process transaction generator. */
class OltpProcessSource : public trace::GeneratingSource
{
  public:
    OltpProcessSource(const OltpWorkload *wl, ProcId proc, Rng rng)
        : wl_(wl), p_(wl->params()), proc_(proc), rng_(rng),
          builder_(&wl->code(), &rng_, buffer(), p_.builder)
    {
    }

  public:
    void
    saveState(snap::Writer &w) const override
    {
        GeneratingSource::saveState(w);
        rng_.saveState(w);
        builder_.saveState(w);
        w.u64(txns_);
        w.u64(hist_seq_);
        w.u64(log_off_);
    }

    void
    restoreState(snap::Reader &r) override
    {
        GeneratingSource::restoreState(r);
        rng_.restoreState(r);
        builder_.restoreState(r);
        txns_ = r.u64();
        hist_seq_ = r.u64();
        log_off_ = r.u64();
    }

  protected:
    void refill() override { transaction(); }

  private:
    /** Load/compute mixture standing in for interpreter/parse work. */
    void
    routineWork()
    {
        auto &b = builder_;
        const std::uint32_t per_ref =
            p_.compute_per_routine /
            std::max<std::uint32_t>(1, p_.private_refs_per_routine);
        for (std::uint32_t i = 0; i < p_.private_refs_per_routine; ++i) {
            b.compute(per_ref);
            // Private stack/heap traffic: mostly cache-resident.
            b.memOp(rng_.chance(0.3) ? OpClass::Store : OpClass::Load,
                    wl_->layout().privateMem(proc_, rng_.below(768) * 8));
        }
    }

    /**
     * Buffer-directory probe: a dependent chain walk down the hash
     * bucket (the dependent-load pattern that limits OLTP's memory-level
     * parallelism).  Reads are latch-free; the protected update paths
     * (teller/branch/redo) carry the latching.
     */
    std::uint32_t
    bufferLookup(std::uint64_t key)
    {
        auto &b = builder_;
        const auto &locks = wl_->locks();
        const std::uint32_t bucket =
            static_cast<std::uint32_t>(key % locks.hashBuckets());
        const std::uint32_t depth =
            1 + static_cast<std::uint32_t>(rng_.below(3));
        std::uint64_t prev = 0;
        for (std::uint32_t d = 0; d < depth; ++d) {
            const std::uint64_t idx = b.emitted();
            b.memOp(OpClass::Load, locks.bucketChain(bucket, d),
                    d == 0 ? 0
                           : static_cast<std::uint32_t>(idx - prev));
            prev = idx;
            b.compute(2);
        }
        return bucket;
    }

    /**
     * Latch-protected read-modify-write of a metadata record.  The
     * memory operations sit at the top of a fixed routine, so the
     * instructions generating migratory references are a small stable
     * set of PCs (paper section 4.2).
     */
    void
    updateRecord(std::uint32_t routine, Addr lock, Addr data0, Addr data1)
    {
        auto &b = builder_;
        b.callTo(routine);
        b.lockAcquire(lock);
        const std::uint64_t ld = b.emitted();
        b.memOp(OpClass::Load, data0);
        b.memOp(OpClass::Store, data0,
                static_cast<std::uint32_t>(b.emitted() - ld));
        b.memOp(OpClass::Load, data1);
        b.memOp(OpClass::Store, data1, 1);
        b.lockRelease(lock);
        b.compute(6);
        b.ret();
    }

    void
    transaction()
    {
        auto &b = builder_;
        const auto &lay = wl_->layout();
        const auto &locks = wl_->locks();

        // --- begin / parse / plan: walk the instruction footprint.
        for (std::uint32_t i = 0; i < p_.parse_routine_calls; ++i) {
            b.call();
            routineWork();
            b.ret();
        }

        // --- pick teller, branch, account (TPC-B profile).
        const std::uint32_t teller =
            static_cast<std::uint32_t>(rng_.below(locks.tellers()));
        const std::uint32_t branch = teller / p_.tellers_per_branch;
        std::uint32_t acct_branch = branch;
        if (!rng_.chance(p_.local_branch_prob)) {
            acct_branch = static_cast<std::uint32_t>(
                rng_.below(p_.branches));
        }
        const std::uint64_t account =
            static_cast<std::uint64_t>(acct_branch) *
                p_.accounts_per_branch +
            rng_.below(p_.accounts_per_branch);

        // --- account update: directory probe + row access in the block
        // buffer (large footprint: mostly capacity misses to memory).
        b.call();
        routineWork();
        bufferLookup(account * 0x9e3779b9ull);
        // Hot-block concentration: the buffer working set is Zipf-like,
        // with a hot head that fits the L2 and a long cold tail.
        const std::uint32_t blk = static_cast<std::uint32_t>(
            (rng_.zipf(p_.sga.buffer_blocks, p_.buffer_zipf_skew) *
             2654435761ull) %
            p_.sga.buffer_blocks);
        const std::uint32_t row_off = static_cast<std::uint32_t>(
            (account % 16) * 128);
        const std::uint64_t rowld = b.emitted();
        b.memOp(OpClass::Load, lay.bufferBlock(blk, row_off));
        b.compute(4);
        b.memOp(OpClass::Load, lay.bufferBlock(blk, row_off + 16),
                static_cast<std::uint32_t>(b.emitted() - rowld));
        b.compute(3);
        b.memOp(OpClass::Store, lay.bufferBlock(blk, row_off), 1);
        b.ret();

        // --- teller and branch balance updates: the hot migratory
        // metadata (latch word shares the line with the balances).
        updateRecord(kTellerRoutine, locks.tellerLock(teller),
                     locks.tellerData(teller, 0),
                     locks.tellerData(teller, 1));
        updateRecord(kBranchRoutine, locks.branchLock(branch),
                     locks.branchData(branch, 0),
                     locks.branchData(branch, 1));

        // --- history append (per-process insert point, low contention).
        b.call();
        b.compute(5);
        const std::uint32_t hist_blk = static_cast<std::uint32_t>(
            (proc_ * 64 + (hist_seq_ / 16) % 64) % p_.sga.buffer_blocks);
        b.memOp(OpClass::Store,
                lay.bufferBlock(hist_blk, (hist_seq_ % 16) * 64));
        ++hist_seq_;
        b.ret();

        // --- redo log: allocation under one of a small set of copy
        // latches (as in Oracle's redo copy latches), then the record
        // copy into the log buffer.
        b.callTo(kRedoRoutine);
        const std::uint32_t latch = static_cast<std::uint32_t>(
            rng_.below(p_.redo_copy_latches));
        b.lockAcquire(locks.bucketLock(latch));
        const std::uint64_t ld = b.emitted();
        b.memOp(OpClass::Load, locks.bucketChain(latch, 0));
        b.memOp(OpClass::Store, locks.bucketChain(latch, 0),
                static_cast<std::uint32_t>(b.emitted() - ld));
        b.lockRelease(locks.bucketLock(latch));
        for (std::uint32_t w = 0; w < 3; ++w) {
            b.memOp(OpClass::Store,
                    lay.log(log_off_ + proc_ * 4096 + w * 16));
        }
        log_off_ = (log_off_ + 64) % 4096;
        b.compute(4);
        b.ret();

        // --- commit: group commit blocks every Nth transaction on the
        // log writer's I/O.
        b.compute(10);
        ++txns_;
        if (txns_ % p_.commits_per_group == 0) {
            const Cycles jitter = rng_.below(p_.log_io_latency / 4 + 1);
            b.syscall(p_.log_io_latency + jitter);
        }
    }

    static constexpr std::uint32_t kTellerRoutine = 1;
    static constexpr std::uint32_t kBranchRoutine = 2;
    static constexpr std::uint32_t kRedoRoutine = 3;

    const OltpWorkload *wl_;
    OltpParams p_;
    ProcId proc_;
    Rng rng_;
    TraceBuilder builder_;
    std::uint64_t txns_ = 0;
    std::uint64_t hist_seq_ = 0;
    std::uint64_t log_off_ = 0;
};

} // namespace

OltpWorkload::OltpWorkload(const OltpParams &params)
    : p_(params), layout_(params.sga),
      locks_(&layout_, params.branches, params.tellers_per_branch,
             params.hash_buckets),
      code_(SgaLayout::kCodeBase, params.sga.code_bytes, params.seed)
{
    if (p_.num_procs == 0)
        DBSIM_FATAL("OLTP workload needs at least one process");
}

std::vector<Addr>
OltpWorkload::hotLatches() const
{
    std::vector<Addr> v;
    for (std::uint32_t b = 0; b < p_.branches; ++b)
        v.push_back(locks_.branchLock(b));
    for (std::uint32_t t = 0; t < locks_.tellers(); ++t)
        v.push_back(locks_.tellerLock(t));
    for (std::uint32_t l = 0; l < p_.redo_copy_latches; ++l)
        v.push_back(locks_.bucketLock(l));
    return v;
}

std::unique_ptr<trace::TraceSource>
OltpWorkload::makeProcess(ProcId proc) const
{
    DBSIM_ASSERT(proc < p_.num_procs, "process index out of range");
    Rng rng(p_.seed * 0x100000001b3ull + proc * 0x9e3779b97f4a7c15ull + 1);
    return std::make_unique<OltpProcessSource>(this, proc, rng);
}

} // namespace dbsim::workload
