#include "workload/oltp_engine.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"

namespace dbsim::workload {

using trace::OpClass;

namespace {

/** Per-server-process transaction generator. */
class OltpProcessSource : public trace::GeneratingSource
{
  public:
    OltpProcessSource(const OltpWorkload *wl, ProcId proc, Rng rng)
        : wl_(wl), p_(wl->params()), proc_(proc),
          txn_(&wl->code(), rng, buffer(), p_.builder)
    {
    }

    void
    saveState(snap::Writer &w) const override
    {
        GeneratingSource::saveState(w);
        txn_.rng.saveState(w);
        txn_.b.saveState(w);
        w.u8(static_cast<std::uint8_t>(txn_.at));
        w.u32(txn_.i);
        w.u32(txn_.k);
        w.u32(txn_.fill);
        w.u32(txn_.teller);
        w.u32(txn_.branch);
        w.u64(txn_.account);
        w.u64(txn_.txns);
        w.u64(txn_.hist_seq);
        w.u64(txn_.log_off);
    }

    void
    restoreState(snap::Reader &r) override
    {
        GeneratingSource::restoreState(r);
        txn_.rng.restoreState(r);
        txn_.b.restoreState(r);
        txn_.at = loadPosition(r, At::Commit);
        txn_.i = r.u32();
        txn_.k = r.u32();
        txn_.fill = r.u32();
        txn_.teller = r.u32();
        txn_.branch = r.u32();
        txn_.account = r.u64();
        txn_.txns = r.u64();
        txn_.hist_seq = r.u64();
        txn_.log_off = r.u64();
    }

  protected:
    void refill() override { transaction(txn_); }

  private:
    /**
     * Where a transaction stands between refills.  restoreState()
     * rejects a value past Commit.
     */
    enum class At : std::uint8_t {
        Start,     ///< before the next transaction
        Parse,     ///< parse routine i's call, or past the last routine
        ParseWork, ///< routine i's private-ref loop
        Pick,      ///< choose teller, branch and account
        BodyWork,  ///< the account routine's private-ref loop
        Lookup,    ///< buffer-directory probe
        Row,       ///< account row update
        Teller,
        Branch,
        History,
        Redo,
        Commit,
    };

    /** The generator state: RNG, builder and position in a transaction. */
    struct Txn
    {
        Txn(const CodeLayout *code, Rng r, trace::RecordBuffer *out,
            const BuilderParams &bp)
            : rng(r), b(code, &rng, out, bp, kRingRecords)
        {
        }

        Rng rng;
        TraceBuilder b;
        std::uint64_t txns = 0;
        std::uint64_t hist_seq = 0;
        std::uint64_t log_off = 0;
        At at = At::Start;
        std::uint32_t i = 0;    ///< parse routine
        std::uint32_t k = 0;    ///< private ref of the current routine
        std::uint32_t fill = 0; ///< fillers left before ref k
        std::uint32_t teller = 0;
        std::uint32_t branch = 0;
        std::uint64_t account = 0;
    };

    std::uint32_t
    computePerRef() const
    {
        return p_.compute_per_routine /
               std::max<std::uint32_t>(1, p_.private_refs_per_routine);
    }

    void
    startRoutineWork(Txn &t) const
    {
        t.k = 0;
        t.fill = computePerRef();
    }

    /**
     * Load/compute mixture standing in for interpreter/parse work, from
     * private ref t.k on.
     * @return false if the buffer filled first
     */
    bool
    routineWork(Txn &t) const
    {
        auto &b = t.b;
        for (; t.k < p_.private_refs_per_routine; ++t.k) {
            if (!b.computeSome(t.fill) || b.full())
                return false;
            // Private stack/heap traffic: mostly cache-resident.
            b.memOp(t.rng.chance(0.3) ? OpClass::Store : OpClass::Load,
                    wl_->layout().privateMem(proc_, t.rng.below(768) * 8));
            t.fill = computePerRef();
        }
        return true;
    }

    /**
     * Buffer-directory probe: a dependent chain walk down the hash
     * bucket (the dependent-load pattern that limits OLTP's memory-level
     * parallelism).  Reads are latch-free; the protected update paths
     * (teller/branch/redo) carry the latching.
     */
    void
    bufferLookup(Txn &t, std::uint64_t key) const
    {
        auto &b = t.b;
        const auto &locks = wl_->locks();
        const std::uint32_t bucket =
            static_cast<std::uint32_t>(key % locks.hashBuckets());
        const std::uint32_t depth =
            1 + static_cast<std::uint32_t>(t.rng.below(3));
        std::uint64_t prev = 0;
        for (std::uint32_t d = 0; d < depth; ++d) {
            const std::uint64_t idx = b.emitted();
            b.memOp(OpClass::Load, locks.bucketChain(bucket, d),
                    d == 0 ? 0
                           : static_cast<std::uint32_t>(idx - prev));
            prev = idx;
            b.compute(2);
        }
    }

    /**
     * Latch-protected read-modify-write of a metadata record.  The
     * memory operations sit at the top of a fixed routine, so the
     * instructions generating migratory references are a small stable
     * set of PCs (paper section 4.2).
     */
    static void
    updateRecord(TraceBuilder &b, std::uint32_t routine, Addr lock,
                 Addr data0, Addr data1)
    {
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

    /**
     * Generate @p t's transaction onward until it commits (true) or its
     * buffer is full (false).  From At::Start it begins the next one.
     * Each case is one step; the longest, an updateRecord(), appends at
     * most 50 records.
     */
    bool
    transaction(Txn &t) const
    {
        auto &b = t.b;
        auto &rng = t.rng;
        const auto &lay = wl_->layout();
        const auto &locks = wl_->locks();

        while (!b.full()) {
            switch (t.at) {
              case At::Start:
                t.i = 0;
                t.at = At::Parse;
                break;

              case At::Parse:
                // --- begin / parse / plan: walk the instruction
                // footprint.
                if (t.i == p_.parse_routine_calls) {
                    t.at = At::Pick;
                    break;
                }
                b.call();
                startRoutineWork(t);
                t.at = At::ParseWork;
                break;

              case At::ParseWork:
                if (!routineWork(t))
                    return false;
                b.ret();
                ++t.i;
                t.at = At::Parse;
                break;

              case At::Pick: {
                // --- pick teller, branch, account (TPC-B profile).
                t.teller =
                    static_cast<std::uint32_t>(rng.below(locks.tellers()));
                t.branch = t.teller / p_.tellers_per_branch;
                std::uint32_t acct_branch = t.branch;
                if (!rng.chance(p_.local_branch_prob)) {
                    acct_branch = static_cast<std::uint32_t>(
                        rng.below(p_.branches));
                }
                t.account = static_cast<std::uint64_t>(acct_branch) *
                                p_.accounts_per_branch +
                            rng.below(p_.accounts_per_branch);

                // --- account update: directory probe + row access in
                // the block buffer (large footprint: mostly capacity
                // misses to memory).
                b.call();
                startRoutineWork(t);
                t.at = At::BodyWork;
                break;
              }

              case At::BodyWork:
                if (!routineWork(t))
                    return false;
                t.at = At::Lookup;
                break;

              case At::Lookup:
                bufferLookup(t, t.account * 0x9e3779b9ull);
                t.at = At::Row;
                break;

              case At::Row: {
                // Hot-block concentration: the buffer working set is
                // Zipf-like, with a hot head that fits the L2 and a long
                // cold tail.
                const std::uint32_t blk = static_cast<std::uint32_t>(
                    (rng.zipf(p_.sga.buffer_blocks, p_.buffer_zipf_skew) *
                     2654435761ull) %
                    p_.sga.buffer_blocks);
                const std::uint32_t row_off = static_cast<std::uint32_t>(
                    (t.account % 16) * 128);
                const std::uint64_t rowld = b.emitted();
                b.memOp(OpClass::Load, lay.bufferBlock(blk, row_off));
                b.compute(4);
                b.memOp(OpClass::Load, lay.bufferBlock(blk, row_off + 16),
                        static_cast<std::uint32_t>(b.emitted() - rowld));
                b.compute(3);
                b.memOp(OpClass::Store, lay.bufferBlock(blk, row_off), 1);
                b.ret();
                t.at = At::Teller;
                break;
              }

              case At::Teller:
                // --- teller and branch balance updates: the hot
                // migratory metadata (latch word shares the line with
                // the balances).
                updateRecord(b, kTellerRoutine, locks.tellerLock(t.teller),
                             locks.tellerData(t.teller, 0),
                             locks.tellerData(t.teller, 1));
                t.at = At::Branch;
                break;

              case At::Branch:
                updateRecord(b, kBranchRoutine, locks.branchLock(t.branch),
                             locks.branchData(t.branch, 0),
                             locks.branchData(t.branch, 1));
                t.at = At::History;
                break;

              case At::History: {
                // --- history append (per-process insert point, low
                // contention).
                b.call();
                b.compute(5);
                const std::uint32_t hist_blk = static_cast<std::uint32_t>(
                    (proc_ * 64 + (t.hist_seq / 16) % 64) %
                    p_.sga.buffer_blocks);
                b.memOp(OpClass::Store,
                        lay.bufferBlock(hist_blk, (t.hist_seq % 16) * 64));
                ++t.hist_seq;
                b.ret();
                t.at = At::Redo;
                break;
              }

              case At::Redo: {
                // --- redo log: allocation under one of a small set of
                // copy latches (as in Oracle's redo copy latches), then
                // the record copy into the log buffer.
                b.callTo(kRedoRoutine);
                const std::uint32_t latch = static_cast<std::uint32_t>(
                    rng.below(p_.redo_copy_latches));
                b.lockAcquire(locks.bucketLock(latch));
                const std::uint64_t ld = b.emitted();
                b.memOp(OpClass::Load, locks.bucketChain(latch, 0));
                b.memOp(OpClass::Store, locks.bucketChain(latch, 0),
                        static_cast<std::uint32_t>(b.emitted() - ld));
                b.lockRelease(locks.bucketLock(latch));
                for (std::uint32_t w = 0; w < 3; ++w) {
                    b.memOp(OpClass::Store,
                            lay.log(t.log_off + proc_ * 4096 + w * 16));
                }
                t.log_off = (t.log_off + 64) % 4096;
                b.compute(4);
                b.ret();
                t.at = At::Commit;
                break;
              }

              case At::Commit:
                // --- commit: group commit blocks every Nth transaction
                // on the log writer's I/O.
                b.compute(10);
                ++t.txns;
                if (t.txns % p_.commits_per_group == 0) {
                    const Cycles jitter =
                        rng.below(p_.log_io_latency / 4 + 1);
                    b.syscall(p_.log_io_latency + jitter);
                }
                t.at = At::Start;
                return true;
            }
        }
        return false;
    }

    static constexpr std::uint32_t kTellerRoutine = 1;
    static constexpr std::uint32_t kBranchRoutine = 2;
    static constexpr std::uint32_t kRedoRoutine = 3;

    const OltpWorkload *wl_;
    OltpParams p_;
    ProcId proc_;
    Txn txn_;
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
