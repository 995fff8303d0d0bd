#include "workload/dss_engine.hpp"

#include "common/log.hpp"

namespace dbsim::workload {

using trace::OpClass;

namespace {

class DssProcessSource : public trace::GeneratingSource
{
  public:
    DssProcessSource(const DssWorkload *wl, ProcId proc, Rng rng,
                     std::uint32_t first_block, std::uint32_t end_block)
        : wl_(wl), p_(wl->params()), proc_(proc),
          scan_(&wl->code(), rng, buffer(), p_.builder, first_block,
                end_block)
    {
    }

    void
    saveState(snap::Writer &w) const override
    {
        GeneratingSource::saveState(w);
        scan_.rng.saveState(w);
        scan_.b.saveState(w);
        w.u8(static_cast<std::uint8_t>(scan_.at));
        w.u32(scan_.blk);
        w.u32(scan_.row);
        w.u32(scan_.i);
        w.u32(scan_.fill);
        w.u32(scan_.next_block);
        w.u32(scan_.end_block);
    }

    void
    restoreState(snap::Reader &r) override
    {
        GeneratingSource::restoreState(r);
        scan_.rng.restoreState(r);
        scan_.b.restoreState(r);
        scan_.at = loadPosition(r, At::EpilogueEnd);
        scan_.blk = r.u32();
        scan_.row = r.u32();
        scan_.i = r.u32();
        scan_.fill = r.u32();
        scan_.next_block = r.u32();
        scan_.end_block = r.u32();
    }

  protected:
    void
    refill() override
    {
        if (scan_.at == At::Start && scan_.next_block >= scan_.end_block) {
            finish();
            return;
        }
        scan(scan_);
    }

  private:
    /**
     * Where the scan of a block stands between refills.  restoreState()
     * rejects a value past EpilogueEnd.
     */
    enum class At : std::uint8_t {
        Start,       ///< before the next block's prologue
        Fields,      ///< row field loads, from field i
        RowCompute,  ///< predicate evaluation, fill fillers left
        Private,     ///< stack traffic, from ref i
        RowEnd,      ///< work-area and qualifying-row traffic
        EpilogueCompute,
        EpilogueEnd, ///< aggregate maintenance and the return
    };

    /** The generator state: RNG, builder and position in the scan. */
    struct Scan
    {
        Scan(const CodeLayout *code, Rng r, trace::RecordBuffer *out,
             const BuilderParams &bp, std::uint32_t first,
             std::uint32_t end)
            : rng(r), b(code, &rng, out, bp, kRingRecords),
              next_block(first), end_block(end)
        {
        }

        Rng rng;
        TraceBuilder b;
        std::uint32_t next_block;
        std::uint32_t end_block;
        At at = At::Start;
        std::uint32_t blk = 0;
        std::uint32_t row = 0;
        std::uint32_t i = 0;
        std::uint32_t fill = 0;
    };

    /** Go on to row s.row, or to the epilogue past the last row. */
    void
    nextRow(Scan &s, std::uint32_t rows) const
    {
        if (s.row < rows) {
            s.at = At::Fields;
        } else {
            s.fill = p_.block_epilogue_compute;
            s.at = At::EpilogueCompute;
        }
    }

    /**
     * Scan @p s's block onward until the block ends (true) or its
     * buffer is full (false).  From At::Start it begins the next block.
     */
    bool
    scan(Scan &s) const
    {
        auto &b = s.b;
        auto &rng = s.rng;
        const auto &lay = wl_->layout();
        const std::uint32_t rows = wl_->rowsPerBlock();

        while (!b.full()) {
            const std::uint32_t row_off = 64 + s.row * p_.row_bytes;
            switch (s.at) {
              case At::Start:
                s.blk = s.next_block++;
                // Small rotating set of scan routines: the loop code
                // fits L1I.
                b.call();
                // Block header checks.
                b.memOp(OpClass::Load, lay.bufferBlock(s.blk, 0));
                b.compute(6);
                s.row = 0;
                nextRow(s, rows);
                break;

              case At::Fields:
                // Field loads (independent: addresses come from the row
                // directory computed long before) with intra-row
                // re-reads.
                for (; s.i < p_.table_refs_per_row; ++s.i) {
                    if (b.full())
                        return false;
                    b.memOp(OpClass::Load,
                            lay.bufferBlock(s.blk, row_off + (s.i % 4) * 8));
                }
                s.i = 0;
                s.fill = p_.compute_per_row;
                s.at = At::RowCompute;
                break;

              case At::RowCompute:
                // Predicate evaluation (compute + the builder's
                // branches).
                if (!b.computeSome(s.fill))
                    return false;
                s.at = At::Private;
                break;

              case At::Private:
                // Per-process stack traffic (cache-resident).
                for (; s.i < p_.private_refs_per_row; ++s.i) {
                    if (b.full())
                        return false;
                    b.memOp(s.i == 0 ? OpClass::Store : OpClass::Load,
                            lay.privateMem(proc_, rng.below(512) * 8));
                }
                s.i = 0;
                s.at = At::RowEnd;
                break;

              case At::RowEnd:
                // Work-area traffic: footprint between L1 and L2 sizes,
                // so these misses hit in the L2 (the paper's 23% L2 miss
                // rate implies most DSS L2 accesses are L2 hits).
                if (rng.chance(p_.workarea_chance)) {
                    const std::uint64_t off =
                        8192 + rng.below(p_.workarea_bytes / 8) * 8;
                    b.memOp(rng.chance(0.5) ? OpClass::Store
                                            : OpClass::Load,
                            lay.privateMem(proc_, off));
                }
                if (rng.chance(p_.selectivity)) {
                    // Qualifying row: revenue += price * discount.
                    const std::uint64_t ld = b.emitted();
                    b.memOp(OpClass::Load,
                            lay.bufferBlock(s.blk, row_off + 8));
                    b.compute(3);
                    b.memOp(OpClass::Store, lay.privateMem(proc_, 64),
                            static_cast<std::uint32_t>(b.emitted() - ld));
                }
                ++s.row;
                nextRow(s, rows);
                break;

              case At::EpilogueCompute:
                // Block epilogue: row-source bookkeeping and partial-
                // aggregate maintenance (cache-resident compute).
                if (!b.computeSome(s.fill))
                    return false;
                s.at = At::EpilogueEnd;
                break;

              case At::EpilogueEnd:
                for (std::uint32_t pr = 0; pr < 8; ++pr) {
                    b.memOp(pr % 3 == 0 ? OpClass::Store : OpClass::Load,
                            lay.privateMem(proc_, rng.below(512) * 8));
                }
                b.ret();
                s.at = At::Start;
                return true;
            }
        }
        return false;
    }

    const DssWorkload *wl_;
    DssParams p_;
    ProcId proc_;
    Scan scan_;
};

} // namespace

DssWorkload::DssWorkload(const DssParams &params)
    : p_(params), layout_(params.sga),
      code_(SgaLayout::kCodeBase, params.sga.code_bytes, params.seed)
{
    if (p_.num_procs == 0)
        DBSIM_FATAL("DSS workload needs at least one process");
    if (tableBlocks() > p_.sga.buffer_blocks)
        DBSIM_FATAL("DSS table larger than the block buffer area");
}

std::uint32_t
DssWorkload::rowsPerBlock() const
{
    const std::uint32_t usable = p_.sga.block_bytes - 64;
    return usable / p_.row_bytes;
}

std::uint32_t
DssWorkload::tableBlocks() const
{
    return static_cast<std::uint32_t>(
        p_.table_bytes / p_.sga.block_bytes);
}

std::unique_ptr<trace::TraceSource>
DssWorkload::makeProcess(ProcId proc) const
{
    DBSIM_ASSERT(proc < p_.num_procs, "process index out of range");
    const std::uint32_t blocks = tableBlocks();
    const std::uint32_t per = blocks / p_.num_procs;
    const std::uint32_t first = proc * per;
    const std::uint32_t end =
        (proc + 1 == p_.num_procs) ? blocks : first + per;
    Rng rng(p_.seed * 0x100000001b3ull + proc * 0x9e3779b97f4a7c15ull + 7);
    return std::make_unique<DssProcessSource>(this, proc, rng, first, end);
}

} // namespace dbsim::workload
