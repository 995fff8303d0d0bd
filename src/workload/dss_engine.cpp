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
        : wl_(wl), p_(wl->params()), proc_(proc), rng_(rng),
          builder_(&wl->code(), &rng_, buffer(), p_.builder),
          next_block_(first_block), end_block_(end_block)
    {
    }

  public:
    void
    saveState(snap::Writer &w) const override
    {
        GeneratingSource::saveState(w);
        rng_.saveState(w);
        builder_.saveState(w);
        w.u32(next_block_);
        w.u32(end_block_);
    }

    void
    restoreState(snap::Reader &r) override
    {
        GeneratingSource::restoreState(r);
        rng_.restoreState(r);
        builder_.restoreState(r);
        next_block_ = r.u32();
        end_block_ = r.u32();
    }

  protected:
    void
    refill() override
    {
        if (next_block_ >= end_block_) {
            finish();
            return;
        }
        scanBlock(next_block_++);
    }

  private:
    void
    scanBlock(std::uint32_t blk)
    {
        auto &b = builder_;
        const auto &lay = wl_->layout();
        const std::uint32_t rows = wl_->rowsPerBlock();

        // Small rotating set of scan routines: the loop code fits L1I.
        b.call();

        // Block header checks.
        b.memOp(OpClass::Load, lay.bufferBlock(blk, 0));
        b.compute(6);

        for (std::uint32_t r = 0; r < rows; ++r) {
            const std::uint32_t row_off = 64 + r * p_.row_bytes;

            // Field loads (independent: addresses come from the row
            // directory computed long before) with intra-row re-reads.
            for (std::uint32_t f = 0; f < p_.table_refs_per_row; ++f) {
                b.memOp(OpClass::Load,
                        lay.bufferBlock(blk,
                                        row_off + (f % 4) * 8));
            }

            // Predicate evaluation (compute + the builder's branches).
            b.compute(p_.compute_per_row);

            // Per-process stack traffic (cache-resident).
            for (std::uint32_t pr = 0; pr < p_.private_refs_per_row; ++pr) {
                b.memOp(pr == 0 ? OpClass::Store : OpClass::Load,
                        lay.privateMem(proc_, rng_.below(512) * 8));
            }

            // Work-area traffic: footprint between L1 and L2 sizes, so
            // these misses hit in the L2 (the paper's 23% L2 miss rate
            // implies most DSS L2 accesses are L2 hits).
            if (rng_.chance(p_.workarea_chance)) {
                const std::uint64_t off =
                    8192 + rng_.below(p_.workarea_bytes / 8) * 8;
                b.memOp(rng_.chance(0.5) ? OpClass::Store : OpClass::Load,
                        lay.privateMem(proc_, off));
            }

            if (rng_.chance(p_.selectivity)) {
                // Qualifying row: revenue += price * discount.
                const std::uint64_t ld = b.emitted();
                b.memOp(OpClass::Load,
                        lay.bufferBlock(blk, row_off + 8));
                b.compute(3);
                b.memOp(OpClass::Store, lay.privateMem(proc_, 64),
                        static_cast<std::uint32_t>(b.emitted() - ld));
            }
        }

        // Block epilogue: row-source bookkeeping and partial-aggregate
        // maintenance (cache-resident compute).
        b.compute(p_.block_epilogue_compute);
        for (std::uint32_t pr = 0; pr < 8; ++pr) {
            b.memOp(pr % 3 == 0 ? OpClass::Store : OpClass::Load,
                    lay.privateMem(proc_, rng_.below(512) * 8));
        }

        b.ret();
    }

    const DssWorkload *wl_;
    DssParams p_;
    ProcId proc_;
    Rng rng_;
    TraceBuilder builder_;
    std::uint32_t next_block_;
    std::uint32_t end_block_;
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
