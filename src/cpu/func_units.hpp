/**
 * @file
 * Functional-unit pools.
 *
 * The base machine has 2 integer ALUs, 2 floating-point units, and 2
 * address-generation units (paper Figure 1); all are fully pipelined, so
 * each unit accepts one operation per cycle.  The pool therefore enforces
 * a per-cycle, per-class issue limit.  Figure 4 / section 3.2.2 study
 * idealized ("infinite") functional units, which the pool supports.
 */

#ifndef DBSIM_CPU_FUNC_UNITS_HPP
#define DBSIM_CPU_FUNC_UNITS_HPP

#include <cstdint>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace dbsim::cpu {

/** Functional-unit configuration. */
struct FuncUnitParams
{
    std::uint32_t int_alus = 2;
    std::uint32_t fp_units = 2;
    std::uint32_t addr_units = 2;
    bool infinite = false;      ///< idealized: no structural limits

    std::uint32_t int_latency = 1;
    std::uint32_t fp_latency = 4;
    std::uint32_t agen_latency = 1; ///< address-generation stage
    std::uint32_t branch_latency = 1;
};

/** Per-cycle functional-unit availability tracker. */
class FuncUnitPool
{
  public:
    explicit FuncUnitPool(const FuncUnitParams &params = {}) : p_(params) {}

    /**
     * Try to claim a unit for @p op in cycle @p now.
     * @return true if a unit was available (and is now claimed).
     */
    bool tryIssue(trace::OpClass op, Cycles now);

    /** Execution latency of @p op (cycles from issue to completion). */
    std::uint32_t latency(trace::OpClass op) const;

    const FuncUnitParams &params() const { return p_; }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(cycle_);
        w.u32(int_used_);
        w.u32(fp_used_);
        w.u32(addr_used_);
    }

    void
    restoreState(snap::Reader &r)
    {
        cycle_ = r.u64();
        int_used_ = r.u32();
        fp_used_ = r.u32();
        addr_used_ = r.u32();
    }

  private:
    void rollCycle(Cycles now);

    FuncUnitParams p_;
    Cycles cycle_ = kNever;
    std::uint32_t int_used_ = 0;
    std::uint32_t fp_used_ = 0;
    std::uint32_t addr_used_ = 0;
};

} // namespace dbsim::cpu

#endif // DBSIM_CPU_FUNC_UNITS_HPP
