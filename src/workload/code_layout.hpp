/**
 * @file
 * Synthetic code layout and the trace builder.
 *
 * CodeLayout models the database engine's instruction footprint as a set
 * of routines laid out contiguously in the code segment.  TraceBuilder
 * walks routines emitting instruction records with realistic structure:
 * sequential PC runs broken by conditional branches (biased per static
 * site so the hybrid predictor sees learnable patterns with a residual
 * hard fraction), calls/returns that exercise the BTB and return-address
 * stack, register-dependence chains, and the memory operations the
 * workload engines interleave.
 *
 * The streaming-run lengths between taken branches are kept short (a few
 * cache lines), reproducing the instruction-reference pattern that makes
 * a small stream buffer effective for OLTP (paper section 4.1).
 *
 * The engines generate through a builder bound to their source's fixed
 * ring: they emit one bounded step at a time, stop when full() says the
 * ring has no room for another, and resume at the next refill; a long
 * compute run is split with computeSome().  A checkpoint saves the
 * builder's walk position next to the engine's own position, so a
 * restored engine resumes mid-burst.
 */

#ifndef DBSIM_WORKLOAD_CODE_LAYOUT_HPP
#define DBSIM_WORKLOAD_CODE_LAYOUT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dbsim::workload {

/**
 * The engine's code segment: routines with deterministic pseudo-random
 * sizes derived from a seed.
 */
class CodeLayout
{
  public:
    /**
     * @param base        code segment base address
     * @param code_bytes  total instruction footprint
     * @param seed        layout seed (sizes are deterministic in it)
     */
    CodeLayout(Addr base, std::uint64_t code_bytes, std::uint64_t seed);

    std::uint32_t numRoutines() const
    {
        return static_cast<std::uint32_t>(starts_.size());
    }

    Addr routineStart(std::uint32_t r) const { return starts_.at(r); }
    std::uint32_t routineInstrs(std::uint32_t r) const { return sizes_.at(r); }

    Addr base() const { return base_; }

  private:
    Addr base_;
    std::vector<Addr> starts_;
    std::vector<std::uint32_t> sizes_;
};

/** Instruction-mix knobs for the builder. */
struct BuilderParams
{
    double branch_every = 6.0;    ///< mean filler instrs between branches
    double hard_branch_frac = 0.10; ///< static sites with ~50/50 outcomes
    double fp_frac = 0.0;         ///< fraction of filler ops that are FP
    std::uint8_t max_dep = 5;     ///< max filler dependence distance
    double dep_chance = 0.7;      ///< chance a filler op has a dependence
};

/**
 * Appends TraceRecords to a buffer while walking the code layout.
 *
 * A builder bound to a GeneratingSource's ring reports full() once the
 * ring lacks room for another step; the engines stop there and resume
 * at the next refill, splitting long compute runs with computeSome().
 * Every primitive below appends at most four records (the record, a
 * loop-back jump, a conditional branch and its own loop-back jump).
 */
class TraceBuilder
{
  public:
    /** No limit: full() never holds (tests). */
    static constexpr std::size_t kUnbounded = SIZE_MAX;

    /** @param out    where records go, usually the owning
     *                GeneratingSource's buffer()
     *  @param limit  the most records @p out may hold */
    TraceBuilder(const CodeLayout *code, Rng *rng, trace::RecordBuffer *out,
                 BuilderParams params = {}, std::size_t limit = kUnbounded);

    /** A copy would share the original's RNG and buffer. */
    TraceBuilder(const TraceBuilder &) = delete;
    TraceBuilder &operator=(const TraceBuilder &) = delete;

    /** The buffer lacks room for a step of GeneratingSource::kStepRecords
     *  records. */
    bool full() const { return out_->size() > stop_; }

    /**
     * Emit filler instructions, counting @p left down, until it reaches
     * zero or the buffer is full().
     * @return true when none remain
     */
    bool computeSome(std::uint32_t &left);

    /**
     * Call a routine (exercises BTB + RAS).  The target is a
     * deterministic function of the call-site PC, as in real code where
     * each call site has a fixed target; which sites execute varies
     * with the control-flow path, so repeated calls still walk the full
     * code footprint.
     */
    void call();

    /**
     * Call a specific routine (fixed target regardless of site).  Used
     * for the engine's fixed code paths (e.g. the balance-update and
     * redo-allocation routines), so that the instructions generating
     * migratory references are a small stable set of PCs, as the paper
     * observes (section 4.2).
     */
    void callTo(std::uint32_t routine);

    /** Return from the current routine. */
    void ret();

    /** Emit @p n filler instructions (ALU / FP / conditional branches). */
    void compute(std::uint32_t n);

    /**
     * Emit a memory operation at the current PC.
     * @param op          Load / Store / hints
     * @param addr        data virtual address
     * @param dep_on_last when nonzero, make the op depend on the record
     *                    emitted @p dep_on_last records ago (1 = chain on
     *                    the immediately preceding record)
     */
    void memOp(trace::OpClass op, Addr addr, std::uint32_t dep_on_last = 0);

    /** Lock acquire on @p addr followed by an acquire fence (MB). */
    void lockAcquire(Addr addr);

    /** Release fence (WMB) followed by the lock release store. */
    void lockRelease(Addr addr);

    /** Blocking system call with the given I/O latency. */
    void syscall(Cycles latency);

    /** Total records emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** Current call depth (for tests). */
    std::size_t depth() const { return stack_.size(); }

    /**
     * Walk position only; the code layout, RNG, and buffer are bound at
     * construction (the owning engine serializes its RNG itself).
     */
    void
    saveState(snap::Writer &w) const
    {
        w.u32(cur_routine_);
        w.u64(pc_);
        w.u64(stack_.size());
        for (const Frame &f : stack_) {
            w.u32(f.routine);
            w.u64(f.return_pc);
        }
        w.u64(emitted_);
        w.f64(branch_credit_);
    }

    void
    restoreState(snap::Reader &r)
    {
        enter(loadRoutine(r));
        pc_ = r.u64();
        stack_.clear();
        const std::size_t n = r.length(12);
        for (std::size_t i = 0; i < n; ++i) {
            Frame f;
            f.routine = loadRoutine(r);
            f.return_pc = r.u64();
            stack_.push_back(f);
        }
        emitted_ = r.u64();
        branch_credit_ = r.f64();
    }

  private:
    /** Read a routine index; throws unless the code layout has it. */
    std::uint32_t
    loadRoutine(snap::Reader &r) const
    {
        const std::uint32_t routine = r.u32();
        if (routine >= code_->numRoutines())
            throw snap::SnapshotError("snapshot: trace builder routine " +
                                      std::to_string(routine) +
                                      " out of range");
        return routine;
    }

    void enter(std::uint32_t routine); ///< make @p routine current
    void emit(trace::TraceRecord rec);
    void fillerOp();
    void advancePc();
    void maybeBranch();
    double siteBias(Addr pc) const;

    const CodeLayout *code_;
    Rng *rng_;
    trace::RecordBuffer *out_;
    std::size_t stop_; ///< full() above this many buffered records
    BuilderParams p_;
    double branch_step_; ///< 1 / branch_every

    struct Frame
    {
        std::uint32_t routine;
        Addr return_pc;
    };

    std::uint32_t cur_routine_ = 0;
    Addr cur_start_ = 0; ///< cur_routine_'s bounds in the code segment
    Addr cur_end_ = 0;
    Addr pc_;
    std::vector<Frame> stack_;
    std::uint64_t emitted_ = 0;
    double branch_credit_ = 0.0;
};

} // namespace dbsim::workload

#endif // DBSIM_WORKLOAD_CODE_LAYOUT_HPP
