#include "workload/code_layout.hpp"

#include "common/log.hpp"

namespace dbsim::workload {

using trace::OpClass;
using trace::TraceRecord;

CodeLayout::CodeLayout(Addr base, std::uint64_t code_bytes,
                       std::uint64_t seed)
    : base_(base)
{
    if (code_bytes < 4096)
        DBSIM_FATAL("code footprint too small");
    Rng rng(seed ^ 0xc0de1a1dull);
    Addr cur = base;
    const Addr end = base + code_bytes;
    while (cur + 64 * 4 <= end) {
        // Routine sizes between 48 and 320 instructions, mean ~150.
        const std::uint32_t instrs =
            48 + static_cast<std::uint32_t>(rng.below(273));
        starts_.push_back(cur);
        sizes_.push_back(instrs);
        cur += static_cast<Addr>(instrs) * 4;
        if (cur + 48 * 4 > end) {
            // Extend the last routine to the end of the footprint.
            sizes_.back() +=
                static_cast<std::uint32_t>((end - cur) / 4);
            break;
        }
    }
    DBSIM_ASSERT(!starts_.empty(), "no routines laid out");
}

// ---------------------------------------------------------------------

TraceBuilder::TraceBuilder(const CodeLayout *code, Rng *rng,
                           trace::RecordBuffer *out, BuilderParams params,
                           std::size_t limit)
    : code_(code), rng_(rng), out_(out),
      stop_(limit == kUnbounded
                ? kUnbounded
                : limit - trace::GeneratingSource::kStepRecords),
      p_(params), branch_step_(1.0 / params.branch_every)
{
    DBSIM_ASSERT(limit >= trace::GeneratingSource::kStepRecords,
                 "trace buffer smaller than one step");
    enter(0);
    pc_ = cur_start_;
}

void
TraceBuilder::enter(std::uint32_t routine)
{
    cur_routine_ = routine;
    cur_start_ = code_->routineStart(routine);
    cur_end_ = cur_start_ +
               static_cast<Addr>(code_->routineInstrs(routine)) * 4;
}

void
TraceBuilder::emit(TraceRecord rec)
{
    rec.pc = pc_;
    out_->push_back(rec);
    ++emitted_;
}

double
TraceBuilder::siteBias(Addr pc) const
{
    // Deterministic per-site bias: most sites are strongly biased (the
    // predictor learns them); a residual fraction is data-dependent.
    const std::uint64_t h = (pc >> 2) * 0x9e3779b97f4a7c15ull;
    const double u = static_cast<double>(h >> 40) / double(1 << 24);
    if (u < p_.hard_branch_frac)
        return 0.5;
    return (h & 1) ? 0.95 : 0.05;
}

void
TraceBuilder::advancePc()
{
    pc_ += 4;
    if (pc_ >= cur_end_) {
        // Fell off the end of the routine body: loop back into it with
        // an unconditional jump (keeps the walk inside the routine until
        // the engine calls ret()).
        TraceRecord r;
        r.op = OpClass::BranchJmp;
        r.extra = cur_start_;
        pc_ = cur_end_ - 4;
        emit(r);
        pc_ = cur_start_;
    }
}

void
TraceBuilder::maybeBranch()
{
    branch_credit_ += branch_step_;
    if (branch_credit_ < 1.0)
        return;
    branch_credit_ -= 1.0;

    const double bias = siteBias(pc_);
    const bool taken = rng_->chance(bias);

    TraceRecord r;
    r.op = OpClass::BranchCond;
    r.taken = taken;
    if (taken) {
        // Short forward skip (2..24 instructions, fixed per site so the
        // same control-flow paths repeat and the predictor's history
        // tables see learnable patterns) with wraparound to the routine
        // start: keeps streaming runs to a few cache lines.
        const std::uint64_t h = (pc_ >> 2) * 0xc2b2ae3d27d4eb4full;
        const std::uint32_t skip =
            2 + static_cast<std::uint32_t>((h >> 33) % 23);
        Addr target = pc_ + 4 * (1 + skip);
        if (target >= cur_end_) {
            target = cur_start_ +
                     (target - cur_end_) % (cur_end_ - cur_start_);
        }
        r.extra = target;
        emit(r);
        pc_ = target;
    } else {
        r.extra = pc_ + 4;
        emit(r);
        advancePc();
    }
}

void
TraceBuilder::fillerOp()
{
    TraceRecord r;
    r.op = (p_.fp_frac > 0.0 && rng_->chance(p_.fp_frac)) ? OpClass::FpAlu
                                                          : OpClass::IntAlu;
    if (rng_->chance(p_.dep_chance))
        r.dep1 = static_cast<std::uint8_t>(1 + rng_->below(p_.max_dep));
    if (rng_->chance(0.3))
        r.dep2 = static_cast<std::uint8_t>(1 + rng_->below(p_.max_dep));
    emit(r);
    advancePc();
    maybeBranch();
}

void
TraceBuilder::compute(std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i)
        fillerOp();
}

bool
TraceBuilder::computeSome(std::uint32_t &left)
{
    for (; left != 0; --left) {
        if (full())
            return false;
        fillerOp();
    }
    return true;
}

void
TraceBuilder::call()
{
    // Per-site fixed target: hash the call-site PC.
    const std::uint64_t h = (pc_ >> 2) * 0xff51afd7ed558ccdull;
    callTo(static_cast<std::uint32_t>((h >> 24) % code_->numRoutines()));
}

void
TraceBuilder::callTo(std::uint32_t routine)
{
    routine %= code_->numRoutines();
    TraceRecord r;
    r.op = OpClass::BranchCall;
    r.extra = code_->routineStart(routine);
    emit(r);
    stack_.push_back(Frame{cur_routine_, pc_ + 4});
    enter(routine);
    pc_ = cur_start_;
}

void
TraceBuilder::ret()
{
    DBSIM_ASSERT(!stack_.empty(), "ret() with empty call stack");
    const Frame f = stack_.back();
    stack_.pop_back();
    TraceRecord r;
    r.op = OpClass::BranchRet;
    r.extra = f.return_pc;
    emit(r);
    enter(f.routine);
    pc_ = f.return_pc;
}

void
TraceBuilder::memOp(OpClass op, Addr addr, std::uint32_t dep_on_last)
{
    TraceRecord r;
    r.op = op;
    r.vaddr = addr;
    if (dep_on_last > 0 && dep_on_last <= 255)
        r.dep1 = static_cast<std::uint8_t>(dep_on_last);
    emit(r);
    advancePc();
    maybeBranch();
}

void
TraceBuilder::lockAcquire(Addr addr)
{
    TraceRecord r;
    r.op = OpClass::LockAcquire;
    r.vaddr = addr;
    emit(r);
    advancePc();
    TraceRecord mb;
    mb.op = OpClass::MemBarrier;
    emit(mb);
    advancePc();
}

void
TraceBuilder::lockRelease(Addr addr)
{
    TraceRecord wmb;
    wmb.op = OpClass::WriteBarrier;
    emit(wmb);
    advancePc();
    TraceRecord r;
    r.op = OpClass::LockRelease;
    r.vaddr = addr;
    emit(r);
    advancePc();
}

void
TraceBuilder::syscall(Cycles latency)
{
    TraceRecord r;
    r.op = OpClass::SyscallBlock;
    r.extra = latency;
    emit(r);
    advancePc();
}

} // namespace dbsim::workload
