/**
 * @file
 * The instruction trace record consumed by the processor models.
 *
 * This is the analogue of the ATOM-derived Alpha traces in the paper: a
 * per-process stream of dynamic instructions annotated with memory
 * addresses, register-dependence information, branch outcomes, and the
 * higher-level synchronization / blocking-system-call markers the
 * simulator uses to drive scheduling and lock modeling (paper section 2.2).
 */

#ifndef DBSIM_TRACE_RECORD_HPP
#define DBSIM_TRACE_RECORD_HPP

#include <cstdint>
#include <string>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::trace {

/**
 * Dynamic-instruction class.  The processor model maps these onto
 * functional-unit demands and memory-system actions.
 */
enum class OpClass : std::uint8_t {
    IntAlu,       ///< integer arithmetic (uses an integer ALU)
    FpAlu,        ///< floating-point operation (uses an FP unit)
    Load,         ///< memory load (uses an address-generation unit)
    Store,        ///< memory store (uses an address-generation unit)
    BranchCond,   ///< conditional branch (hybrid PA/g predictor)
    BranchJmp,    ///< unconditional jump / indirect branch (BTB)
    BranchCall,   ///< call (BTB + pushes return-address stack)
    BranchRet,    ///< return (pops return-address stack)
    MemBarrier,   ///< Alpha MB: full memory fence
    WriteBarrier, ///< Alpha WMB: write fence
    LockAcquire,  ///< annotated lock acquire (RMW on vaddr, may spin)
    LockRelease,  ///< annotated lock release (store to vaddr)
    SyscallBlock, ///< blocking system call; extra = I/O latency in cycles
    Prefetch,     ///< software prefetch hint (non-binding, shared)
    PrefetchExcl, ///< software prefetch-exclusive hint
    Flush,        ///< flush / WriteThrough hint: sharing writeback of vaddr
};

/** Number of distinct OpClass values. */
inline constexpr std::size_t kNumOpClasses = 16;

/** True for classes that carry a data memory address. */
constexpr bool
isMemory(OpClass op)
{
    switch (op) {
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::LockAcquire:
      case OpClass::LockRelease:
      case OpClass::Prefetch:
      case OpClass::PrefetchExcl:
      case OpClass::Flush:
        return true;
      default:
        return false;
    }
}

/** True for loads and load-like sync reads. */
constexpr bool
isLoad(OpClass op)
{
    return op == OpClass::Load || op == OpClass::LockAcquire;
}

/** True for stores and store-like sync writes. */
constexpr bool
isStore(OpClass op)
{
    return op == OpClass::Store || op == OpClass::LockRelease;
}

/** True for all branch classes. */
constexpr bool
isBranch(OpClass op)
{
    switch (op) {
      case OpClass::BranchCond:
      case OpClass::BranchJmp:
      case OpClass::BranchCall:
      case OpClass::BranchRet:
        return true;
      default:
        return false;
    }
}

/** True for the non-binding software hint classes. */
constexpr bool
isHint(OpClass op)
{
    return op == OpClass::Prefetch || op == OpClass::PrefetchExcl ||
           op == OpClass::Flush;
}

/** Human-readable class name. */
const char *opClassName(OpClass op);

/**
 * One dynamic instruction.
 *
 * Dependence encoding: dep1/dep2 give the distance, in dynamic
 * instructions, backwards to the producers of this instruction's source
 * operands (0 = no dependence / producer too far back to matter).  For a
 * load, dep1 is the address-generation dependence; for a store, dep1 is
 * the address and dep2 the data dependence.  The out-of-order core uses
 * these to build its wakeup graph; the in-order core stalls on them.
 */
struct TraceRecord
{
    Addr pc = 0;             ///< virtual PC of the instruction
    Addr vaddr = kNoAddr;    ///< data virtual address (memory ops / hints)
    std::uint64_t extra = 0; ///< branch target, or syscall latency (cycles)
    OpClass op = OpClass::IntAlu;
    std::uint8_t dep1 = 0;   ///< distance to first source producer
    std::uint8_t dep2 = 0;   ///< distance to second source producer
    bool taken = false;      ///< conditional-branch outcome

    bool operator==(const TraceRecord &) const = default;
};

/** Compact single-line rendering, for debugging and golden tests. */
std::string toString(const TraceRecord &rec);

/// @{ Checkpoint encoding of a TraceRecord (field-by-field; never memcpy).
inline void
saveRecord(snap::Writer &w, const TraceRecord &rec)
{
    w.u64(rec.pc);
    w.u64(rec.vaddr);
    w.u64(rec.extra);
    w.u8(static_cast<std::uint8_t>(rec.op));
    w.u8(rec.dep1);
    w.u8(rec.dep2);
    w.boolean(rec.taken);
}

inline TraceRecord
loadRecord(snap::Reader &r)
{
    TraceRecord rec;
    rec.pc = r.u64();
    rec.vaddr = r.u64();
    rec.extra = r.u64();
    const std::uint8_t op = r.u8();
    if (op >= kNumOpClasses)
        throw snap::SnapshotError("snapshot: record op names no class");
    rec.op = static_cast<OpClass>(op);
    rec.dep1 = r.u8();
    rec.dep2 = r.u8();
    rec.taken = r.boolean();
    return rec;
}
/// @}

} // namespace dbsim::trace

#endif // DBSIM_TRACE_RECORD_HPP
