#include "cpu/func_units.hpp"

namespace dbsim::cpu {

void
FuncUnitPool::rollCycle(Cycles now)
{
    if (cycle_ != now) {
        cycle_ = now;
        int_used_ = fp_used_ = addr_used_ = 0;
    }
}

bool
FuncUnitPool::tryIssue(trace::OpClass op, Cycles now)
{
    using trace::OpClass;
    rollCycle(now);
    if (p_.infinite)
        return true;

    switch (op) {
      case OpClass::FpAlu:
        if (fp_used_ < p_.fp_units) {
            ++fp_used_;
            return true;
        }
        break;
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::LockAcquire:
      case OpClass::LockRelease:
      case OpClass::Prefetch:
      case OpClass::PrefetchExcl:
      case OpClass::Flush:
        if (addr_used_ < p_.addr_units) {
            ++addr_used_;
            return true;
        }
        break;
      default:
        // Integer ops, branches, and fences use the integer ALUs.
        if (int_used_ < p_.int_alus) {
            ++int_used_;
            return true;
        }
        break;
    }
    return false;
}

std::uint32_t
FuncUnitPool::latency(trace::OpClass op) const
{
    using trace::OpClass;
    switch (op) {
      case OpClass::FpAlu:
        return p_.fp_latency;
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::LockAcquire:
      case OpClass::LockRelease:
      case OpClass::Prefetch:
      case OpClass::PrefetchExcl:
      case OpClass::Flush:
        return p_.agen_latency;
      case OpClass::BranchCond:
      case OpClass::BranchJmp:
      case OpClass::BranchCall:
      case OpClass::BranchRet:
        return p_.branch_latency;
      default:
        return p_.int_latency;
    }
}

} // namespace dbsim::cpu
