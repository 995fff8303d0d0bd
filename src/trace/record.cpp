#include "trace/record.hpp"

#include <cstdio>

namespace dbsim::trace {

const char *
opClassName(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:       return "IntAlu";
      case OpClass::FpAlu:        return "FpAlu";
      case OpClass::Load:         return "Load";
      case OpClass::Store:        return "Store";
      case OpClass::BranchCond:   return "BranchCond";
      case OpClass::BranchJmp:    return "BranchJmp";
      case OpClass::BranchCall:   return "BranchCall";
      case OpClass::BranchRet:    return "BranchRet";
      case OpClass::MemBarrier:   return "MemBarrier";
      case OpClass::WriteBarrier: return "WriteBarrier";
      case OpClass::LockAcquire:  return "LockAcquire";
      case OpClass::LockRelease:  return "LockRelease";
      case OpClass::SyscallBlock: return "SyscallBlock";
      case OpClass::Prefetch:     return "Prefetch";
      case OpClass::PrefetchExcl: return "PrefetchExcl";
      case OpClass::Flush:        return "Flush";
    }
    return "?";
}

std::string
toString(const TraceRecord &rec)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-12s pc=%#llx va=%#llx extra=%llu d1=%u d2=%u t=%d",
                  opClassName(rec.op),
                  static_cast<unsigned long long>(rec.pc),
                  static_cast<unsigned long long>(rec.vaddr),
                  static_cast<unsigned long long>(rec.extra),
                  rec.dep1, rec.dep2, rec.taken ? 1 : 0);
    return buf;
}

} // namespace dbsim::trace
