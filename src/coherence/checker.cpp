#include "coherence/checker.hpp"

#include <sstream>

#include "coherence/directory.hpp"
#include "common/log.hpp"
#include "memory/cache.hpp"

namespace dbsim::coher {

namespace {

bool
isStrong(mem::CoherState s)
{
    return s == mem::CoherState::Exclusive || s == mem::CoherState::Modified;
}

} // namespace

void
CoherenceChecker::auditPending(CoherenceFabric &fabric, Cycles now)
{
    // Swap out the queue first: a panic thrown mid-audit (and caught by
    // a test) must not leave stale work behind.
    std::vector<std::pair<Addr, const char *>> work;
    work.swap(pending_);
    for (const auto &[block, op] : work)
        auditBlock(fabric, block, op, now);
}

void
CoherenceChecker::auditBlock(CoherenceFabric &fabric, Addr block,
                             const char *op, Cycles now)
{
    ++stats_.audits;
    const DirSnapshot d = fabric.dirState(block);
    const std::uint32_t nodes = fabric.numNodes();

    auto describe = [&](const std::string &what) {
        std::ostringstream os;
        os << "coherence invariant violated after " << op << " of block 0x"
           << std::hex << block << std::dec << " at cycle " << now << ": "
           << what << " (dir owner=" << d.owner << " sharers=0x" << std::hex
           << d.sharers << std::dec << "; site states:";
        for (std::uint32_t n = 0; n < nodes; ++n) {
            CacheSite *site = fabric.site(n);
            os << " n" << n << "="
               << (site ? mem::coherStateName(site->siteState(block)) : "?");
        }
        os << ")";
        return os.str();
    };

    // I1: directory-entry internal consistency.
    if (d.owner >= static_cast<int>(nodes) || d.owner < -1) {
        reportViolation(block, describe("owner index out of range"));
        return;
    }
    if (d.owner >= 0 && d.sharers != 0) {
        reportViolation(block,
                        describe("owned entry still has sharer bits"));
        return;
    }
    if (nodes < 32 && (d.sharers >> nodes) != 0) {
        reportViolation(block,
                        describe("sharer bits for nonexistent nodes"));
        return;
    }

    for (std::uint32_t n = 0; n < nodes; ++n) {
        CacheSite *site = fabric.site(n);
        if (!site)
            continue;
        const mem::CoherState st = site->siteState(block);
        if (!isStrong(st))
            continue;
        // I3: while an owner is recorded, nobody else may be strong.
        if (d.owner >= 0 && d.owner != static_cast<int>(n)) {
            reportViolation(block, describe(
                "node " + std::to_string(n) +
                " holds an E/M copy while node " + std::to_string(d.owner) +
                " is the recorded owner"));
            return;
        }
        // I2: every E/M copy must be visible to the directory.  (A
        // recorded *sharer* holding M is tolerated: that is the model's
        // silent write-upgrade approximation, see the header comment.)
        const bool recorded =
            d.owner == static_cast<int>(n) || (d.sharers & (1u << n)) != 0;
        if (!recorded) {
            reportViolation(block,
                            describe("node " + std::to_string(n) +
                                     " holds an E/M copy unknown to the "
                                     "directory"));
            return;
        }
    }
}

void
CoherenceChecker::reportViolation(Addr block, const std::string &what)
{
    ++stats_.violations;
    if (violating_blocks_.insert(block).second)
        ++stats_.violating_blocks;
    if (panic_on_violation_)
        DBSIM_PANIC(what);
    if (violations_.size() < kMaxRecorded)
        violations_.push_back(what);
}

} // namespace dbsim::coher
