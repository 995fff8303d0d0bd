/**
 * @file
 * Opt-in coherence invariant checker (part of the simulation integrity
 * layer).
 *
 * The checker audits directory-vs-cache state agreement for every block
 * touched by a directory transaction.  The fabric records the blocks it
 * transacts on (noteTransaction); the System drains that queue once per
 * run-loop iteration (auditPending), after the requesting node has
 * installed its granted line, so the audited state is settled.
 *
 * Checked invariants (chosen so that the model's documented
 * approximations do not trip them -- see DESIGN.md "Coherence checker"):
 *
 *  I1. Directory-entry consistency: the owner index is a valid node,
 *      and an owned entry has no sharer bits set.
 *  I2. No silent strong copies: a node whose hierarchy holds the block
 *      Exclusive or Modified must be known to the directory (as owner
 *      or sharer).  A strong copy the directory cannot see could never
 *      be invalidated, i.e. would be unbounded staleness.
 *  I3. Owned exclusivity (SWMR at the directory): while the directory
 *      records an owner, no *other* node's hierarchy may hold the block
 *      Exclusive or Modified.
 *
 * Note the model's silent write-upgrade approximation (a store
 * coalescing into an outstanding read miss upgrades the filled line to
 * Modified without a fabric transaction, see DESIGN.md) means several
 * *recorded sharers* may transiently hold Modified copies while the
 * directory believes the line is merely shared; the invariants above are
 * exactly the strongest set that approximation preserves.
 *
 * Enable via sim::SystemParams::check_coherence or DBSIM_CHECK=1 in the
 * environment; every tier-1 test runs with the checker on.
 */

#ifndef DBSIM_COHERENCE_CHECKER_HPP
#define DBSIM_COHERENCE_CHECKER_HPP

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::coher {

class CoherenceFabric;

/** Aggregate checker statistics. */
struct CheckerStats
{
    std::uint64_t transactions = 0; ///< fabric transactions observed
    std::uint64_t audits = 0;       ///< block audits performed
    std::uint64_t violations = 0;   ///< invariant failures detected
    std::uint64_t violating_blocks = 0; ///< distinct blocks with violations
};

/**
 * Audits SWMR / directory-vs-cache agreement after directory
 * transactions and reports violations.
 *
 * In panicking mode (default) a violation raises DBSIM_PANIC -- which
 * runs the registered crash dumps and aborts, or throws
 * SimInvariantError under PanicThrowGuard.  In collecting mode the
 * violation text is recorded (capped) for later inspection; tests use
 * this to assert on specific corruptions.
 */
class CoherenceChecker
{
  public:
    explicit CoherenceChecker(bool panic_on_violation = true)
        : panic_on_violation_(panic_on_violation)
    {
    }

    /** Record that the fabric transacted on @p block (called by fabric). */
    void
    noteTransaction(Addr block, const char *op)
    {
        ++stats_.transactions;
        pending_.emplace_back(block, op);
    }

    /** Audit every block recorded since the last call. */
    void auditPending(CoherenceFabric &fabric, Cycles now);

    /** Audit one block immediately. */
    void auditBlock(CoherenceFabric &fabric, Addr block, const char *op,
                    Cycles now);

    const CheckerStats &stats() const { return stats_; }

    /** Violation descriptions (collecting mode; capped at kMaxRecorded). */
    const std::vector<std::string> &violations() const { return violations_; }

    /** The distinct blocks that have had violations (uncapped), in
     *  ascending address order. */
    std::vector<Addr>
    violatingBlocks() const
    {
        return {violating_blocks_.begin(), violating_blocks_.end()};
    }

    static constexpr std::size_t kMaxRecorded = 32;

    /**
     * Checkpoints are taken at run-loop boundaries, after auditPending
     * drained the transaction queue, so pending_ (which holds
     * string-literal pointers) is never serialized.
     */
    void
    saveState(snap::Writer &w) const
    {
        if (!pending_.empty())
            throw snap::SnapshotError("snapshot: checker has undrained "
                                      "transactions");
        w.u64(stats_.transactions);
        w.u64(stats_.audits);
        w.u64(stats_.violations);
        w.u64(stats_.violating_blocks);
        w.u64(violations_.size());
        for (const std::string &v : violations_)
            w.str(v);
        w.u64(violating_blocks_.size());
        for (Addr b : violating_blocks_)
            w.u64(b);
    }

    void
    restoreState(snap::Reader &r)
    {
        pending_.clear();
        stats_.transactions = r.u64();
        stats_.audits = r.u64();
        stats_.violations = r.u64();
        stats_.violating_blocks = r.u64();
        violations_.clear();
        const std::size_t nv = r.length(8);
        for (std::size_t i = 0; i < nv; ++i)
            violations_.push_back(r.str());
        violating_blocks_.clear();
        const std::size_t nb = r.length(8);
        for (std::size_t i = 0; i < nb; ++i)
            violating_blocks_.insert(r.u64());
    }

  private:
    void reportViolation(Addr block, const std::string &what);

    bool panic_on_violation_;
    std::vector<std::pair<Addr, const char *>> pending_;
    std::vector<std::string> violations_;
    std::set<Addr> violating_blocks_;
    CheckerStats stats_;
};

} // namespace dbsim::coher

#endif // DBSIM_COHERENCE_CHECKER_HPP
