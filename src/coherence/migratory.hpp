/**
 * @file
 * Migratory-data detection and characterization.
 *
 * Implements the heuristic from the paper (section 4.2, footnote 2,
 * after Cox & Fowler / Stenstrom et al.): a cache line is marked
 * migratory when the directory receives a request for exclusive
 * ownership, the number of cached copies is two, and the last writer is
 * not the requester.  Once marked, the line's subsequent communication
 * misses are attributed to migratory sharing, and per-line / per-PC
 * concentration statistics are kept so the characterization numbers in
 * section 4.2 can be reproduced.
 */

#ifndef DBSIM_COHERENCE_MIGRATORY_HPP
#define DBSIM_COHERENCE_MIGRATORY_HPP

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::coher {

/** Aggregate migratory-sharing statistics. */
struct MigratoryStats
{
    std::uint64_t shared_writes = 0;        ///< GetX/upgrade to lines with prior sharers
    std::uint64_t migratory_writes = 0;     ///< ... of which to migratory lines
    std::uint64_t dirty_reads = 0;          ///< read misses serviced cache-to-cache
    std::uint64_t migratory_dirty_reads = 0;///< ... of which to migratory lines
    std::uint64_t lines_marked = 0;         ///< distinct lines ever marked

    double
    writeFraction() const
    {
        return shared_writes
                   ? double(migratory_writes) / double(shared_writes) : 0.0;
    }

    double
    dirtyReadFraction() const
    {
        return dirty_reads
                   ? double(migratory_dirty_reads) / double(dirty_reads) : 0.0;
    }
};

/**
 * Detector + characterization bookkeeping, owned by the coherence fabric.
 */
class MigratoryDetector
{
  public:
    /**
     * Observe a request for exclusive ownership.
     *
     * @param block        line address
     * @param copies       cached copies at the time of the request
     * @param last_writer  node that last wrote the line (or none)
     * @param requester    requesting node
     * @param shared       true if the line had other sharers (a "shared
     *                     write access")
     * @param pc           PC of the instruction causing the request
     * @return true iff the line is (now) marked migratory.
     */
    bool observeWrite(Addr block, std::uint32_t copies, int last_writer,
                      std::uint32_t requester, bool shared, Addr pc);

    /**
     * Observe a read miss serviced by a cache-to-cache transfer.
     * @return true iff the line is marked migratory.
     */
    bool observeDirtyRead(Addr block, Addr pc);

    /** True iff @p block has been marked migratory. */
    bool isMigratory(Addr block) const { return migratory_.count(block) != 0; }

    const MigratoryStats &stats() const { return stats_; }

    /**
     * Concentration of migratory write misses over lines: the smallest
     * fraction of migratory lines that accounts for @p frac of all
     * migratory write misses (paper: 3% of lines cover 70%).
     */
    double lineConcentration(double frac) const;

    /**
     * Concentration of migratory references over generating PCs: the
     * smallest fraction of PCs accounting for @p frac of migratory
     * references (paper: <10% of instructions cover 75%).
     */
    double pcConcentration(double frac) const;

    /** Number of distinct migratory lines observed. */
    std::size_t migratoryLines() const { return migratory_.size(); }

    /** Number of distinct PCs that ever generated a migratory reference. */
    std::size_t migratoryPcs() const { return pc_refs_.size(); }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(migratory_.size());
        for (Addr b : migratory_)
            w.u64(b);
        w.u64(line_write_refs_.size());
        for (const auto &[b, n] : line_write_refs_) {
            w.u64(b);
            w.u64(n);
        }
        w.u64(pc_refs_.size());
        for (const auto &[pc, n] : pc_refs_) {
            w.u64(pc);
            w.u64(n);
        }
        w.u64(stats_.shared_writes);
        w.u64(stats_.migratory_writes);
        w.u64(stats_.dirty_reads);
        w.u64(stats_.migratory_dirty_reads);
        w.u64(stats_.lines_marked);
    }

    void
    restoreState(snap::Reader &r)
    {
        migratory_.clear();
        line_write_refs_.clear();
        pc_refs_.clear();
        const std::size_t nm = r.length(8);
        for (std::size_t i = 0; i < nm; ++i)
            migratory_.insert(r.u64());
        const std::size_t nl = r.length(16);
        for (std::size_t i = 0; i < nl; ++i) {
            const Addr b = r.u64();
            line_write_refs_[b] = r.u64();
        }
        const std::size_t np = r.length(16);
        for (std::size_t i = 0; i < np; ++i) {
            const Addr pc = r.u64();
            pc_refs_[pc] = r.u64();
        }
        stats_.shared_writes = r.u64();
        stats_.migratory_writes = r.u64();
        stats_.dirty_reads = r.u64();
        stats_.migratory_dirty_reads = r.u64();
        stats_.lines_marked = r.u64();
    }

  private:
    static double concentration(std::vector<std::uint64_t> counts,
                                double frac);

    std::set<Addr> migratory_;
    std::map<Addr, std::uint64_t> line_write_refs_;
    std::map<Addr, std::uint64_t> pc_refs_;
    MigratoryStats stats_;
};

} // namespace dbsim::coher

#endif // DBSIM_COHERENCE_MIGRATORY_HPP
