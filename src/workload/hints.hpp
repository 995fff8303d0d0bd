/**
 * @file
 * Software prefetch / flush hint insertion (paper section 4.2).
 *
 * The paper inserted prefetch and flush ("WriteThrough") primitives
 * around the instructions identified as generating migratory accesses.
 * HintInserter performs the same transformation on a trace stream: it
 * buffers each critical section whose lock is in the configured hot set,
 * inserts exclusive prefetches for the section's written lines before
 * the lock acquire (overlapping the migratory fetch with the acquire),
 * and inserts flush hints for those lines after the release (pushing the
 * data home so the next reader is serviced by memory instead of a
 * cache-to-cache transfer).
 */

#ifndef DBSIM_WORKLOAD_HINTS_HPP
#define DBSIM_WORKLOAD_HINTS_HPP

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dbsim::workload {

/** Hint-insertion options. */
struct HintOptions
{
    bool prefetch = true;  ///< exclusive prefetch before the acquire
    bool flush = true;     ///< flush / WriteThrough after the release
    std::uint32_t line_bytes = 64;
    /** Only sections on these lock addresses are transformed; empty
     *  means every critical section. */
    std::set<Addr> hot_locks;
    /** Safety cap on buffered section length. */
    std::uint32_t max_section = 512;
};

/**
 * A trace filter inserting prefetch/flush hints around critical
 * sections.
 */
class HintInserter : public trace::TraceSource
{
  public:
    HintInserter(std::unique_ptr<trace::TraceSource> inner,
                 HintOptions opts);

    bool next(trace::TraceRecord &out) override;
    std::span<const trace::TraceRecord> view() override;
    void consume(std::size_t n) override { head_ += n; }

    std::uint64_t prefetchesInserted() const { return prefetches_; }
    std::uint64_t flushesInserted() const { return flushes_; }

    void
    saveState(snap::Writer &w) const override
    {
        w.u64(out_.size() - head_);
        for (std::size_t i = head_; i < out_.size(); ++i)
            saveRecord(w, out_[i]);
        w.boolean(inner_done_);
        w.u64(prefetches_);
        w.u64(flushes_);
        inner_->saveState(w);
    }

    void
    restoreState(snap::Reader &r) override
    {
        out_.clear();
        head_ = 0;
        const std::size_t n = r.length(28);
        for (std::size_t i = 0; i < n; ++i)
            out_.push_back(trace::loadRecord(r));
        inner_done_ = r.boolean();
        prefetches_ = r.u64();
        flushes_ = r.u64();
        inner_->restoreState(r);
    }

  private:
    bool hotLock(Addr addr) const;
    void transformSection(std::vector<trace::TraceRecord> &section);
    bool pump(); ///< pull from inner into out_; false when exhausted

    std::unique_ptr<trace::TraceSource> inner_;
    HintOptions opts_;
    /** The output queue: records [head_, size) are undelivered.  It is
     *  refilled only once empty, so it holds at most one section. */
    std::vector<trace::TraceRecord> out_;
    std::size_t head_ = 0;
    bool inner_done_ = false;
    std::uint64_t prefetches_ = 0;
    std::uint64_t flushes_ = 0;

    /** Scratch buffers reused across pump() calls so the per-section
     *  transform does not allocate on the trace feed path; fully
     *  consumed within one pump(), never serialized. */
    std::vector<trace::TraceRecord> scratch_section_;
    std::vector<trace::TraceRecord> scratch_pf_;
    std::vector<Addr> scratch_lines_;
};

} // namespace dbsim::workload

#endif // DBSIM_WORKLOAD_HINTS_HPP
