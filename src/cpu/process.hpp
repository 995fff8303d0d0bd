/**
 * @file
 * Per-process execution context for the trace-driven cores.
 *
 * A ProcessContext couples a trace source with an "undo" queue that lets
 * the core push already-fetched records back when a process yields the
 * CPU (e.g. a lock-spin that converts to a block): the records are
 * re-delivered, in order, when the process runs again.
 */

#ifndef DBSIM_CPU_PROCESS_HPP
#define DBSIM_CPU_PROCESS_HPP

#include <deque>
#include <span>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dbsim::cpu {

/** Run state of a workload process. */
enum class ProcState : std::uint8_t { Ready, Running, Blocked, Done };

/**
 * The execution context of one workload process.
 */
class ProcessContext
{
  public:
    ProcessContext(ProcId id, trace::TraceSource *src)
        : id_(id), src_(src) {}

    ProcId id() const { return id_; }

    /** True once the trace is exhausted and the undo queue is empty. */
    bool
    exhausted() const
    {
        return src_exhausted_ && undo_.empty();
    }

    /**
     * The records ready to fetch, in order, read in place: the front of
     * the undo queue, else the source's view.  Empty when exhausted.
     * Valid until the next call on this context.
     */
    std::span<const trace::TraceRecord>
    view()
    {
        if (!undo_.empty())
            return {&undo_.front(), 1};
        if (src_exhausted_)
            return {};
        const std::span<const trace::TraceRecord> v = src_->view();
        src_exhausted_ = v.empty();
        return v;
    }

    /** Fetch the first @p n records of the last view(). */
    void
    consume(std::size_t n)
    {
        if (n == 0)
            return;
        fetched_ += n;
        if (!undo_.empty())
            undo_.pop_front();
        else
            src_->consume(n);
    }

    /**
     * Push a record back so it is re-delivered next.  Call in reverse
     * fetch order when returning multiple records.
     */
    void
    unfetch(const trace::TraceRecord &rec)
    {
        undo_.push_front(rec);
        --fetched_;
    }

    std::uint64_t fetched() const { return fetched_; }

    /** Context state only; the trace source serializes separately. */
    void
    saveState(snap::Writer &w) const
    {
        w.u8(static_cast<std::uint8_t>(state));
        w.u64(wake_at);
        w.u64(retired);
        w.u64(undo_.size());
        for (const trace::TraceRecord &rec : undo_)
            saveRecord(w, rec);
        w.boolean(src_exhausted_);
        w.u64(fetched_);
    }

    void
    restoreState(snap::Reader &r)
    {
        state = static_cast<ProcState>(r.u8());
        wake_at = r.u64();
        retired = r.u64();
        undo_.clear();
        const std::size_t n = r.length(28);
        for (std::size_t i = 0; i < n; ++i)
            undo_.push_back(trace::loadRecord(r));
        src_exhausted_ = r.boolean();
        fetched_ = r.u64();
    }

    ProcState state = ProcState::Ready;
    Cycles wake_at = 0;          ///< for Blocked processes
    std::uint64_t retired = 0;   ///< instructions retired

  private:
    ProcId id_;
    trace::TraceSource *src_;
    std::deque<trace::TraceRecord> undo_;
    bool src_exhausted_ = false;
    std::uint64_t fetched_ = 0;
};

} // namespace dbsim::cpu

#endif // DBSIM_CPU_PROCESS_HPP
