/**
 * @file
 * Trace-source abstractions.
 *
 * A TraceSource is a pull-model stream of TraceRecords for one simulated
 * process.  Workload engines implement it by lazily generating work;
 * tests use VectorSource; LimitSource caps a stream for scaled runs.
 */

#ifndef DBSIM_TRACE_SOURCE_HPP
#define DBSIM_TRACE_SOURCE_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "trace/record.hpp"

namespace dbsim::trace {

/** Records generated but not yet delivered, consumed from the front
 *  (a deque frees the storage of a burst as it is consumed). */
using RecordBuffer = std::deque<TraceRecord>;

/**
 * Abstract per-process instruction stream.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record into @p out.
     * @return false when the stream is exhausted.
     */
    virtual bool next(TraceRecord &out) = 0;

    /**
     * Serialize / restore the stream position for checkpointing.  The
     * defaults throw: a System built on a non-checkpointable source
     * still runs, it just cannot save or restore checkpoints.
     */
    virtual void
    saveState(snap::Writer &) const
    {
        throw snap::SnapshotError("trace source is not checkpointable");
    }

    virtual void
    restoreState(snap::Reader &)
    {
        throw snap::SnapshotError("trace source is not checkpointable");
    }
};

/**
 * A source backed by a fixed vector of records (testing, golden traces).
 */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<TraceRecord> recs)
        : recs_(std::move(recs)) {}

    bool
    next(TraceRecord &out) override
    {
        if (pos_ >= recs_.size())
            return false;
        out = recs_[pos_++];
        return true;
    }

    void
    saveState(snap::Writer &w) const override
    {
        w.u64(pos_); // the backing vector is construction state
    }

    void
    restoreState(snap::Reader &r) override
    {
        const std::uint64_t pos = r.u64();
        if (pos > recs_.size())
            throw snap::SnapshotError("snapshot: VectorSource position "
                                      "beyond backing vector");
        pos_ = static_cast<std::size_t>(pos);
    }

  private:
    std::vector<TraceRecord> recs_;
    std::size_t pos_ = 0;
};

/**
 * Caps an underlying source at a maximum number of records; used to scale
 * simulations down (paper section 2.3).  The cap applies to dynamic
 * instructions delivered, not to transactions.
 */
class LimitSource : public TraceSource
{
  public:
    LimitSource(std::unique_ptr<TraceSource> inner, std::uint64_t limit)
        : inner_(std::move(inner)), limit_(limit) {}

    bool
    next(TraceRecord &out) override
    {
        if (delivered_ >= limit_)
            return false;
        if (!inner_->next(out))
            return false;
        ++delivered_;
        return true;
    }

    std::uint64_t delivered() const { return delivered_; }

    void
    saveState(snap::Writer &w) const override
    {
        w.u64(delivered_);
        inner_->saveState(w);
    }

    void
    restoreState(snap::Reader &r) override
    {
        delivered_ = r.u64();
        inner_->restoreState(r);
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t limit_;
    std::uint64_t delivered_ = 0;
};

/**
 * Convenience base for generators that produce records in bursts: derive
 * and implement refill(), appending records to buffer().
 */
class GeneratingSource : public TraceSource
{
  public:
    bool
    next(TraceRecord &out) override
    {
        while (buffer_.empty()) {
            if (done_)
                return false;
            refill();
        }
        out = buffer_.front();
        buffer_.pop_front();
        return true;
    }

    /**
     * Serialize the pending burst buffer.  Derived generators chain
     * these from their overrides before their own generator state.
     */
    void
    saveState(snap::Writer &w) const override
    {
        w.u64(buffer_.size());
        for (const TraceRecord &rec : buffer_)
            saveRecord(w, rec);
        w.boolean(done_);
    }

    void
    restoreState(snap::Reader &r) override
    {
        buffer_.clear();
        const std::size_t n = r.length(28);
        for (std::size_t i = 0; i < n; ++i)
            buffer_.push_back(loadRecord(r));
        done_ = r.boolean();
    }

  protected:
    /** Append at least one more record to buffer(), or call finish(). */
    virtual void refill() = 0;

    RecordBuffer *buffer() { return &buffer_; }
    void finish() { done_ = true; }
    bool finished() const { return done_; }

  private:
    RecordBuffer buffer_;
    bool done_ = false;
};

} // namespace dbsim::trace

#endif // DBSIM_TRACE_SOURCE_HPP
