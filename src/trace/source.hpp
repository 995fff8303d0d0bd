/**
 * @file
 * Trace-source abstractions.
 *
 * A TraceSource is a pull-model stream of TraceRecords for one simulated
 * process.  Workload engines implement it by lazily generating work;
 * tests use VectorSource; LimitSource caps a stream for scaled runs.
 *
 * A source hands out its records in place: view() shows the records
 * that are ready, in stream order, and consume(n) delivers the first n
 * of them.  The core dispatches a fetch group straight out of the view,
 * so a record is copied once, into the instruction window.  Sources
 * that override only next() get a one-record view built on it.
 *
 * A GeneratingSource generates its stream one bounded step at a time
 * into a ring of kRingRecords records, so a process buffers at most
 * 4 KB of trace however long its transactions or table blocks are.
 */

#ifndef DBSIM_TRACE_SOURCE_HPP
#define DBSIM_TRACE_SOURCE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace dbsim::trace {

/** Records generated but not yet delivered. */
using RecordBuffer = std::vector<TraceRecord>;

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
     * The records ready for delivery, in stream order, read in place.
     * Empty when the stream is exhausted.  The span stays valid until
     * the next call on this source.
     *
     * This default serves one record, taken from next() when view() is
     * called; a caller that consumes the first record of every view it
     * takes calls next() at the moments it would have without the view.
     */
    virtual std::span<const TraceRecord>
    view()
    {
        if (!held_) {
            if (!next(held_rec_))
                return {};
            held_ = true;
        }
        return {&held_rec_, 1};
    }

    /** Deliver the first @p n records of the last view(). */
    virtual void
    consume(std::size_t n)
    {
        if (n != 0)
            held_ = false;
    }

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

  private:
    TraceRecord held_rec_; ///< the default view's record
    bool held_ = false;
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

    std::span<const TraceRecord>
    view() override
    {
        return std::span<const TraceRecord>(recs_).subspan(pos_);
    }

    void consume(std::size_t n) override { pos_ += n; }

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

    std::span<const TraceRecord>
    view() override
    {
        // At the cap the inner source is not asked for more, as next()
        // does not ask it.
        if (delivered_ >= limit_)
            return {};
        const std::span<const TraceRecord> v = inner_->view();
        return v.first(static_cast<std::size_t>(
            std::min<std::uint64_t>(v.size(), limit_ - delivered_)));
    }

    void
    consume(std::size_t n) override
    {
        delivered_ += n;
        inner_->consume(n);
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
 * Base for generators that produce their stream in bursts (a DSS table
 * block, an OLTP transaction), one bounded step at a time: derive and
 * implement refill(), appending records to buffer().
 *
 * The buffer is a ring of kRingRecords records, allocated at the first
 * refill or restore.  refill() is called only when every buffered record
 * has been consumed; it appends steps of at most kStepRecords records
 * while the buffer has room for another step, and stops early at the end
 * of a burst, so the ring never holds records of two bursts.
 *
 * A checkpoint holds the undelivered records (at most kRingRecords)
 * and the finished flag, then the derived generator's RNG, builder and
 * position within its burst; a restored source delivers those records
 * and carries on generating mid-burst, so a save costs the same however
 * long a burst is.
 */
class GeneratingSource : public TraceSource
{
  public:
    /** Capacity of the ring, in records (4 KB). */
    static constexpr std::size_t kRingRecords = 128;
    /** The most records one generator step may append. */
    static constexpr std::size_t kStepRecords = 64;

    bool
    next(TraceRecord &out) override
    {
        const std::span<const TraceRecord> v = GeneratingSource::view();
        if (v.empty())
            return false;
        out = v.front();
        ++head_;
        return true;
    }

    std::span<const TraceRecord>
    view() override
    {
        if (head_ == ring_.size() && !reload())
            return {};
        return {ring_.data() + head_, ring_.size() - head_};
    }

    void consume(std::size_t n) override { head_ += n; }

    /**
     * The undelivered records and the finished flag.  Derived
     * generators chain their engine state behind these.
     */
    void saveState(snap::Writer &w) const override;
    void restoreState(snap::Reader &r) override;

  protected:
    /**
     * Append records to buffer() as the class comment says, or call
     * finish() at the end of the stream.
     */
    virtual void refill() = 0;

    RecordBuffer *buffer() { return &ring_; }
    void finish() { done_ = true; }

    /**
     * Read a generator position saved as one byte; throws unless it is
     * a value of @p At up to @p last.
     */
    template <typename At>
    static At
    loadPosition(snap::Reader &r, At last)
    {
        const std::uint8_t v = r.u8();
        if (v > static_cast<std::uint8_t>(last))
            throw snap::SnapshotError("snapshot: trace generator position " +
                                      std::to_string(v) + " out of range");
        return static_cast<At>(v);
    }

  private:
    /** Refill the emptied ring; false once the stream has ended. */
    bool reload();

    RecordBuffer ring_;
    std::size_t head_ = 0; ///< first undelivered record in ring_
    bool done_ = false;
};

} // namespace dbsim::trace

#endif // DBSIM_TRACE_SOURCE_HPP
