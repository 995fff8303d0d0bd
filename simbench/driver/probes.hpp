/**
 * @file
 * Host-time probes for the traced pass.
 *
 * Every probe sits in the benchmark, at a public seam of the library:
 * a forwarding trace::TraceSource in front of the workload generators
 * and a forwarding cpu::CoreMemIf in front of a sim::Node.  Nothing
 * inside the library is instrumented.  Each timed call becomes a span
 * (layer, start, duration, enclosing span) kept in memory; per-layer
 * totals are kept for every span, the spans themselves up to a fixed
 * number per layer, and are written out as a Chrome trace when the run
 * ends.
 */

#ifndef SIMBENCH_PROBES_HPP
#define SIMBENCH_PROBES_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "cpu/interfaces.hpp"
#include "trace/source.hpp"

namespace simbench {

using namespace dbsim;

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The timed call sites, one per layer boundary. */
enum class Layer : std::uint8_t {
    SimRun,          ///< sim::System::run
    WorkloadNext,    ///< trace::TraceSource::next of a workload process
    CpuTick,         ///< cpu::Core::tick
    CpuNextEvent,    ///< cpu::Core::nextEvent
    CpuAccountStall, ///< cpu::Core::accountStall
    MemoryData,      ///< sim::Node::dataAccess called by the core
    MemoryFetch,     ///< sim::Node::instrFetch
    MemoryFlush,     ///< sim::Node::flushHint
    CoherenceData,   ///< sim::Node::dataAccess in the coherence replay
    kCount,
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

const char *layerName(Layer l);

/** In-memory span store with per-layer totals. */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** Keeps at most @p per_layer spans of each layer (totals: all). */
    explicit SpanLog(std::size_t per_layer) : per_layer_(per_layer) {}

    struct Total
    {
        std::uint64_t count = 0;
        std::uint64_t ns = 0;
    };

    std::uint32_t current() const { return current_; }

    /** Record the start of a span; returns its slot (kNone when full). */
    std::uint32_t
    open(Layer l, std::uint64_t start)
    {
        std::size_t &kept = kept_[static_cast<std::size_t>(l)];
        if (kept >= per_layer_) {
            ++dropped_;
            return kNone;
        }
        ++kept;
        recs_.push_back(Rec{start, 0, current_, l});
        current_ = static_cast<std::uint32_t>(recs_.size() - 1);
        return current_;
    }

    void
    close(std::uint32_t slot, Layer l, std::uint64_t start,
          std::uint64_t end, std::uint32_t enclosing)
    {
        Total &t = totals_[static_cast<std::size_t>(l)];
        ++t.count;
        t.ns += end - start;
        if (slot != kNone)
            recs_[slot].dur = end - start;
        current_ = enclosing;
    }

    const Total &total(Layer l) const
    {
        return totals_[static_cast<std::size_t>(l)];
    }

    /** Zero the per-layer totals (kept spans stay for the trace file). */
    void resetTotals() { totals_ = {}; }

    std::uint64_t kept() const { return recs_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON of the kept spans. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Rec
    {
        std::uint64_t start;
        std::uint64_t dur;
        std::uint32_t parent;
        Layer layer;
    };

    std::size_t per_layer_;
    std::array<std::size_t, kNumLayers> kept_{};
    std::vector<Rec> recs_;
    std::array<Total, kNumLayers> totals_{};
    std::uint32_t current_ = kNone;
    std::uint64_t dropped_ = 0;
};

/** RAII span: opened at construction, closed by close() or at scope end. */
class Span
{
  public:
    Span(SpanLog &log, Layer l)
        : log_(log), layer_(l), enclosing_(log.current()), start_(nowNs()),
          slot_(log.open(l, start_))
    {}

    ~Span()
    {
        if (open_)
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now; returns its duration in nanoseconds. */
    std::uint64_t
    close()
    {
        const std::uint64_t end = nowNs();
        log_.close(slot_, layer_, start_, end, enclosing_);
        open_ = false;
        return end - start_;
    }

  private:
    SpanLog &log_;
    Layer layer_;
    std::uint32_t enclosing_;
    std::uint64_t start_;
    std::uint32_t slot_;
    bool open_ = true;
};

/** Forwarding trace source: times and counts every next(). */
class TimedSource : public trace::TraceSource
{
  public:
    TimedSource(std::unique_ptr<trace::TraceSource> inner, SpanLog &log,
                std::uint64_t &records)
        : inner_(std::move(inner)), log_(log), records_(records)
    {}

    bool
    next(trace::TraceRecord &out) override
    {
        Span span(log_, Layer::WorkloadNext);
        const bool ok = inner_->next(out);
        records_ += ok;
        return ok;
    }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    SpanLog &log_;
    std::uint64_t &records_;
};

/**
 * Forwarding memory interface: times every call and groups data-access
 * time by the AccessClass the hierarchy returned.
 */
class TimedMem : public cpu::CoreMemIf
{
  public:
    /** Slot for refused accesses, after the five AccessClass values. */
    static constexpr std::size_t kRefused = 5;

    TimedMem(cpu::CoreMemIf &inner, SpanLog &log, Layer data_layer)
        : inner_(inner), log_(log), data_layer_(data_layer)
    {}

    std::optional<cpu::MemAccessResult>
    dataAccess(Addr vaddr, Addr pc, bool is_write, Cycles now,
               bool prefetch, Cycles *retry_at = nullptr) override
    {
        Span span(log_, data_layer_);
        const std::optional<cpu::MemAccessResult> r =
            inner_.dataAccess(vaddr, pc, is_write, now, prefetch, retry_at);
        const std::uint64_t d = span.close();
        SpanLog::Total &t =
            by_class[r ? static_cast<std::size_t>(r->cls) : kRefused];
        ++t.count;
        t.ns += d;
        ns += d;
        return r;
    }

    cpu::FetchResult
    instrFetch(Addr pc, Cycles now) override
    {
        Span span(log_, Layer::MemoryFetch);
        const cpu::FetchResult r = inner_.instrFetch(pc, now);
        const std::uint64_t d = span.close();
        ++fetch.count;
        fetch.ns += d;
        ns += d;
        return r;
    }

    void
    flushHint(Addr vaddr, Cycles now) override
    {
        Span span(log_, Layer::MemoryFlush);
        inner_.flushHint(vaddr, now);
        ns += span.close();
    }

    /** Data-access calls and host time per returned class. */
    std::array<SpanLog::Total, 6> by_class{};
    /** Instruction-fetch calls and host time. */
    SpanLog::Total fetch;
    /** Host time in every forwarded call. */
    std::uint64_t ns = 0;

  private:
    cpu::CoreMemIf &inner_;
    SpanLog &log_;
    Layer data_layer_;
};

} // namespace simbench

#endif // SIMBENCH_PROBES_HPP
