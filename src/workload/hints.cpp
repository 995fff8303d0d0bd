#include "workload/hints.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dbsim::workload {

using trace::OpClass;
using trace::TraceRecord;

HintInserter::HintInserter(std::unique_ptr<trace::TraceSource> inner,
                           HintOptions opts)
    : inner_(std::move(inner)), opts_(std::move(opts))
{
    if (!isPow2(opts_.line_bytes))
        DBSIM_FATAL("hint line size must be a power of two");
}

bool
HintInserter::hotLock(Addr addr) const
{
    return opts_.hot_locks.empty() || opts_.hot_locks.count(addr) != 0;
}

void
HintInserter::transformSection(std::vector<TraceRecord> &section)
{
    // Collect the distinct data lines written inside the section.  The
    // latch word's line is prefetched (it speeds the acquire) but NOT
    // flushed: the latch is re-written on every acquisition, so pushing
    // it home would only force the next acquirer -- possibly on the
    // same node -- through the directory again.
    const Addr lock_blk = blockAlign(section.front().vaddr,
                                     opts_.line_bytes);
    std::vector<Addr> &data_lines = scratch_lines_;
    data_lines.clear();
    auto add_line = [&](Addr a) {
        const Addr blk = blockAlign(a, opts_.line_bytes);
        if (blk != lock_blk &&
            std::find(data_lines.begin(), data_lines.end(), blk) ==
                data_lines.end()) {
            data_lines.push_back(blk);
        }
    };
    for (const auto &r : section) {
        if (r.op == OpClass::Store)
            add_line(r.vaddr);
    }

    const Addr pc_front = section.front().pc;
    const Addr pc_back = section.back().pc;

    if (opts_.prefetch) {
        // Exclusive prefetches ahead of the acquire: the migratory fetch
        // overlaps the preceding work instead of stalling the update.
        std::vector<TraceRecord> &pf = scratch_pf_;
        pf.clear();
        for (const Addr blk : data_lines) {
            TraceRecord r;
            r.op = OpClass::PrefetchExcl;
            r.pc = pc_front;
            r.vaddr = blk;
            pf.push_back(r);
            ++prefetches_;
        }
        {
            TraceRecord r;
            r.op = OpClass::PrefetchExcl;
            r.pc = pc_front;
            r.vaddr = lock_blk;
            pf.push_back(r);
            ++prefetches_;
        }
        section.insert(section.begin(), pf.begin(), pf.end());
    }

    if (opts_.flush) {
        // Flush (sharing writeback, clean copy kept) after the release.
        for (const Addr blk : data_lines) {
            TraceRecord r;
            r.op = OpClass::Flush;
            r.pc = pc_back;
            r.vaddr = blk;
            section.push_back(r);
            ++flushes_;
        }
    }
}

bool
HintInserter::pump()
{
    TraceRecord rec;
    if (!inner_->next(rec))
        return false;

    if (rec.op != OpClass::LockAcquire || !hotLock(rec.vaddr)) {
        out_.push_back(rec);
        return true;
    }

    // Buffer the critical section up to the matching release.
    const Addr lock = rec.vaddr;
    std::vector<TraceRecord> &section = scratch_section_;
    section.clear();
    section.push_back(rec);
    while (section.size() < opts_.max_section) {
        TraceRecord r;
        if (!inner_->next(r)) {
            inner_done_ = true;
            break;
        }
        section.push_back(r);
        if (r.op == OpClass::LockRelease && r.vaddr == lock)
            break;
    }

    if (section.back().op == OpClass::LockRelease &&
        section.back().vaddr == lock) {
        transformSection(section);
    }
    for (const auto &r : section)
        out_.push_back(r);
    return true;
}

std::span<const TraceRecord>
HintInserter::view()
{
    if (head_ == out_.size()) {
        out_.clear();
        head_ = 0;
        while (out_.empty()) {
            if (inner_done_ || !pump())
                return {};
        }
    }
    return {out_.data() + head_, out_.size() - head_};
}

bool
HintInserter::next(TraceRecord &out)
{
    const std::span<const TraceRecord> v = HintInserter::view();
    if (v.empty())
        return false;
    out = v.front();
    ++head_;
    return true;
}

} // namespace dbsim::workload
