#include "memory/mshr.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dbsim::mem {

MshrFile::MshrFile(std::uint32_t entries) : capacity_(entries)
{
    if (entries == 0)
        DBSIM_FATAL("MSHR file needs at least one entry");
    entries_.reserve(entries);
}

int
MshrFile::findIdx(Addr block) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].block == block)
            return static_cast<int>(i);
    return -1;
}

bool
MshrFile::outstandingRead(Addr block) const
{
    const int i = findIdx(block);
    return i >= 0 && entries_[static_cast<std::size_t>(i)].is_read;
}

std::uint32_t
MshrFile::readsInUse() const
{
    std::uint32_t n = 0;
    for (const auto &e : entries_)
        if (e.is_read)
            ++n;
    return n;
}

void
MshrFile::touchOccupancy(Cycles now)
{
    stats_.occupancy.advance(now, inUse());
    stats_.read_occupancy.advance(now, readsInUse());
}

bool
MshrFile::allocate(Addr block, bool is_read, Cycles now, Cycles done,
                   std::uint8_t tag)
{
    drain(now);
    if (full())
        return false;
    DBSIM_ASSERT(findIdx(block) < 0, "primary miss already outstanding");
    entries_.push_back(Entry{block, done, is_read, !is_read, tag});
    touchOccupancy(now); // record the new occupancy level
    ++stats_.allocations;
    return true;
}

Cycles
MshrFile::coalesce(Addr block, bool is_read, Cycles now)
{
    const int i = findIdx(block);
    DBSIM_ASSERT(i >= 0, "coalesce with no outstanding miss");
    auto &e = entries_[static_cast<std::size_t>(i)];
    if (is_read && !e.is_read) {
        // A read joining a write miss makes the register count as a read
        // for the read-occupancy distribution from now on.
        e.is_read = true;
    }
    if (!is_read)
        e.has_write = true;
    touchOccupancy(now); // read-occupancy may have changed
    ++stats_.coalesced;
    return e.done;
}

void
MshrFile::drain(Cycles now)
{
    // Charge the elapsed interval at the pre-drain level once.
    touchOccupancy(now);
    const std::size_t before = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [now](const Entry &e) {
                                      return e.done <= now;
                                  }),
                   entries_.end());
    // A second (zero-width) sample is only needed when the level
    // actually changed; retry loops that re-drain the same cycle leave
    // the tracker untouched.
    if (entries_.size() != before)
        touchOccupancy(now);
}

Cycles
MshrFile::earliestDone() const
{
    Cycles t = kNever;
    for (const auto &e : entries_)
        t = std::min(t, e.done);
    return t;
}

std::uint32_t
MshrFile::unboundedEntries() const
{
    std::uint32_t n = 0;
    for (const auto &e : entries_)
        if (e.done == kNever)
            ++n;
    return n;
}

std::uint8_t
MshrFile::tagOf(Addr block) const
{
    const int i = findIdx(block);
    return i < 0 ? 0 : entries_[static_cast<std::size_t>(i)].tag;
}

Cycles
MshrFile::doneTimeOf(Addr block) const
{
    const int i = findIdx(block);
    return i < 0 ? kNever
                 : entries_[static_cast<std::size_t>(i)].done;
}

} // namespace dbsim::mem
