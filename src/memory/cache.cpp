#include "memory/cache.hpp"

#include "common/log.hpp"

namespace dbsim::mem {

const char *
coherStateName(CoherState s)
{
    switch (s) {
      case CoherState::Invalid:   return "I";
      case CoherState::Shared:    return "S";
      case CoherState::Exclusive: return "E";
      case CoherState::Modified:  return "M";
    }
    return "?";
}

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t assoc,
                       std::uint32_t line_bytes)
    : assoc_(assoc), line_bytes_(line_bytes)
{
    if (!isPow2(size_bytes) || !isPow2(line_bytes))
        DBSIM_FATAL("cache size/line must be powers of two");
    if (assoc == 0 || size_bytes % (static_cast<std::uint64_t>(assoc) * line_bytes) != 0)
        DBSIM_FATAL("cache size not divisible by assoc*line");
    sets_ = static_cast<std::uint32_t>(size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes));
    if (!isPow2(sets_))
        DBSIM_FATAL("cache set count must be a power of two");
    ways_.resize(static_cast<std::size_t>(sets_) * assoc_);
}

std::uint32_t
CacheArray::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / line_bytes_) & (sets_ - 1));
}

CacheArray::Way *
CacheArray::find(Addr addr)
{
    const Addr blk = blockOf(addr);
    Way *set = &ways_[static_cast<std::size_t>(setIndex(addr)) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (set[w].state != CoherState::Invalid && set[w].tag == blk)
            return &set[w];
    }
    return nullptr;
}

const CacheArray::Way *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

CoherState
CacheArray::state(Addr addr) const
{
    const Way *w = find(addr);
    return w ? w->state : CoherState::Invalid;
}

std::optional<CoherState>
CacheArray::access(Addr addr)
{
    Way *w = find(addr);
    if (!w)
        return std::nullopt;
    w->lru = ++stamp_;
    return w->state;
}

std::optional<Eviction>
CacheArray::insert(Addr addr, CoherState st)
{
    DBSIM_ASSERT(st != CoherState::Invalid, "inserting invalid line");
    if (Way *w = find(addr)) {
        // Already present: refresh state and LRU.
        w->state = st;
        w->lru = ++stamp_;
        return std::nullopt;
    }
    Way *set = &ways_[static_cast<std::size_t>(setIndex(addr)) * assoc_];
    Way *victim = nullptr;
    for (std::uint32_t i = 0; i < assoc_; ++i) {
        if (set[i].state == CoherState::Invalid) {
            victim = &set[i];
            break;
        }
        if (!victim || set[i].lru < victim->lru)
            victim = &set[i];
    }
    std::optional<Eviction> ev;
    if (victim->state != CoherState::Invalid)
        ev = Eviction{victim->tag, victim->state};
    victim->tag = blockOf(addr);
    victim->state = st;
    victim->lru = ++stamp_;
    return ev;
}

void
CacheArray::setState(Addr addr, CoherState st)
{
    if (Way *w = find(addr)) {
        if (st == CoherState::Invalid)
            w->state = CoherState::Invalid;
        else
            w->state = st;
    }
}

CoherState
CacheArray::invalidate(Addr addr)
{
    if (Way *w = find(addr)) {
        const CoherState prior = w->state;
        w->state = CoherState::Invalid;
        return prior;
    }
    return CoherState::Invalid;
}

std::uint64_t
CacheArray::validLines() const
{
    std::uint64_t n = 0;
    for (const auto &w : ways_)
        if (w.state != CoherState::Invalid)
            ++n;
    return n;
}

} // namespace dbsim::mem
