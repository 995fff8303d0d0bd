// Seeded violations: a serialization body that writes host pointer
// bits and a wall-clock value.
#include <chrono>
#include <cstdint>

struct Writer
{
    void u64(std::uint64_t);
};

class Table
{
  public:
    void
    saveState(Writer &w) const
    {
        w.u64(reinterpret_cast<std::uintptr_t>(this));
        w.u64(static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()));
    }
};
