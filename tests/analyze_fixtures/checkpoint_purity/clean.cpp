// Clean twin: the same serialization shape, but pointers and clocks
// stay out and the keyed container iterates in key order.
#include <cstdint>
#include <map>

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
        w.u64(table_.size());
        for (const auto &[key, value] : table_)
            w.u64(key + value);
    }

  private:
    std::map<std::uint64_t, std::uint64_t> table_;
};
