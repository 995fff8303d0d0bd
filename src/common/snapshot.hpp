/**
 * @file
 * Byte-stable binary serialization for deterministic checkpoints.
 *
 * snap::Writer / snap::Reader encode machine state as a fixed
 * little-endian byte stream, independent of host endianness, struct
 * padding, and container iteration order.  Every component of the
 * simulator exposes
 *
 *     void saveState(snap::Writer &) const;
 *     void restoreState(snap::Reader &);
 *
 * pairs that serialize exactly the mutable simulation state (never
 * construction-derived configuration, never host pointers or host
 * clocks -- enforced by the dbsim-analyze `checkpoint-purity` rule).
 * The same byte stream feeds both on-disk checkpoints and the cheap
 * per-epoch FNV-1a state hashes used by tools/dbsim-diverge.
 *
 * Encoding rules (DESIGN.md §5g):
 *  - integers are fixed-width little-endian, never varint;
 *  - doubles are serialized as their IEEE-754 bit pattern (bit_cast),
 *    so restored values are bitwise-identical, not round-tripped
 *    through text;
 *  - strings and containers are a u64 element count followed by the
 *    elements; keyed containers are std::map / std::set, so their
 *    elements go out in ascending key order.
 */

#ifndef DBSIM_COMMON_SNAPSHOT_HPP
#define DBSIM_COMMON_SNAPSHOT_HPP

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dbsim::snap {

/** 64-bit FNV-1a over a byte range, chainable via @p h. */
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= kFnvPrime;
    }
    return h;
}

/**
 * A checkpoint stream was truncated, corrupt, or produced by an
 * incompatible configuration.  Restore paths treat this as "checkpoint
 * unusable", not as a simulator invariant failure.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Append-only little-endian byte stream builder. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        buf_.push_back(static_cast<std::uint8_t>(v));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; restores bitwise-identical doubles. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            buf_.push_back(static_cast<std::uint8_t>(c));
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** FNV-1a 64 over everything written so far. */
    std::uint64_t
    hash() const
    {
        return fnv1a(buf_.data(), buf_.size());
    }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader over a Writer-produced byte stream. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &bytes)
        : Reader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        need(2);
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v = static_cast<std::uint16_t>(
                v | static_cast<std::uint16_t>(data_[pos_++]) << (8 * i));
        return v;
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    bool boolean() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_) + pos_,
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /**
     * Read a container length and validate it against the remaining
     * bytes (each element needs >= @p min_elem_bytes), so a corrupt
     * length fails fast instead of driving a huge allocation.
     */
    std::size_t
    length(std::size_t min_elem_bytes = 1)
    {
        const std::uint64_t n = u64();
        if (min_elem_bytes != 0 && n > (size_ - pos_) / min_elem_bytes)
            throw SnapshotError("snapshot: implausible container length");
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SnapshotError("snapshot: truncated stream");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace dbsim::snap

#endif // DBSIM_COMMON_SNAPSHOT_HPP
