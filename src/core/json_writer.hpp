/**
 * @file
 * Minimal streaming JSON writer for machine-readable bench reports.
 *
 * There is no external JSON dependency in the container, and the
 * reporting layer only ever needs to *emit* JSON, so this is a small
 * single-pass writer: objects, arrays, strings (fully escaped), and
 * numbers, with deterministic formatting -- identical inputs produce
 * byte-identical documents, which the sweep determinism contract
 * (DESIGN.md) relies on.
 */

#ifndef DBSIM_CORE_JSON_WRITER_HPP
#define DBSIM_CORE_JSON_WRITER_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dbsim::core {

/**
 * Escape @p s for inclusion inside a JSON string literal (quotes not
 * included): backslash, double quote, and control characters below
 * 0x20 (the common ones as two-character escapes, the rest as \\u00XX).
 * Non-ASCII bytes pass through untouched (the document is UTF-8).
 */
std::string jsonEscape(std::string_view s);

/**
 * Streaming JSON writer with an explicit nesting stack.
 *
 * Usage:
 *   JsonWriter w(os);
 *   w.beginObject().key("name").value("fig2").key("rows").beginArray();
 *   ... w.endArray().endObject();
 *
 * Structural misuse (a key outside an object, a bare value where a key
 * is required, unbalanced end calls) throws std::logic_error -- bench
 * code paths are simple enough that this is a programming error, not a
 * runtime condition.
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level (0 = compact one-line). */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be inside an object, before a value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(bool v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint32_t v) { return value(std::uint64_t{v}); }
    JsonWriter &value(std::int32_t v) { return value(std::int64_t{v}); }
    JsonWriter &valueNull();

    /**
     * Emit @p json verbatim in value position (comma/indent bookkeeping
     * still applies).  The caller vouches that @p json is one complete,
     * well-formed JSON value; the writer only rejects an empty string.
     * This is how the sweep report embeds each compact, single-line
     * result entry (rendered by a second writer) in its indented
     * document.
     */
    JsonWriter &rawValue(std::string_view json);

    /** key(k) + value(v) in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** True once the root value is complete and the stack is empty. */
    bool done() const { return root_done_ && stack_.empty(); }

  private:
    enum class Frame : std::uint8_t { Object, Array };

    void beforeValue();   ///< comma / newline / indent bookkeeping
    void beforeNested();  ///< beforeValue() for container openers
    void newlineIndent();

    std::ostream &os_;
    int indent_;
    struct Level
    {
        Frame frame;
        std::size_t count = 0;   ///< members/elements emitted so far
        bool key_pending = false; ///< object: key emitted, value due
    };
    std::vector<Level> stack_;
    bool root_done_ = false;
    bool warned_nonfinite_ = false; ///< one NaN/Inf warning per document
};

} // namespace dbsim::core

#endif // DBSIM_CORE_JSON_WRITER_HPP
