#include "common/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/errors.hpp"

namespace dbsim {

namespace {

struct DumpEntry
{
    int handle;
    std::thread::id owner; ///< the registering thread
    std::string name;
    std::function<std::string()> fn;
};

/**
 * The crash-dump registry.  The sweep runner constructs and destroys
 * Systems from worker threads, and each System registers a crash dump
 * around its lifetime, so every entry-list touch holds mu_.  A panic
 * runs only the dumps its own thread registered: another thread's
 * machine is live (reading it would race with its run loop) and belongs
 * to a different sweep item.  Dump callbacks are invoked under the
 * lock: they only run on the (rare) panic path, and holding the lock
 * keeps a concurrently destructing System from invalidating an entry.
 */
class CrashDumpRegistry
{
  public:
    static CrashDumpRegistry &
    instance()
    {
        static CrashDumpRegistry reg;
        return reg;
    }

    int
    add(std::string name, std::function<std::string()> fn)
    {
        std::lock_guard<std::mutex> lock(mu_);
        const int h = next_handle_++;
        entries_.push_back(
            {h, std::this_thread::get_id(), std::move(name), std::move(fn)});
        return h;
    }

    void
    remove(int handle)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->handle == handle) {
                entries_.erase(it);
                return;
            }
        }
    }

    /** Run the calling thread's dumps; returns the concatenated text. */
    std::string
    runAll()
    {
        // Re-entrancy guard (per thread): a dump callback that itself
        // panics must not recurse into the dump machinery, and must not
        // deadlock on the registry mutex it already holds.
        thread_local bool in_panic = false;
        if (in_panic)
            return {};
        in_panic = true;
        std::string all;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (const auto &d : entries_) {
                if (d.owner != std::this_thread::get_id())
                    continue;
                all += "=== crash dump: " + d.name + " ===\n";
                try {
                    all += d.fn();
                } catch (const std::exception &e) {
                    all += std::string("(dump callback failed: ") +
                           e.what() + ")";
                } catch (...) {
                    // dbsim-analyze: allow(convention-catch-swallow) -- a
                    // throwing dump callback must never escape the panic
                    // path itself.
                    all += "(dump callback failed)";
                }
                if (!all.empty() && all.back() != '\n')
                    all += '\n';
            }
        }
        in_panic = false;
        return all;
    }

  private:
    CrashDumpRegistry() = default;

    std::mutex mu_;
    std::vector<DumpEntry> entries_;
    int next_handle_ = 1;
};

/**
 * Serialized stderr sink: concurrent warnings and panic reports from
 * sweep worker threads emit whole lines, never interleaved fragments.
 */
class LogSink
{
  public:
    static LogSink &
    instance()
    {
        static LogSink sink;
        return sink;
    }

    /** Write @p text (already newline-terminated) as one atomic unit. */
    void
    write(const std::string &text)
    {
        std::lock_guard<std::mutex> lock(mu_);
        out_ << text;
        out_.flush();
    }

  private:
    LogSink() = default;

    std::mutex mu_;
    std::ostream &out_ = std::cerr;
};

std::atomic<PanicBehavior> g_panic_behavior{PanicBehavior::Abort};

} // namespace

void
setPanicBehavior(PanicBehavior b)
{
    g_panic_behavior.store(b, std::memory_order_relaxed);
}

PanicBehavior
panicBehavior()
{
    return g_panic_behavior.load(std::memory_order_relaxed);
}

int
registerCrashDump(std::string name, std::function<std::string()> fn)
{
    return CrashDumpRegistry::instance().add(std::move(name),
                                             std::move(fn));
}

void
unregisterCrashDump(int handle)
{
    CrashDumpRegistry::instance().remove(handle);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " (" << file << ":" << line << ")\n";
    os << CrashDumpRegistry::instance().runAll();
    if (panicBehavior() == PanicBehavior::Throw)
        throw SimInvariantError(os.str());
    LogSink::instance().write(os.str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    // Throw rather than exit so library users (and tests) can catch
    // configuration errors.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    // Compose the whole line first, then emit it through the serialized
    // sink: concurrent warnings from sweep worker threads come out as
    // whole lines.
    std::ostringstream os;
    os << "warn: " << msg << " (" << file << ":" << line << ")\n";
    LogSink::instance().write(os.str());
}

} // namespace dbsim
