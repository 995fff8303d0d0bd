/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  -- an internal invariant was violated; this is a simulator bug.
 * fatal()  -- the user asked for something impossible (bad configuration).
 * warn()   -- something is off but the simulation can proceed.
 *
 * The panic path is hardened for diagnosability: components may register
 * crash-dump callbacks (see registerCrashDump) that panicImpl runs before
 * terminating, so an invariant failure deep in the machine still produces
 * a full machine-state dump.  By default panic aborts the process; tests
 * switch it to throwing SimInvariantError so they can assert on invariant
 * violations (PanicThrowGuard provides scoped switching).
 */

#ifndef DBSIM_COMMON_LOG_HPP
#define DBSIM_COMMON_LOG_HPP

#include <functional>
#include <sstream>
#include <string>

namespace dbsim {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

/** What DBSIM_PANIC does after running the registered crash dumps. */
enum class PanicBehavior : std::uint8_t {
    Abort, ///< print to stderr and std::abort() (default)
    Throw, ///< throw SimInvariantError (for tests asserting on invariants)
};

void setPanicBehavior(PanicBehavior b);
PanicBehavior panicBehavior();

/**
 * Register a callback producing a diagnostic dump to emit on panic.  A
 * panic runs only the callbacks registered by the panicking thread.
 * @param name  heading printed above the dump text
 * @param fn    returns the dump; exceptions it throws are swallowed
 * @return a handle for unregisterCrashDump()
 */
int registerCrashDump(std::string name, std::function<std::string()> fn);

/** Remove a callback registered with registerCrashDump (no-op if gone). */
void unregisterCrashDump(int handle);

/** Scoped switch of the panic behavior to Throw (restores on exit). */
class PanicThrowGuard
{
  public:
    PanicThrowGuard() : prev_(panicBehavior())
    {
        setPanicBehavior(PanicBehavior::Throw);
    }
    ~PanicThrowGuard() { setPanicBehavior(prev_); }
    PanicThrowGuard(const PanicThrowGuard &) = delete;
    PanicThrowGuard &operator=(const PanicThrowGuard &) = delete;

  private:
    PanicBehavior prev_;
};

namespace detail {

inline std::string
formatParts()
{
    return {};
}

template <typename T, typename... Rest>
std::string
formatParts(const T &head, const Rest &...rest)
{
    std::ostringstream os;
    os << head;
    return os.str() + formatParts(rest...);
}

} // namespace detail
} // namespace dbsim

#define DBSIM_PANIC(...) \
    ::dbsim::panicImpl(__FILE__, __LINE__, ::dbsim::detail::formatParts(__VA_ARGS__))

#define DBSIM_FATAL(...) \
    ::dbsim::fatalImpl(__FILE__, __LINE__, ::dbsim::detail::formatParts(__VA_ARGS__))

#define DBSIM_WARN(...) \
    ::dbsim::warnImpl(__FILE__, __LINE__, ::dbsim::detail::formatParts(__VA_ARGS__))

/** Panic unless @p cond holds; used for internal simulator invariants. */
#define DBSIM_ASSERT(cond, ...)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            DBSIM_PANIC("assertion failed: " #cond " ", __VA_ARGS__);        \
        }                                                                    \
    } while (0)

#endif // DBSIM_COMMON_LOG_HPP
