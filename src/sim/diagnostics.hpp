/**
 * @file
 * Diagnostic machine-state dumps and progress tracing (the simulation
 * integrity layer's observability half).
 *
 * machineStateDump() renders the whole machine -- per-CPU run state and
 * head-of-window stall category, pipeline/window occupancy, MSHR and
 * stream-buffer occupancy, scheduler queue depths and wake horizons, and
 * directory population -- as human-readable text.  The System registers
 * it as a crash-dump callback (common/log.hpp), so any DBSIM_PANIC during
 * a run emits it, and the forward-progress watchdog embeds it in its
 * panic message.
 *
 * progressLine() is the periodic one-line trace formerly printf'd by
 * System::run under DBSIM_DEBUG; cyclesFromEnv() is the hardened parser
 * for that knob (warns on garbage instead of silently reading 0).
 *
 * The host-deadline API lets the thread about to run a simulation arm a
 * wall-clock deadline (thread-local, so concurrent simulations do not
 * interfere); the System::run loop polls it cheaply and converts an
 * expired deadline into a SimTimeoutError that carries the machine-state
 * dump -- a hung configuration becomes a structured failure instead of a
 * stuck process.
 */

#ifndef DBSIM_SIM_DIAGNOSTICS_HPP
#define DBSIM_SIM_DIAGNOSTICS_HPP

#include <string>
#include <vector>

#include "common/types.hpp"

namespace dbsim::sim {

class System;
struct RunResult;

/**
 * End-of-run accounting-conservation audit (DESIGN.md §5i): checks
 * that the retire-slot breakdown of every core sums to its accounted
 * run cycles, that all cores account the same window as the RunResult,
 * that cache/TLB/fabric counters are cross-consistent (misses never
 * exceed accesses, no remote or dirty traffic on a single node, stream
 * buffers off means zero stream-buffer hits), that MSHR occupancy
 * never exceeds the configured file size, and that the epoch-hash
 * stream is strictly ordered.  Returns one human-readable line per
 * violated invariant (empty = clean).
 *
 * System::run calls this when the coherence checker is armed
 * (check_coherence / DBSIM_CHECK=1) and panics on violations, so the
 * whole tier-1 suite doubles as a conservation regression harness; the
 * fuzz layer's conservation oracle calls it on every run regardless.
 */
std::vector<std::string> conservationViolations(const System &sys,
                                                const RunResult &r);

/**
 * Arm a wall-clock deadline @p seconds from now for simulations run on
 * the *calling thread*.  Values <= 0 clear any armed deadline.
 */
void setHostDeadline(double seconds);

/** Disarm the calling thread's host deadline. */
void clearHostDeadline();

/** True when the calling thread has a deadline armed. */
bool hostDeadlineArmed();

/** True when the calling thread's armed deadline has passed. */
bool hostDeadlineExpired();

/** Seconds the calling thread's deadline was armed with (0 if none). */
double hostDeadlineSeconds();

/** Scoped arming of the calling thread's host deadline. */
class HostDeadlineScope
{
  public:
    explicit HostDeadlineScope(double seconds)
    {
        if (seconds > 0.0)
            setHostDeadline(seconds);
    }
    ~HostDeadlineScope() { clearHostDeadline(); }
    HostDeadlineScope(const HostDeadlineScope &) = delete;
    HostDeadlineScope &operator=(const HostDeadlineScope &) = delete;
};

/**
 * Parse a nonnegative cycle count from environment variable @p name.
 * Returns 0 (feature disabled) when the variable is unset or empty.
 * Invalid values -- non-numeric text, trailing junk, negative numbers,
 * overflow -- emit a DBSIM_WARN naming the variable and also return 0,
 * instead of strtoull's silent garbage-to-0 mapping.
 */
Cycles cyclesFromEnv(const char *name);

/** One-line per-CPU progress summary for periodic DBSIM_DEBUG tracing. */
std::string progressLine(const System &sys);

/**
 * Full machine-state dump: per-CPU head stall category and pipeline
 * state, MSHR / stream-buffer occupancy, scheduler queue depths, and
 * directory population.
 */
std::string machineStateDump(const System &sys);

} // namespace dbsim::sim

#endif // DBSIM_SIM_DIAGNOSTICS_HPP
