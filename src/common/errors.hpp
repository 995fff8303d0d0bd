/**
 * @file
 * Exception types of the simulation integrity layer.
 *
 * ConfigError        -- a configuration was rejected by validate() before
 *                       any simulation state was built.  Carries the
 *                       offending field name for programmatic handling.
 * SimInvariantError  -- an internal simulator invariant was violated
 *                       (coherence audit failure, forward-progress
 *                       watchdog, DBSIM_PANIC in throwing mode).
 * SimTimeoutError    -- a host-side deadline (sim::HostDeadlineScope)
 *                       expired while the simulation was still running;
 *                       carries the machine-state dump taken at the
 *                       point the deadline was noticed.
 */

#ifndef DBSIM_COMMON_ERRORS_HPP
#define DBSIM_COMMON_ERRORS_HPP

#include <stdexcept>
#include <string>
#include <utility>

namespace dbsim {

/**
 * The user asked for an impossible configuration.  Thrown by the
 * validate() entry points; the message always names the field and says
 * what a legal value would look like.
 */
class ConfigError : public std::runtime_error
{
  public:
    ConfigError(std::string field, const std::string &why)
        : std::runtime_error("config error [" + field + "]: " + why),
          field_(std::move(field))
    {
    }

    /** Dotted path of the rejected parameter (e.g. "system.node.l2.line_bytes"). */
    const std::string &field() const { return field_; }

  private:
    std::string field_;
};

/**
 * An internal invariant was violated at runtime (simulator bug or
 * corrupted machine state).  Raised by DBSIM_PANIC when the panic
 * behavior is set to Throw (see common/log.hpp), and by the coherence
 * checker.  The message includes any diagnostic dump text available at
 * the point of failure.
 */
class SimInvariantError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A host-side deadline (sim::HostDeadlineScope) expired while a
 * simulation was still running.  Thrown from the System::run loop, so
 * every destructor on the way out runs normally.  The dump() is the
 * machineStateDump() taken when the deadline was noticed, kept separate
 * from what() so reporting layers can bound its size independently.
 */
class SimTimeoutError : public std::runtime_error
{
  public:
    SimTimeoutError(const std::string &msg, std::string dump)
        : std::runtime_error(msg), dump_(std::move(dump))
    {
    }

    /** Machine state at deadline expiry (may be empty). */
    const std::string &dump() const { return dump_; }

  private:
    std::string dump_;
};

} // namespace dbsim

#endif // DBSIM_COMMON_ERRORS_HPP
