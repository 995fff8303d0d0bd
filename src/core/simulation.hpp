/**
 * @file
 * Simulation facade: builds the machine and the workload from a
 * SimConfig, runs it, and exposes aggregated results -- the single entry
 * point examples and benchmarks use.
 */

#ifndef DBSIM_CORE_SIMULATION_HPP
#define DBSIM_CORE_SIMULATION_HPP

#include <memory>

#include "core/config.hpp"
#include "sim/system.hpp"
#include "workload/dss_engine.hpp"
#include "workload/oltp_engine.hpp"

namespace dbsim::core {

/** Aggregated cache / predictor characterization of a run. */
struct Characterization
{
    double l1i_miss_per_fetch = 0.0; ///< L1I misses / fetch-line lookups
    double l1i_mpki = 0.0;           ///< L1I misses per 1k instructions
    double l1d_miss_rate = 0.0;      ///< per data reference
    double l2_miss_rate = 0.0;       ///< per L2 access
    double branch_mispredict_rate = 0.0;
    double itlb_miss_rate = 0.0;
    double dtlb_miss_rate = 0.0;
    std::uint64_t dirty_misses = 0;
    std::uint64_t total_l2_misses = 0; ///< fabric transactions
    std::uint64_t spec_load_violations = 0;
};

/**
 * One experiment run.
 */
class Simulation
{
  public:
    explicit Simulation(const SimConfig &cfg);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Build the machine and the workload, run to the budget. */
    sim::RunResult run();

    /**
     * Build the machine and workload without running (idempotent).
     * Needed before system() access, e.g. system().restore(bytes).
     */
    void prepare();

    /** The simulated machine (valid after run() or prepare()). */
    sim::System &system() { return *system_; }

    /** Aggregate miss-rate / predictor characterization. */
    Characterization characterize() const;

    const SimConfig &config() const { return cfg_; }

  private:
    void build();

    SimConfig cfg_;
    std::unique_ptr<workload::OltpWorkload> oltp_;
    std::unique_ptr<workload::DssWorkload> dss_;
    std::unique_ptr<sim::System> system_;
};

} // namespace dbsim::core

#endif // DBSIM_CORE_SIMULATION_HPP
