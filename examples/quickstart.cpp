/**
 * @file
 * Quickstart: simulate the scaled OLTP workload on the base 4-node
 * out-of-order machine and print the execution-time breakdown -- the
 * smallest complete use of the library.
 *
 * Usage: quickstart [oltp|dss] [instructions]
 */

#include <iostream>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"

#include "core/cli_guard.hpp"

static int
run(int argc, char **argv)
{
    using namespace dbsim;

    if (argc > 3)
        throw ConfigError("cli",
                          "usage: quickstart [oltp|dss] [instructions]");

    core::WorkloadKind kind = core::WorkloadKind::Oltp;
    if (argc > 1 && core::parseChoice("workload", argv[1], {"oltp", "dss"}))
        kind = core::WorkloadKind::Dss;

    core::SimConfig cfg = core::makeScaledConfig(kind);
    if (argc > 2) {
        cfg.total_instructions =
            core::parseUnsigned("instructions", argv[2]);
        cfg.warmup_instructions = cfg.total_instructions / 5;
    }

    std::cout << "dbsim quickstart: " << core::describe(cfg) << "\n";

    core::Simulation simulation(cfg);
    const sim::RunResult r = simulation.run();

    std::cout << "\ninstructions retired : " << r.instructions
              << "\nsimulated cycles     : " << r.cycles
              << "\nIPC (per processor)  : " << r.ipc << "\n";

    std::cout << "\nexecution-time breakdown (cycles):\n"
              << r.breakdown.toString();

    const core::Characterization c = simulation.characterize();
    std::cout << "\ncharacterization:"
              << "\n  L1I miss / fetch    : " << c.l1i_miss_per_fetch
              << "\n  L1I MPKI            : " << c.l1i_mpki
              << "\n  L1D miss rate       : " << c.l1d_miss_rate
              << "\n  L2 miss rate        : " << c.l2_miss_rate
              << "\n  branch mispredicts  : " << c.branch_mispredict_rate
              << "\n  dirty / L2 misses   : "
              << (c.total_l2_misses
                      ? double(c.dirty_misses) / double(c.total_l2_misses)
                      : 0.0)
              << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] { return run(argc, argv); });
}
