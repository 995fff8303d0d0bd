/**
 * @file
 * Example: exploring memory consistency models interactively.
 *
 * Runs one workload under a chosen consistency model and implementation
 * and prints the full execution-time breakdown, spec-load violation
 * counts, and the comparison against RC -- the experiment a hardware
 * architect would run when deciding whether a stricter model's
 * simplicity is worth its cost on database workloads (paper section
 * 3.4 argues it mostly is, once the ILP optimizations are in).
 *
 * Usage: consistency_explorer [oltp|dss] [sc|pc|rc] [plain|pf|spec]
 */

#include <cstdio>
#include <cmath>
#include <iostream>
#include <string>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"

#include "core/cli_guard.hpp"

using namespace dbsim;

static int
run(int argc, char **argv)
{
    if (argc > 4)
        throw ConfigError("cli", "usage: consistency_explorer [oltp|dss] "
                                 "[sc|pc|rc] [plain|pf|spec]");

    core::WorkloadKind kind = core::WorkloadKind::Oltp;
    cpu::ConsistencyModel model = cpu::ConsistencyModel::SC;
    std::size_t impl = 2; // 0 plain, 1 +prefetch, 2 +prefetch+spec

    if (argc > 1 && core::parseChoice("workload", argv[1], {"oltp", "dss"}))
        kind = core::WorkloadKind::Dss;
    if (argc > 2) {
        constexpr cpu::ConsistencyModel kModels[] = {
            cpu::ConsistencyModel::SC, cpu::ConsistencyModel::PC,
            cpu::ConsistencyModel::RC};
        model = kModels[core::parseChoice("model", argv[2],
                                          {"sc", "pc", "rc"})];
    }
    if (argc > 3)
        impl = core::parseChoice("implementation", argv[3],
                                 {"plain", "pf", "spec"});

    core::SimConfig cfg = core::makeScaledConfig(kind);
    cfg.system.core.model = model;
    cfg.system.core.cons.hw_prefetch = impl >= 1;
    cfg.system.core.cons.spec_loads = impl >= 2;
    cfg.total_instructions = 1'000'000;
    cfg.warmup_instructions = 200'000;

    std::cout << "configuration: " << core::describe(cfg) << "\n";

    core::Simulation simulation(cfg);
    const sim::RunResult r = simulation.run();
    const core::Characterization c = simulation.characterize();

    std::cout << "\nIPC " << r.ipc << ", spec-load violations "
              << c.spec_load_violations << "\n\nbreakdown:\n"
              << r.breakdown.toString();

    // Reference run: the same workload under RC (the Alpha model the
    // paper's base system uses) for the "how far from relaxed" answer.
    core::SimConfig ref = cfg;
    ref.system.core.model = cpu::ConsistencyModel::RC;
    ref.system.core.cons = {};
    core::Simulation rc_sim(ref);
    const sim::RunResult rr = rc_sim.run();

    const double mine =
        r.breakdown.total() / static_cast<double>(r.instructions);
    const double rc_cpi =
        rr.breakdown.total() / static_cast<double>(rr.instructions);
    std::printf("\nthis configuration is %.1f%% %s than plain RC\n",
                100.0 * std::abs(mine / rc_cpi - 1.0),
                mine >= rc_cpi ? "slower" : "faster");
    return 0;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] { return run(argc, argv); });
}
