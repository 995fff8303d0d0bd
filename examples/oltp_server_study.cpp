/**
 * @file
 * Example: studying an OLTP server configuration.
 *
 * Walks through the kind of what-if analysis a server architect would
 * do with this library: take the base OLTP machine, then vary one
 * dimension at a time (processes per CPU, issue width, L2 size) and
 * report throughput-relevant metrics.  Demonstrates direct use of
 * SimConfig knobs, per-run characterization, and the migratory-sharing
 * analysis.
 *
 * Usage: oltp_server_study [instructions]
 */

#include <cstdio>
#include <iostream>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"

#include "core/cli_guard.hpp"

using namespace dbsim;

namespace {

std::uint64_t g_budget = 800000;

void
runAndReport(core::SimConfig cfg, const std::string &label)
{
    cfg.total_instructions = g_budget;
    cfg.warmup_instructions = g_budget / 5;
    core::Simulation simulation(cfg);
    const sim::RunResult r = simulation.run();
    const core::Characterization c = simulation.characterize();
    std::printf("%-28s IPC %.3f  CPI-breakdown: cpu %4.1f%% read %4.1f%% "
                "sync %4.1f%% instr %4.1f%%  L1D %4.1f%%  dirty/L2 %4.1f%%\n",
                label.c_str(), r.ipc,
                100.0 * r.breakdown.cpu() / r.breakdown.total(),
                100.0 * r.breakdown.read() / r.breakdown.total(),
                100.0 * r.breakdown[StallCat::Sync] /
                    r.breakdown.total(),
                100.0 * r.breakdown.instr() / r.breakdown.total(),
                100.0 * c.l1d_miss_rate,
                c.total_l2_misses ? 100.0 * double(c.dirty_misses) /
                                        double(c.total_l2_misses)
                                  : 0.0);
}

} // namespace

static int
run(int argc, char **argv)
{
    if (argc > 2)
        throw ConfigError("cli", "usage: oltp_server_study [instructions]");

    if (argc > 1)
        g_budget = core::parseUnsigned("instructions", argv[1]);

    core::printHeader(std::cout, "OLTP server study: base system");
    runAndReport(core::makeScaledConfig(core::WorkloadKind::Oltp),
                 "base (8 procs/cpu, 4-way)");

    core::printHeader(std::cout, "vary server processes per CPU");
    for (const std::uint32_t ppc : {4u, 8u, 16u}) {
        core::SimConfig cfg =
            core::makeScaledConfig(core::WorkloadKind::Oltp);
        cfg.oltp.num_procs = ppc * cfg.system.num_nodes;
        char label[64];
        std::snprintf(label, sizeof(label), "%u procs/cpu", ppc);
        runAndReport(cfg, label);
    }

    core::printHeader(std::cout, "vary issue width");
    for (const std::uint32_t w : {2u, 4u, 8u}) {
        core::SimConfig cfg =
            core::makeScaledConfig(core::WorkloadKind::Oltp);
        cfg.system.core.issue_width = w;
        char label[64];
        std::snprintf(label, sizeof(label), "%u-way issue", w);
        runAndReport(cfg, label);
    }

    core::printHeader(std::cout, "vary L2 size");
    for (const std::uint64_t kb : {256ull, 512ull, 1024ull}) {
        core::SimConfig cfg =
            core::makeScaledConfig(core::WorkloadKind::Oltp);
        cfg.system.node.l2.size_bytes = kb * 1024;
        char label[64];
        std::snprintf(label, sizeof(label), "L2 %lluKB",
                      static_cast<unsigned long long>(kb));
        runAndReport(cfg, label);
    }

    core::printHeader(std::cout, "migratory sharing on the base system");
    {
        core::SimConfig cfg =
            core::makeScaledConfig(core::WorkloadKind::Oltp);
        cfg.total_instructions = g_budget;
        cfg.warmup_instructions = g_budget / 5;
        core::Simulation simulation(cfg);
        (void)simulation.run();
        const auto &mig = simulation.system().fabric().migratory();
        std::printf("migratory lines: %zu, dirty reads migratory: %.0f%%, "
                    "top-PC concentration(75%%): %.1f%%\n",
                    mig.migratoryLines(),
                    100.0 * mig.stats().dirtyReadFraction(),
                    100.0 * mig.pcConcentration(0.75));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] { return run(argc, argv); });
}
