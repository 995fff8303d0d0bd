/**
 * @file
 * Example: parallel decision-support query scaling.
 *
 * Runs the DSS (TPC-D Query 6 style) parallel scan with different
 * degrees of intra-query parallelism and on different machine sizes,
 * reporting scan throughput in simulated rows per million cycles --
 * the way a database performance engineer would evaluate a parallel
 * query execution plan on this machine.
 *
 * Usage: dss_parallel_query [instructions]
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
runScan(std::uint32_t nodes, std::uint32_t procs_per_cpu)
{
    core::SimConfig cfg =
        core::makeScaledConfig(core::WorkloadKind::Dss, nodes);
    cfg.dss.num_procs = procs_per_cpu * nodes;
    cfg.total_instructions = g_budget;
    cfg.warmup_instructions = g_budget / 5;

    core::Simulation simulation(cfg);
    const sim::RunResult r = simulation.run();

    // Rows processed ~ instructions / instructions-per-row; derive the
    // per-row cost from the workload parameters (approximate).
    const double instrs_per_row =
        cfg.dss.compute_per_row + cfg.dss.table_refs_per_row +
        cfg.dss.private_refs_per_row + 6.0;
    const double rows = static_cast<double>(r.instructions) / instrs_per_row;
    const double rows_per_mcycle =
        r.cycles ? rows / (static_cast<double>(r.cycles) / 1e6) : 0.0;

    std::printf("%u node%s x %u procs: IPC %.2f, ~%.0f rows/Mcycle, "
                "read-stall %.1f%%\n",
                nodes, nodes == 1 ? " " : "s", procs_per_cpu, r.ipc,
                rows_per_mcycle,
                100.0 * r.breakdown.read() / r.breakdown.total());
}

} // namespace

static int
run(int argc, char **argv)
{
    if (argc > 2)
        throw ConfigError("cli", "usage: dss_parallel_query [instructions]");

    if (argc > 1)
        g_budget = core::parseUnsigned("instructions", argv[1]);

    core::printHeader(std::cout,
                      "DSS parallel query: machine-size scaling "
                      "(4 scan processes per CPU)");
    for (const std::uint32_t nodes : {1u, 2u, 4u})
        runScan(nodes, 4);

    core::printHeader(std::cout,
                      "DSS parallel query: intra-query parallelism on "
                      "4 nodes");
    for (const std::uint32_t ppc : {1u, 2u, 4u, 8u})
        runScan(4, ppc);

    core::printHeader(std::cout, "functional-unit sensitivity (4 nodes)");
    {
        core::SimConfig cfg = core::makeScaledConfig(core::WorkloadKind::Dss);
        cfg.total_instructions = g_budget;
        cfg.warmup_instructions = g_budget / 5;
        core::Simulation base(cfg);
        const auto rb = base.run();
        cfg.system.core.fu.int_alus = 16;
        cfg.system.core.fu.addr_units = 16;
        core::Simulation wide(cfg);
        const auto rw = wide.run();
        std::printf("2 ALU/2 AGU: IPC %.2f   16 ALU/16 AGU: IPC %.2f "
                    "(%.1f%% faster)\n",
                    rb.ipc, rw.ipc,
                    100.0 * (rw.ipc / rb.ipc - 1.0));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] { return run(argc, argv); });
}
