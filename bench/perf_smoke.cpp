/**
 * @file
 * Simulator performance smoke: runs a fixed set of OLTP and DSS
 * configurations and writes an aggregated machine-readable report to
 * BENCH_sim_perf.json (override with --json PATH).  CI runs this on
 * every push so simulator-throughput regressions show up as a diffable
 * artifact; the headline metric is simulated instructions per host
 * second for each configuration.
 *
 * Usage: perf_smoke [--jobs N] [--json PATH]
 *        [--on-failure abort|collect] (shared flags, bench_util.hpp)
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(dbsim::bench::BenchOptions opts)
{
    using namespace dbsim;

    if (opts.json_path.empty())
        opts.json_path = "BENCH_sim_perf.json";

    bench::BenchContext ctx("perf_smoke", opts);

    std::vector<core::SweepItem> items;
    for (const auto kind :
         {core::WorkloadKind::Oltp, core::WorkloadKind::Dss}) {
        for (const std::uint32_t nodes : {4u, 1u}) {
            char label[32];
            std::snprintf(label, sizeof(label), "%s-%unode",
                          core::workloadName(kind), nodes);
            items.push_back({label, core::makeScaledConfig(kind, nodes)});
        }
    }

    const auto results = ctx.sweep("perf", items);

    core::printHeader(std::cout, "Simulator performance smoke");
    std::printf("  jobs: %u\n\n", ctx.runner().jobs());
    std::printf("  %-14s %12s %12s %6s %9s %14s\n", "config", "cycles",
                "instrs", "IPC", "wall [s]", "Minstr/host-s");
    for (const auto &r : results) {
        std::printf("  %-14s %12llu %12llu %6.2f %9.3f %14.2f\n",
                    r.label.c_str(),
                    static_cast<unsigned long long>(r.run.cycles),
                    static_cast<unsigned long long>(r.run.instructions),
                    r.run.ipc, r.wall_seconds, r.sim_ips / 1e6);
    }
    // finish() returns nonzero when the JSON report could not be
    // written (or items failed under collect/retry); CI keys off the
    // exit code, so never announce a report that is not actually there.
    const int code = ctx.finish();
    if (code == 0)
        std::cout << "\nreport: " << opts.json_path << "\n";
    else
        std::cerr << "perf_smoke: finishing with exit code " << code
                  << " (report " << opts.json_path << " is stale or "
                  << "incomplete)\n";
    return code;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(dbsim::bench::parseBenchArgs(argc, argv)); });
}
