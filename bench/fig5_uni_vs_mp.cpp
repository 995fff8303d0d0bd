/**
 * @file
 * Figure 5: relative importance of execution-time components in
 * uniprocessor versus multiprocessor systems, for OLTP and DSS.
 *
 * Paper shape targets: in the uniprocessor, OLTP's instruction stall is
 * a larger share (no communication misses); the multiprocessor adds a
 * larger read component for both workloads (dirty misses for OLTP).
 * Bars are composition (percent of each system's own execution time).
 *
 * Usage: fig5_uni_vs_mp [--jobs N] [--json PATH]
 */

#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    using namespace dbsim;

    bench::BenchContext ctx("fig5_uni_vs_mp", opts);
    for (const auto kind :
         {core::WorkloadKind::Oltp, core::WorkloadKind::Dss}) {
        const char *wname = core::workloadName(kind);
        const auto results = ctx.sweep(
            wname,
            {{"uniprocessor", core::makeScaledConfig(kind, 1)},
             {"multiprocessor(4)", core::makeScaledConfig(kind, 4)}});

        const auto rows = bench::rowsOf(results);
        core::printHeader(std::cout,
                          std::string("Figure 5: ") + wname +
                              " composition (percent of own total)");
        core::printCompositionBars(std::cout, rows);
        std::cout << "\nread-stall magnification "
                     "(normalized to uniprocessor total):\n";
        core::printReadStallBars(std::cout, rows);
    }
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(dbsim::bench::parseBenchArgs(argc, argv)); });
}
