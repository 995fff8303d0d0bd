/**
 * @file
 * Figure 4: factors limiting OLTP performance on the base out-of-order
 * system -- idealization study.
 *
 * Paper shape targets: infinite functional units give ~nothing; perfect
 * branch prediction ~6%; a perfect instruction cache gives the largest
 * single gain; combining all idealizations with a doubled (128-entry)
 * window leaves dirty-miss latency as the dominant component.
 *
 * Usage: fig4_oltp_limits [--jobs N] [--json PATH]
 */

#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    using namespace dbsim;
    using core::SimConfig;

    SimConfig base = core::makeScaledConfig(core::WorkloadKind::Oltp);

    SimConfig fu = base;
    fu.system.core.fu.infinite = true;

    SimConfig bp = base;
    bp.system.core.bp.perfect = true;

    SimConfig ic = base;
    ic.system.node.perfect_icache = true;

    SimConfig all = base;
    all.system.core.fu.infinite = true;
    all.system.core.bp.perfect = true;
    all.system.node.perfect_icache = true;
    all.system.node.perfect_itlb = true;
    all.system.node.perfect_dtlb = true;
    all.system.core.window_size = 128;

    bench::BenchContext ctx("fig4_oltp_limits", opts);
    const auto results = ctx.sweep(
        "limits", {{"base ooo", base},
                   {"infinite FUs", fu},
                   {"perfect bpred", bp},
                   {"perfect icache", ic},
                   {"all perfect + 128-window", all}});

    const auto rows = bench::rowsOf(results);
    core::printHeader(std::cout, "Figure 4: OLTP limit study");
    core::printExecutionBars(std::cout, rows);
    std::cout << "\nread-stall magnification:\n";
    core::printReadStallBars(std::cout, rows);
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(dbsim::bench::parseBenchArgs(argc, argv)); });
}
