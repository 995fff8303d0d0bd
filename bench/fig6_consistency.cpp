/**
 * @file
 * Figure 6: performance benefits from ILP-enabled consistency
 * optimizations -- SC, PC and RC, each with a straightforward
 * implementation, with hardware prefetching from the instruction
 * window, and with speculative load execution added.
 *
 * Paper shape targets: the optimizations barely change RC; prefetching
 * helps SC/PC some, speculative loads much more; fully optimized SC is
 * ~26% (OLTP) / ~37% (DSS) faster than plain SC and within 10-15% of
 * RC.  Bars normalized to the straightforward SC implementation; data
 * stall split into read and write components.
 *
 * Usage: fig6_consistency [--jobs N] [--json PATH]
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    using namespace dbsim;
    using cpu::ConsistencyModel;

    bench::BenchContext ctx("fig6_consistency", opts);
    for (const auto kind :
         {core::WorkloadKind::Oltp, core::WorkloadKind::Dss}) {
        std::vector<core::SweepItem> items;
        for (const auto model : {ConsistencyModel::SC,
                                 ConsistencyModel::PC,
                                 ConsistencyModel::RC}) {
            for (int impl = 0; impl < 3; ++impl) {
                core::SimConfig cfg = core::makeScaledConfig(kind);
                cfg.system.core.model = model;
                cfg.system.core.cons.hw_prefetch = impl >= 1;
                cfg.system.core.cons.spec_loads = impl >= 2;
                char label[64];
                std::snprintf(label, sizeof(label), "%s%s",
                              cpu::consistencyModelName(model),
                              impl == 0 ? " plain"
                              : impl == 1 ? " +prefetch"
                                          : " +prefetch+spec");
                items.push_back({label, cfg});
            }
        }
        const auto results = ctx.sweep(core::workloadName(kind), items);
        core::printHeader(std::cout,
                          std::string("Figure 6: consistency models, ") +
                              core::workloadName(kind) +
                              " (normalized to plain SC)");
        core::printExecutionBars(std::cout, bench::rowsOf(results));
    }
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(dbsim::bench::parseBenchArgs(argc, argv)); });
}
