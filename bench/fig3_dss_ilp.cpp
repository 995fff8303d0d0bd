/**
 * @file
 * Figure 3: impact of ILP features on DSS performance, plus the
 * functional-unit idealization of section 3.2.2.
 *
 * Paper shape targets:
 *  (a) out-of-order + multiple issue ~2.6x over in-order single issue;
 *      1->8-way: -32% in-order, -56% out-of-order;
 *  (b) window gains level off beyond 32;
 *  (c) benefits up to 4 outstanding misses, driven by write overlap;
 *  (--funits) 16 ALUs + 16 AGUs give ~12% further improvement.
 *
 * Usage: fig3_dss_ilp [--occupancy] [--funits] [--jobs N] [--json PATH]
 */

#include <iostream>

#include "ilp_figure.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    using namespace dbsim;
    bench::BenchContext ctx("fig3_dss_ilp", opts);

    if (opts.has("--funits")) {
        core::SimConfig base =
            core::makeScaledConfig(core::WorkloadKind::Dss);
        core::SimConfig wide = base;
        wide.system.core.fu.int_alus = 16;
        wide.system.core.fu.addr_units = 16;
        const auto results = ctx.sweep(
            "funits", {{"base (2 ALU/2 AGU)", base},
                       {"16 ALU / 16 AGU", wide}});
        core::printHeader(std::cout,
                          "section 3.2.2: DSS functional-unit scaling");
        core::printExecutionBars(std::cout, bench::rowsOf(results));
        return ctx.finish();
    }

    bench::runIlpFigure(ctx, core::WorkloadKind::Dss,
                        opts.has("--occupancy"));
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] {
        return run(dbsim::bench::parseBenchArgs(
            argc, argv, {"--funits", "--occupancy"}));
    });
}
