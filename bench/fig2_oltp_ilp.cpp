/**
 * @file
 * Figure 2: impact of ILP features on OLTP performance.
 *
 * Paper shape targets:
 *  (a) out-of-order 4/8-way ~1.5x faster than in-order 1-way; in-order
 *      gains level off at 2-way, out-of-order at 4-way;
 *  (b) window-size gains level off beyond 64, mostly from the L2-hit
 *      read component;
 *  (c) two outstanding misses capture most of the benefit (frequent
 *      load-to-load dependences);
 *  (d)-(g) little read-miss overlap; occupancy driven by writes.
 *
 * Usage: fig2_oltp_ilp [--occupancy] [--jobs N] [--json PATH]
 */

#include "ilp_figure.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    dbsim::bench::BenchContext ctx("fig2_oltp_ilp", opts);
    dbsim::bench::runIlpFigure(ctx, dbsim::core::WorkloadKind::Oltp,
                               opts.has("--occupancy"));
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] {
        return run(dbsim::bench::parseBenchArgs(
            argc, argv, {"--occupancy"}));
    });
}
