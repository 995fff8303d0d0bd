/**
 * @file
 * Ablation (paper section 4.1, last paragraphs): the stream buffer
 * versus the architectural alternative of a larger transfer unit
 * between L1 and L2.  The paper reports that 128-byte lines achieve
 * comparable miss-rate reductions but without the stream buffer's
 * ability to adapt to longer streams or avoid displacing useful data.
 *
 * Our hierarchy shares one line size across levels, so the comparison
 * point is a whole-hierarchy 128-byte-line configuration (which also
 * doubles the coherence granularity -- noted in EXPERIMENTS.md).
 *
 * Usage: ablation_streambuffer [--jobs N] [--json PATH]
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    using namespace dbsim;

    core::SimConfig base = core::makeScaledConfig(core::WorkloadKind::Oltp);

    core::SimConfig sbuf = base;
    sbuf.system.node.stream_buffer_entries = 4;

    core::SimConfig wide = base;
    for (auto *lvl : {&wide.system.node.l1i, &wide.system.node.l1d,
                      &wide.system.node.l2}) {
        lvl->line_bytes = 128;
    }
    wide.system.core.fetch_line_bytes = 128;

    bench::BenchContext ctx("ablation_streambuffer", opts);
    const auto results =
        ctx.sweep("line-size", {{"base 64B lines", base},
                                {"64B + sbuf-4", sbuf},
                                {"128B lines (no sbuf)", wide}});

    const auto rows = bench::rowsOf(results);
    core::printHeader(std::cout,
                      "Ablation: stream buffer vs 128-byte lines (OLTP)");
    core::printExecutionBars(std::cout, rows);
    std::cout << "\nL1I miss per fetch-line request:\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("  %-24s %.4f\n", rows[i].label.c_str(),
                    double(results[i].node0.l1i_misses) /
                        double(results[i].node0.l1i_fetches));
    }
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(dbsim::bench::parseBenchArgs(argc, argv)); });
}
