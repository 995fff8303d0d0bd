/**
 * @file
 * Figure 7: addressing the OLTP instruction and data-communication
 * bottlenecks.
 *
 * (a) Instruction stream buffers of 2/4/8 entries between the L1I and
 *     L2, against a perfect instruction cache (and perfect iTLB) upper
 *     bound.  Paper shape targets: a 2-element buffer removes ~64% of
 *     L1I misses, 4 elements ~10% more; execution time improves 16-17%,
 *     within ~15% of the perfect-icache configuration.  With --uni the
 *     same sweep runs on a uniprocessor, where the gains are larger
 *     (22-27%).
 *
 * (b) Software prefetch and flush (WriteThrough) hints for migratory
 *     data, on top of a 4-entry stream buffer.  Paper shape targets:
 *     flush hints ~7.5% (bound ~9%, approximated by discounting
 *     migratory read latency 40%); flush+prefetch ~12% cumulative.
 *
 * Usage: fig7_oltp_bottlenecks [--uni] [--jobs N] [--json PATH]
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

using namespace dbsim;

namespace {

void
partA(bench::BenchContext &ctx, std::uint32_t nodes)
{
    std::vector<core::SweepItem> items;

    core::SimConfig base =
        core::makeScaledConfig(core::WorkloadKind::Oltp, nodes);
    items.push_back({"base (no sbuf)", base});
    for (const std::uint32_t entries : {2u, 4u, 8u}) {
        core::SimConfig cfg = base;
        cfg.system.node.stream_buffer_entries = entries;
        char label[32];
        std::snprintf(label, sizeof(label), "sbuf-%u", entries);
        items.push_back({label, cfg});
    }
    {
        core::SimConfig cfg = base;
        cfg.system.node.perfect_icache = true;
        items.push_back({"perfect icache", cfg});
    }
    {
        core::SimConfig cfg = base;
        cfg.system.node.perfect_icache = true;
        cfg.system.node.perfect_itlb = true;
        items.push_back({"perfect icache+iTLB", cfg});
    }

    const auto results = ctx.sweep("a-stream-buffer", items);

    // "Effective" L1I miss rate: tag misses the stream buffer did NOT
    // cover (the paper's miss-rate-reduction metric counts buffer hits
    // as removed misses).  The perfect-icache rows have none.
    std::vector<double> miss_rates;
    for (const auto &r : results) {
        miss_rates.push_back(
            r.cfg.system.node.perfect_icache
                ? 0.0
                : double(r.node0.l1i_misses - r.node0.l1i_sbuf_hits) /
                      double(r.node0.l1i_fetches));
    }

    char title[96];
    std::snprintf(title, sizeof(title),
                  "Figure 7(a): instruction stream buffer, %u node%s",
                  nodes, nodes == 1 ? "" : "s");
    core::printHeader(std::cout, title);
    const auto rows = bench::rowsOf(results);
    core::printExecutionBars(std::cout, rows);
    std::cout << "\nL1I effective miss rate per fetch-line request\n"
                 "(misses not covered by the stream buffer):\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("  %-22s %.4f", rows[i].label.c_str(), miss_rates[i]);
        if (i > 0 && miss_rates[0] > 0.0) {
            std::printf("  (%.0f%% of base misses removed)",
                        100.0 * (1.0 - miss_rates[i] / miss_rates[0]));
        }
        std::printf("\n");
    }
}

void
partB(bench::BenchContext &ctx)
{
    core::SimConfig base = core::makeScaledConfig(core::WorkloadKind::Oltp);
    base.system.node.stream_buffer_entries = 4;

    core::SimConfig flush = base;
    flush.hint_flush = true;

    core::SimConfig bound = base;
    bound.system.fabric.migratory_read_factor = 0.6;

    core::SimConfig pf_only = base;
    pf_only.hint_prefetch = true;

    core::SimConfig both = base;
    both.hint_flush = true;
    both.hint_prefetch = true;

    const auto results = ctx.sweep(
        "b-migratory-hints",
        {{"base + sbuf-4", base},
         {"+ flush hints", flush},
         {"bound: migratory reads -40%", bound},
         {"+ prefetch only", pf_only},
         {"+ flush + prefetch", both}});

    const auto rows = bench::rowsOf(results);
    core::printHeader(std::cout,
                      "Figure 7(b): migratory data hints "
                      "(base assumes 4-entry stream buffer)");
    core::printExecutionBars(std::cout, rows);
    std::cout << "\nread-stall magnification:\n";
    core::printReadStallBars(std::cout, rows);
}

} // namespace

static int
run(const bench::BenchOptions &opts)
{
    const bool uni = opts.has("--uni");
    bench::BenchContext ctx("fig7_oltp_bottlenecks", opts);
    partA(ctx, uni ? 1 : 4);
    if (!uni)
        partB(ctx);
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] {
        return run(dbsim::bench::parseBenchArgs(
            argc, argv, {"--uni"}));
    });
}
