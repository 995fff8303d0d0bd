/**
 * @file
 * Shared implementation of Figures 2 and 3: the impact of ILP features
 * (multiple issue, out-of-order execution, instruction window size,
 * multiple outstanding misses) on OLTP / DSS performance, plus the MSHR
 * occupancy distributions of parts (d)-(g).
 *
 * Each part is a declarative configuration list handed to the parallel
 * sweep runner; the text output is identical to the old serial loops.
 */

#ifndef DBSIM_BENCH_ILP_FIGURE_HPP
#define DBSIM_BENCH_ILP_FIGURE_HPP

#include <cstdio>

#include "bench_util.hpp"
#include "cpu/inorder_core.hpp"

namespace dbsim::bench {

inline void
runIlpFigure(BenchContext &ctx, core::WorkloadKind kind,
             bool occupancy_only)
{
    using core::SimConfig;
    using core::SweepItem;
    const char *wname = core::workloadName(kind);

    // --- Part (a): in-order vs out-of-order across issue widths.
    if (!occupancy_only) {
        std::vector<SweepItem> items;
        for (const bool ooo : {false, true}) {
            for (const std::uint32_t width : {1u, 2u, 4u, 8u}) {
                SimConfig cfg = core::makeScaledConfig(kind);
                cfg.system.core.issue_width = width;
                if (!ooo) {
                    cfg.system.core =
                        cpu::makeInOrderParams(cfg.system.core);
                }
                char label[64];
                std::snprintf(label, sizeof(label), "%s-%u-way",
                              ooo ? "ooo" : "inorder", width);
                items.push_back({label, cfg});
            }
        }
        const auto results = ctx.sweep("a-issue-width", items);
        core::printHeader(std::cout,
                          std::string("(a) issue width / ooo, ") + wname +
                              " (normalized to in-order 1-way)");
        core::printExecutionBars(std::cout, rowsOf(results));
    }

    // --- Part (b): instruction window size (out-of-order).
    if (!occupancy_only) {
        std::vector<SweepItem> items;
        for (const std::uint32_t win : {16u, 32u, 64u, 128u}) {
            SimConfig cfg = core::makeScaledConfig(kind);
            cfg.system.core.window_size = win;
            char label[64];
            std::snprintf(label, sizeof(label), "window-%u", win);
            items.push_back({label, cfg});
        }
        const auto results = ctx.sweep("b-window", items);
        const auto rows = rowsOf(results);
        core::printHeader(std::cout,
                          std::string("(b) instruction window, ") + wname);
        core::printExecutionBars(std::cout, rows);
        std::cout << "\nread-stall magnification:\n";
        core::printReadStallBars(std::cout, rows);
    }

    // --- Part (c): number of MSHRs (outstanding misses).
    if (!occupancy_only) {
        std::vector<SweepItem> items;
        for (const std::uint32_t mshrs : {1u, 2u, 4u, 8u}) {
            SimConfig cfg = core::makeScaledConfig(kind);
            cfg.system.node.l1d.mshrs = mshrs;
            cfg.system.node.l2.mshrs = mshrs;
            char label[64];
            std::snprintf(label, sizeof(label), "mshr-%u", mshrs);
            items.push_back({label, cfg});
        }
        const auto results = ctx.sweep("c-mshrs", items);
        const auto rows = rowsOf(results);
        core::printHeader(std::cout,
                          std::string("(c) outstanding misses, ") + wname);
        core::printExecutionBars(std::cout, rows);
        std::cout << "\nread-stall magnification:\n";
        core::printReadStallBars(std::cout, rows);
    }

    // --- Parts (d)-(g): MSHR occupancy distributions on the base
    // system (fraction of non-idle time with >= n MSHRs in use).
    {
        const auto results = ctx.sweep(
            "occupancy", {{"base", core::makeScaledConfig(kind)}});
        if (results.empty()) {
            // Failed under collect: the JSON report records the error.
            std::cout << "(occupancy: no results to print)\n";
            return;
        }
        const core::SweepResult &out = results.front();
        core::printHeader(std::cout,
                          std::string("(d)-(g) MSHR occupancy, ") + wname);
        core::printOccupancy(std::cout, "(d) L1D all misses ",
                             out.l1d_occ, 8);
        core::printOccupancy(std::cout, "(e) L2  all misses ",
                             out.l2_occ, 8);
        core::printOccupancy(std::cout, "(f) L1D read misses",
                             out.l1d_read_occ, 8);
        core::printOccupancy(std::cout, "(g) L2  read misses",
                             out.l2_read_occ, 8);
    }
}

} // namespace dbsim::bench

#endif // DBSIM_BENCH_ILP_FIGURE_HPP
