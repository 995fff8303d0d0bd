/**
 * @file
 * Example: tuning the instruction stream buffer.
 *
 * Sweeps stream-buffer depth on the OLTP workload and prints the
 * effectiveness metrics a memory-system designer would look at: L1I
 * misses covered, useless prefetches (L2 bandwidth wasted), and the
 * execution-time return -- illustrating the paper's observation that
 * 2-4 entries capture nearly all the benefit because OLTP instruction
 * streams are short (section 4.1).
 *
 * Usage: streambuffer_tuning [instructions]
 */

#include <cstdio>
#include <iostream>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"

#include "core/cli_guard.hpp"

using namespace dbsim;

static int
run(int argc, char **argv)
{
    if (argc > 2)
        throw ConfigError("cli", "usage: streambuffer_tuning [instructions]");

    std::uint64_t budget = 1'000'000;
    if (argc > 1)
        budget = core::parseUnsigned("instructions", argv[1]);

    core::printHeader(std::cout,
                      "Instruction stream buffer depth sweep (OLTP)");
    std::printf("%-8s %10s %12s %12s %12s %10s\n", "depth", "CPI",
                "L1I-miss/fl", "sbuf-cover", "useless-pf", "IPC");

    double base_cpi = 0.0;
    for (const std::uint32_t depth : {0u, 1u, 2u, 4u, 8u, 16u}) {
        core::SimConfig cfg =
            core::makeScaledConfig(core::WorkloadKind::Oltp);
        cfg.system.node.stream_buffer_entries = depth;
        cfg.total_instructions = budget;
        cfg.warmup_instructions = budget / 5;

        core::Simulation simulation(cfg);
        const sim::RunResult r = simulation.run();

        std::uint64_t fetches = 0, misses = 0, covered = 0, useless = 0;
        auto &sys = simulation.system();
        for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
            fetches += sys.node(i).stats().l1i_fetches;
            misses += sys.node(i).stats().l1i_misses;
            covered += sys.node(i).stats().l1i_sbuf_hits;
            useless += sys.node(i).streamBufferStats().useless;
        }

        const double cpi = r.breakdown.total() /
                           static_cast<double>(r.instructions);
        if (depth == 0)
            base_cpi = cpi;
        std::printf("%-8u %7.3f %s %11.4f %11.1f%% %12llu %9.3f\n", depth,
                    cpi,
                    base_cpi > 0.0 && depth > 0
                        ? (cpi < base_cpi ? "(-)" : "(+)")
                        : "   ",
                    fetches ? double(misses) / double(fetches) : 0.0,
                    misses ? 100.0 * double(covered) / double(misses) : 0.0,
                    static_cast<unsigned long long>(useless), r.ipc);
    }

    std::cout << "\n'sbuf-cover' is the fraction of L1I misses supplied "
                 "by the stream buffer\ninstead of the L2; 'useless-pf' "
                 "are prefetched lines flushed unused\n(the L2 contention "
                 "cost of over-deep buffers).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] { return run(argc, argv); });
}
