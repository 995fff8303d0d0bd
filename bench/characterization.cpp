/**
 * @file
 * Workload characterization (paper section 3.1 text + section 4.2):
 * cache local miss rates, IPC, branch misprediction, execution-time
 * breakdown, dirty-miss fraction, and -- with --sharing -- the migratory
 * characterization (fractions of shared writes / dirty reads that are
 * migratory, and their concentration over lines and instructions).
 *
 * Paper reference points (base 4-way OOO, 4 nodes):
 *   OLTP: L1I 7.6% / L1D 14.1% / L2 7.4% local miss rates, IPC ~0.5,
 *         cumulative branch misprediction ~11%, dirty misses ~50% of L2
 *         misses; 88% of shared writes and 79% of dirty reads migratory.
 *   DSS : L1I ~0% / L1D 0.9% / L2 23.1%, IPC ~2.2.
 *
 * Usage: characterization [--sharing] [--oltp] [--dss]
 *                         [--jobs N] [--json PATH]
 */

#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

using namespace dbsim;

namespace {

void
characterizeOne(bench::BenchContext &ctx, core::WorkloadKind kind,
                bool sharing)
{
    const char *wname = core::workloadName(kind);
    const auto results =
        ctx.sweep(wname, {{wname, core::makeScaledConfig(kind)}});
    const core::SweepResult &res = results.front();
    const sim::RunResult &r = res.run;
    const core::Characterization &c = res.ch;

    core::printHeader(std::cout,
                      std::string("Characterization: ") + wname);
    std::cout << res.config << "\n\n";

    std::cout << "instructions          " << r.instructions << "\n"
              << "cycles                " << r.cycles << "\n"
              << "IPC                   " << r.ipc << "\n"
              << "L1I miss / fetch-line " << c.l1i_miss_per_fetch << "\n"
              << "L1I MPKI              " << c.l1i_mpki << "\n"
              << "L1D local miss rate   " << c.l1d_miss_rate << "\n"
              << "L2  local miss rate   " << c.l2_miss_rate << "\n"
              << "branch mispredicts    " << c.branch_mispredict_rate
              << "\n"
              << "iTLB miss rate        " << c.itlb_miss_rate << "\n"
              << "dTLB miss rate        " << c.dtlb_miss_rate << "\n"
              << "dirty / L2 misses     "
              << (c.total_l2_misses ? double(c.dirty_misses) /
                                          double(c.total_l2_misses)
                                    : 0.0)
              << "\n"
              << "sim Minstr / host-sec " << res.sim_ips / 1e6 << "\n";

    const auto rows = bench::rowsOf(results);
    std::cout << "\n";
    core::printExecutionBars(std::cout, rows);
    std::cout << "\n";
    core::printReadStallBars(std::cout, rows);

    if (sharing && kind == core::WorkloadKind::Oltp) {
        const core::MigratorySummary &ms = res.migratory;
        core::printHeader(std::cout, "Migratory sharing (section 4.2)");
        std::cout << "shared writes               " << ms.shared_writes
                  << "\n"
                  << "  migratory fraction        " << ms.write_fraction
                  << "  (paper: 0.88)\n"
                  << "dirty reads                 " << ms.dirty_reads
                  << "\n"
                  << "  migratory fraction        "
                  << ms.dirty_read_fraction << "  (paper: 0.79)\n"
                  << "migratory lines             " << ms.migratory_lines
                  << "\n"
                  << "line concentration (70%)    "
                  << ms.line_concentration_70
                  << "  (paper: 0.03 of lines cover 70% of write misses)\n"
                  << "PCs generating migratory    " << ms.migratory_pcs
                  << "\n"
                  << "PC concentration (75%)      "
                  << ms.pc_concentration_75
                  << "  (paper: <0.10 of instructions cover 75%)\n";
    }
}

} // namespace

static int
run(const bench::BenchOptions &opts)
{
    const bool sharing = opts.has("--sharing");
    const bool oltp_only = opts.has("--oltp");
    const bool dss_only = opts.has("--dss");

    bench::BenchContext ctx("characterization", opts);
    if (!dss_only)
        characterizeOne(ctx, core::WorkloadKind::Oltp,
                        sharing || !oltp_only);
    if (!oltp_only)
        characterizeOne(ctx, core::WorkloadKind::Dss, false);
    return ctx.finish();
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain([&] {
        return run(dbsim::bench::parseBenchArgs(
            argc, argv, {"--sharing", "--oltp", "--dss"}));
    });
}
