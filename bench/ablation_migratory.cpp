/**
 * @file
 * Ablation (paper section 4.2): the flush / WriteThrough primitive must
 * keep a clean copy in the flushing cache.  The paper notes that an
 * invalidating flush neutralizes the gains because the flushing
 * processor's subsequent reads then miss.  This benchmark compares:
 * no hints, flush-keeping-clean-copy, and flush-invalidating, plus the
 * adaptive migratory protocol (paper footnote 2) under RC and SC.
 *
 * Usage: ablation_migratory [--jobs N] [--json PATH]
 */

#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(const dbsim::bench::BenchOptions &opts)
{
    using namespace dbsim;

    core::SimConfig base = core::makeScaledConfig(core::WorkloadKind::Oltp);
    base.system.node.stream_buffer_entries = 4;

    core::SimConfig keep = base;
    keep.hint_flush = true;

    core::SimConfig inval = base;
    inval.hint_flush = true;
    inval.system.fabric.flush_invalidates = true;

    // Adaptive migratory protocol (paper footnote 2): under the relaxed
    // base model the write latency is already hidden, so the handoff
    // should gain little.  Under SC the write latency is exposed and the
    // handoff shows through.
    core::SimConfig adapt = base;
    adapt.system.fabric.adaptive_migratory = true;

    core::SimConfig sc_plain = base;
    sc_plain.system.core.model = cpu::ConsistencyModel::SC;

    core::SimConfig sc_adapt = sc_plain;
    sc_adapt.system.fabric.adaptive_migratory = true;

    bench::BenchContext ctx("ablation_migratory", opts);
    const auto results = ctx.sweep(
        "flush-semantics", {{"no hints", base},
                            {"flush (keep clean copy)", keep},
                            {"flush (invalidate copy)", inval},
                            {"adaptive migratory (RC)", adapt},
                            {"SC plain", sc_plain},
                            {"SC + adaptive migratory", sc_adapt}});

    const auto rows = bench::rowsOf(results);
    core::printHeader(std::cout,
                      "Ablation: flush keeping vs invalidating the copy "
                      "(OLTP, sbuf-4)");
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
