/**
 * @file
 * End-to-end property tests through the public Simulation facade: the
 * qualitative relationships the paper's figures rest on must hold on
 * small runs (out-of-order beats in-order, stricter consistency costs
 * more, optimizations close the gap, the stream buffer cuts instruction
 * stalls, hints reduce dirty-miss time, idealizations help).
 */

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/simulation.hpp"
#include "cpu/inorder_core.hpp"

namespace dbsim::core {
namespace {

SimConfig
quick(WorkloadKind kind, std::uint32_t nodes = 4)
{
    SimConfig cfg = makeScaledConfig(kind, nodes);
    cfg.total_instructions = 300000;
    cfg.warmup_instructions = 60000;
    return cfg;
}

double
cpiOf(const sim::RunResult &r)
{
    return static_cast<double>(r.breakdown.total()) /
           static_cast<double>(r.instructions);
}

sim::RunResult
runCfg(const SimConfig &cfg)
{
    Simulation s(cfg);
    return s.run();
}

TEST(Simulation, OooBeatsInOrderOltp)
{
    SimConfig ooo = quick(WorkloadKind::Oltp);
    SimConfig ino = ooo;
    ino.system.core = cpu::makeInOrderParams(ino.system.core);
    ino.system.core.issue_width = 1;
    const double t_ooo = cpiOf(runCfg(ooo));
    const double t_ino = cpiOf(runCfg(ino));
    EXPECT_LT(t_ooo, t_ino);
    // The paper's headline: ~1.5x for OLTP.
    EXPECT_GT(t_ino / t_ooo, 1.2);
}

TEST(Simulation, OooBeatsInOrderDssMore)
{
    SimConfig ooo = quick(WorkloadKind::Dss);
    SimConfig ino = ooo;
    ino.system.core = cpu::makeInOrderParams(ino.system.core);
    ino.system.core.issue_width = 1;
    const double r = cpiOf(runCfg(ino)) / cpiOf(runCfg(ooo));
    EXPECT_GT(r, 1.5); // paper: ~2.6x
}

TEST(Simulation, StricterConsistencyCostsMore)
{
    SimConfig rc = quick(WorkloadKind::Oltp);
    SimConfig sc = rc;
    sc.system.core.model = cpu::ConsistencyModel::SC;
    SimConfig pc = rc;
    pc.system.core.model = cpu::ConsistencyModel::PC;
    const double t_rc = cpiOf(runCfg(rc));
    const double t_pc = cpiOf(runCfg(pc));
    const double t_sc = cpiOf(runCfg(sc));
    EXPECT_LT(t_rc, t_pc);
    EXPECT_LT(t_pc, t_sc);
}

TEST(Simulation, OptimizationsCloseScGap)
{
    SimConfig sc = quick(WorkloadKind::Oltp);
    sc.system.core.model = cpu::ConsistencyModel::SC;
    SimConfig sc_opt = sc;
    sc_opt.system.core.cons.hw_prefetch = true;
    sc_opt.system.core.cons.spec_loads = true;
    SimConfig rc = quick(WorkloadKind::Oltp);

    const double t_sc = cpiOf(runCfg(sc));
    const double t_opt = cpiOf(runCfg(sc_opt));
    const double t_rc = cpiOf(runCfg(rc));
    EXPECT_LT(t_opt, t_sc * 0.9); // big win over plain SC
    EXPECT_LT(t_opt, t_rc * 1.35); // lands near RC
}

TEST(Simulation, StreamBufferCutsInstructionStalls)
{
    SimConfig base = quick(WorkloadKind::Oltp);
    SimConfig sbuf = base;
    sbuf.system.node.stream_buffer_entries = 4;
    const auto r_base = runCfg(base);
    const auto r_sbuf = runCfg(sbuf);
    const double i_base = r_base.breakdown.instr() /
                          static_cast<double>(r_base.instructions);
    const double i_sbuf = r_sbuf.breakdown.instr() /
                          static_cast<double>(r_sbuf.instructions);
    EXPECT_LT(i_sbuf, 0.7 * i_base);
    EXPECT_LT(cpiOf(r_sbuf), cpiOf(r_base));
}

TEST(Simulation, PerfectIcacheRemovesInstrStall)
{
    SimConfig cfg = quick(WorkloadKind::Oltp);
    cfg.system.node.perfect_icache = true;
    cfg.system.node.perfect_itlb = true;
    const auto r = runCfg(cfg);
    EXPECT_LT(r.breakdown.instr(),
              0.02 * r.breakdown.total());
}

TEST(Simulation, InfiniteFusBarelyHelpOltp)
{
    SimConfig base = quick(WorkloadKind::Oltp);
    SimConfig inf = base;
    inf.system.core.fu.infinite = true;
    const double a = cpiOf(runCfg(base));
    const double b = cpiOf(runCfg(inf));
    EXPECT_GT(b, a * 0.93); // less than ~7% gain
}

TEST(Simulation, HintsReduceDirtyReadTime)
{
    SimConfig base = quick(WorkloadKind::Oltp);
    base.system.node.stream_buffer_entries = 4;
    SimConfig hints = base;
    hints.hint_flush = true;
    hints.hint_prefetch = true;
    const auto r_base = runCfg(base);
    const auto r_hint = runCfg(hints);
    const double d_base =
        r_base.breakdown[StallCat::ReadDirty] /
        static_cast<double>(r_base.instructions);
    const double d_hint =
        r_hint.breakdown[StallCat::ReadDirty] /
        static_cast<double>(r_hint.instructions);
    EXPECT_LT(d_hint, d_base);
}

TEST(Simulation, DssIsComputeBound)
{
    // Needs a longer window than quick(): the per-process cold-start
    // instruction misses otherwise dominate the short measurement.
    SimConfig cfg = quick(WorkloadKind::Dss);
    cfg.total_instructions = 900000;
    cfg.warmup_instructions = 400000;
    const auto r = runCfg(cfg);
    EXPECT_GT(r.ipc, 0.8);
    // Negligible sync and instruction stall.
    EXPECT_LT(r.breakdown[StallCat::Sync],
              0.01 * r.breakdown.total());
    EXPECT_LT(r.breakdown.instr(), 0.10 * r.breakdown.total());
}

TEST(Simulation, OltpSlowerThanDss)
{
    const auto oltp = runCfg(quick(WorkloadKind::Oltp));
    const auto dss = runCfg(quick(WorkloadKind::Dss));
    EXPECT_LT(oltp.ipc, dss.ipc);
}

TEST(Simulation, CharacterizationRatesSane)
{
    SimConfig cfg = quick(WorkloadKind::Oltp);
    Simulation s(cfg);
    (void)s.run();
    const auto c = s.characterize();
    EXPECT_GT(c.l1d_miss_rate, 0.02);
    EXPECT_LT(c.l1d_miss_rate, 0.5);
    EXPECT_GT(c.l1i_mpki, 10.0);   // instruction footprint overwhelms L1I
    EXPECT_GT(c.branch_mispredict_rate, 0.02);
    EXPECT_LT(c.branch_mispredict_rate, 0.25);
    EXPECT_GT(c.dirty_misses, 0u);
}

TEST(Simulation, MigratoryDominatesDirtyReads)
{
    SimConfig cfg = quick(WorkloadKind::Oltp);
    Simulation s(cfg);
    (void)s.run();
    const auto &ms = s.system().fabric().migratoryStats();
    ASSERT_GT(ms.dirty_reads, 0u);
    EXPECT_GT(ms.dirtyReadFraction(), 0.5); // paper: 0.79
}

TEST(Simulation, PaperScaleConfigConstructs)
{
    // Construction and description only (running 200M instructions is
    // out of scope for a unit test).
    const SimConfig cfg = makePaperScaleConfig(WorkloadKind::Oltp);
    EXPECT_EQ(cfg.system.node.l2.size_bytes, 8u * 1024 * 1024);
    EXPECT_EQ(cfg.total_instructions, 200'000'000u);
    EXPECT_FALSE(describe(cfg).empty());
}

} // namespace
} // namespace dbsim::core
