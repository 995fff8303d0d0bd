/**
 * @file
 * Checkpoint/restore determinism tests (DESIGN.md §5g).
 *
 * The contract under test: a run that is stopped at an arbitrary cycle,
 * checkpointed, and restored into a *fresh* machine must finish with a
 * final report, machine-state dump, and epoch-hash series identical to
 * an uninterrupted run's -- for both workloads, at 1 and 4 nodes, at
 * any checkpoint interval, and regardless of the host's deadline poll
 * stride.  (The cross-process version of the same property -- kill -9 a
 * sweep, restart with --resume --restore, compare reports -- runs in
 * the CI checkpoint job via tools/compare_reports.py.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "core/sweep.hpp"
#include "sim/diagnostics.hpp"

namespace {

using namespace dbsim;
using core::SimConfig;
using core::Simulation;
using core::WorkloadKind;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

SimConfig
smallConfig(WorkloadKind kind, std::uint32_t nodes)
{
    SimConfig cfg = core::makeScaledConfig(kind, nodes);
    cfg.total_instructions = 30000;
    cfg.warmup_instructions = 6000;
    cfg.system.state_hash_interval = 2500;
    return cfg;
}

/** Run @p cfg start-to-finish; returns the result, final dump and
 *  final state hash. */
struct FullRun
{
    sim::RunResult result;
    std::string dump;
    std::uint64_t state_hash = 0;
};

FullRun
runFull(const SimConfig &cfg)
{
    Simulation simulation(cfg);
    FullRun out;
    out.result = simulation.run();
    out.dump = sim::machineStateDump(simulation.system());
    out.state_hash = simulation.system().stateHash();
    return out;
}

void
expectSameOutcome(const FullRun &a, const FullRun &b)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_DOUBLE_EQ(a.result.ipc, b.result.ipc);
    ASSERT_EQ(a.result.epoch_hashes.size(), b.result.epoch_hashes.size());
    for (std::size_t i = 0; i < a.result.epoch_hashes.size(); ++i) {
        EXPECT_EQ(a.result.epoch_hashes[i].epoch,
                  b.result.epoch_hashes[i].epoch);
        EXPECT_EQ(a.result.epoch_hashes[i].hash,
                  b.result.epoch_hashes[i].hash);
    }
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.dump, b.dump) << "machine-state dumps differ";
}

TEST(Snapshot, WriterReaderRoundTrip)
{
    snap::Writer w;
    w.u8(7);
    w.u16(65535);
    w.u32(123456u);
    w.u64(0x123456789abcdef0ull);
    w.i32(-5);
    w.i64(-1234567890123ll);
    w.boolean(true);
    w.boolean(false);
    w.f64(3.25);
    w.f64(-0.0);
    w.str("checkpoint");
    w.str("");

    snap::Reader r(w.bytes().data(), w.size());
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u16(), 65535u);
    EXPECT_EQ(r.u32(), 123456u);
    EXPECT_EQ(r.u64(), 0x123456789abcdef0ull);
    EXPECT_EQ(r.i32(), -5);
    EXPECT_EQ(r.i64(), -1234567890123ll);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_DOUBLE_EQ(r.f64(), 3.25);
    EXPECT_DOUBLE_EQ(r.f64(), -0.0);
    EXPECT_EQ(r.str(), "checkpoint");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Snapshot, TruncatedStreamThrows)
{
    snap::Writer w;
    w.u64(42);
    snap::Reader r(w.bytes().data(), 3);
    EXPECT_THROW(r.u64(), snap::SnapshotError);
}

TEST(Snapshot, ImplausibleContainerLengthThrows)
{
    snap::Writer w;
    w.u64(1ull << 40); // a "length" far beyond the stream's bytes
    snap::Reader r(w.bytes().data(), w.size());
    EXPECT_THROW(r.length(8), snap::SnapshotError);
}

TEST(Snapshot, IdenticalStatesHashIdentically)
{
    const SimConfig cfg = smallConfig(WorkloadKind::Oltp, 1);
    Simulation a(cfg), b(cfg);
    a.prepare();
    b.prepare();
    EXPECT_EQ(a.system().stateHash(), b.system().stateHash());
    EXPECT_EQ(a.system().configSignature(), b.system().configSignature());
}

/**
 * The core restore-determinism matrix: OLTP and DSS at 1 and 4 nodes.
 * Save at a mid-run cycle, restore into a fresh machine, run to the
 * end; everything observable must match the uninterrupted run.
 */
TEST(Checkpoint, RestoredRunMatchesUninterrupted)
{
    int case_id = 0;
    for (const WorkloadKind kind :
         {WorkloadKind::Oltp, WorkloadKind::Dss}) {
        for (const std::uint32_t nodes : {1u, 4u}) {
            SCOPED_TRACE(std::string(core::workloadName(kind)) + "/" +
                         std::to_string(nodes) + " nodes");
            const SimConfig base = smallConfig(kind, nodes);

            // Uninterrupted reference run (also tells us a valid
            // mid-run stop cycle).
            Simulation ref(base);
            FullRun a;
            a.result = ref.run();
            a.dump = sim::machineStateDump(ref.system());
            a.state_hash = ref.system().stateHash();
            const Cycles final_cycle = ref.system().now();
            ASSERT_GT(final_cycle, 4u);

            const std::string ckpt = tmpPath(
                "dbsim_ckpt_" + std::to_string(case_id++) + ".ckpt");
            std::remove(ckpt.c_str());

            // Interrupted run: stop mid-flight and checkpoint.
            SimConfig stop_cfg = base;
            stop_cfg.system.stop_at_cycle = final_cycle / 2;
            stop_cfg.system.checkpoint_path = ckpt;
            Simulation stopped(stop_cfg);
            stopped.run();
            EXPECT_LT(stopped.system().now(), final_cycle);

            // Fresh machine, restored, run to completion.
            Simulation resumed(base);
            ASSERT_TRUE(resumed.restoreFromCheckpoint(ckpt));
            EXPECT_EQ(resumed.system().now(), stopped.system().now());
            FullRun b;
            b.result = resumed.run();
            b.dump = sim::machineStateDump(resumed.system());
            b.state_hash = resumed.system().stateHash();

            expectSameOutcome(a, b);
            std::remove(ckpt.c_str());
        }
    }
}

/**
 * The cores' wake state (DESIGN.md §5a) is not checkpointed: a restored
 * core is simply due.  Stop a 4-node OLTP run at an iteration where the
 * run loop would skip some core; the restored run ticks that core
 * instead, and must still finish exactly as the uninterrupted run does.
 */
TEST(Checkpoint, RestoreWhileACoreIsSkippedMatchesUninterrupted)
{
    const SimConfig base = smallConfig(WorkloadKind::Oltp, 4);
    Simulation ref(base);
    FullRun a;
    a.result = ref.run();
    a.dump = sim::machineStateDump(ref.system());
    a.state_hash = ref.system().stateHash();
    const Cycles final_cycle = ref.system().now();

    const std::string ckpt = tmpPath("dbsim_ckpt_skipped_core.ckpt");
    bool skipped = false;
    for (Cycles stop = final_cycle / 2; stop < final_cycle && !skipped;
         stop += 101) {
        std::remove(ckpt.c_str());
        SimConfig stop_cfg = base;
        stop_cfg.system.stop_at_cycle = stop;
        stop_cfg.system.checkpoint_path = ckpt;
        Simulation stopped(stop_cfg);
        stopped.run();
        const sim::System &sys = stopped.system();
        for (std::uint32_t i = 0; i < sys.numNodes(); ++i)
            skipped |= !sys.core(i).due(sys.now());
    }
    ASSERT_TRUE(skipped) << "no stop cycle found with a core not due";

    Simulation resumed(base);
    ASSERT_TRUE(resumed.restoreFromCheckpoint(ckpt));
    for (std::uint32_t i = 0; i < resumed.system().numNodes(); ++i)
        EXPECT_TRUE(resumed.system().core(i).due(resumed.system().now()));
    FullRun b;
    b.result = resumed.run();
    b.dump = sim::machineStateDump(resumed.system());
    b.state_hash = resumed.system().stateHash();
    expectSameOutcome(a, b);
    std::remove(ckpt.c_str());
}

/** Periodic checkpointing must be observation-only: the run's results
 *  are bit-identical with and without it, at any interval, and the
 *  leftover checkpoint restores to the same final state. */
TEST(Checkpoint, PeriodicCheckpointingIsObservationOnly)
{
    const SimConfig base = smallConfig(WorkloadKind::Oltp, 2);
    const FullRun plain = runFull(base);

    for (const Cycles interval : {1500ull, 7000ull}) {
        SCOPED_TRACE("interval " + std::to_string(interval));
        const std::string ckpt =
            tmpPath("dbsim_ckpt_periodic_" + std::to_string(interval) +
                    ".ckpt");
        std::remove(ckpt.c_str());

        SimConfig ckpt_cfg = base;
        ckpt_cfg.system.checkpoint_path = ckpt;
        ckpt_cfg.system.checkpoint_interval = interval;
        const FullRun with_ckpt = runFull(ckpt_cfg);
        expectSameOutcome(plain, with_ckpt);

        // The last periodic checkpoint restores and finishes to the
        // same final state -- even under the *other* interval.
        const std::string resume_ckpt =
            tmpPath("dbsim_ckpt_periodic_resume_" + std::to_string(interval) +
                    ".ckpt");
        SimConfig resume_cfg = base;
        resume_cfg.system.checkpoint_path = resume_ckpt;
        resume_cfg.system.checkpoint_interval = interval * 2;
        Simulation resumed(resume_cfg);
        ASSERT_TRUE(resumed.restoreFromCheckpoint(ckpt));
        FullRun b;
        b.result = resumed.run();
        b.dump = sim::machineStateDump(resumed.system());
        b.state_hash = resumed.system().stateHash();
        EXPECT_EQ(plain.state_hash, b.state_hash);
        EXPECT_EQ(plain.dump, b.dump);
        std::remove(ckpt.c_str());
        std::remove(resume_ckpt.c_str());
    }
}

/** A checkpoint must only restore into a structurally identical
 *  machine: node count, core model, placement, ... all signed. */
TEST(Checkpoint, ConfigSignatureMismatchIsRejected)
{
    const std::string ckpt = tmpPath("dbsim_ckpt_mismatch.ckpt");
    std::remove(ckpt.c_str());

    SimConfig one = smallConfig(WorkloadKind::Oltp, 1);
    one.system.stop_at_cycle = 500;
    one.system.checkpoint_path = ckpt;
    Simulation a(one);
    a.run();

    SimConfig two = smallConfig(WorkloadKind::Oltp, 2);
    Simulation b(two);
    b.prepare();
    EXPECT_THROW(b.system().restoreCheckpoint(ckpt),
                 snap::SnapshotError);
    // The facade degrades gracefully: warn and start fresh.
    EXPECT_FALSE(b.restoreFromCheckpoint(ckpt));
    std::remove(ckpt.c_str());
}

/** A torn or corrupted checkpoint file fails the integrity trailer and
 *  is ignored (the item starts fresh rather than crashing). */
TEST(Checkpoint, CorruptFileIsRejected)
{
    const std::string ckpt = tmpPath("dbsim_ckpt_corrupt.ckpt");
    std::remove(ckpt.c_str());

    SimConfig cfg = smallConfig(WorkloadKind::Dss, 1);
    cfg.system.stop_at_cycle = 500;
    cfg.system.checkpoint_path = ckpt;
    Simulation a(cfg);
    a.run();

    // Flip one byte in the middle of the file.
    {
        std::fstream f(ckpt, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        ASSERT_GT(size, 64);
        f.seekp(size / 2);
        char byte = 0;
        f.seekg(size / 2);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(size / 2);
        f.write(&byte, 1);
    }

    SimConfig clean = smallConfig(WorkloadKind::Dss, 1);
    Simulation b(clean);
    EXPECT_FALSE(b.restoreFromCheckpoint(ckpt));
    std::remove(ckpt.c_str());

    // And a missing file is silently "no checkpoint yet".
    EXPECT_FALSE(b.restoreFromCheckpoint(ckpt + ".does-not-exist"));
}

/** DBSIM_DEADLINE_STRIDE only changes how often the *host* clock and
 *  signal flag are polled; a much tighter stride must leave every
 *  simulated byte unchanged. */
TEST(Checkpoint, DeadlinePollStrideIsObservationOnly)
{
    const SimConfig base = smallConfig(WorkloadKind::Oltp, 2);
    const FullRun loose = runFull(base);

    ::setenv("DBSIM_DEADLINE_STRIDE", "64", 1);
    EXPECT_EQ(sim::deadlinePollStride(), 64u);
    const FullRun tight = runFull(base);
    ::unsetenv("DBSIM_DEADLINE_STRIDE");
    EXPECT_EQ(sim::deadlinePollStride(), 4096u);

    expectSameOutcome(loose, tight);
}

// ---------------------------------------------------------------------
// Sweep-layer integration
// ---------------------------------------------------------------------

std::vector<core::SweepItem>
sweepItems()
{
    std::vector<core::SweepItem> items;
    SimConfig oltp = smallConfig(WorkloadKind::Oltp, 1);
    oltp.system.state_hash_interval = 0; // the runner forwards its own
    SimConfig dss = smallConfig(WorkloadKind::Dss, 1);
    dss.system.state_hash_interval = 0;
    items.push_back({"oltp-1", oltp});
    items.push_back({"dss-1", dss});
    return items;
}

void
expectSameSweepOutcome(const core::SweepOutcome &a,
                       const core::SweepOutcome &b)
{
    ASSERT_EQ(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < a.items.size(); ++i) {
        SCOPED_TRACE("item " + std::to_string(i));
        ASSERT_TRUE(a.items[i].ok());
        ASSERT_TRUE(b.items[i].ok());
        const core::SweepResult &ra = a.items[i].result;
        const core::SweepResult &rb = b.items[i].result;
        EXPECT_EQ(ra.run.cycles, rb.run.cycles);
        EXPECT_EQ(ra.run.instructions, rb.run.instructions);
        EXPECT_DOUBLE_EQ(ra.run.ipc, rb.run.ipc);
        ASSERT_EQ(ra.run.epoch_hashes.size(), rb.run.epoch_hashes.size());
        for (std::size_t k = 0; k < ra.run.epoch_hashes.size(); ++k)
            EXPECT_EQ(ra.run.epoch_hashes[k].hash,
                      rb.run.epoch_hashes[k].hash);
        EXPECT_EQ(ra.fabric.totalMisses(), rb.fabric.totalMisses());
        EXPECT_EQ(ra.context_switches, rb.context_switches);
    }
}

TEST(SweepCheckpoint, CheckpointedSweepMatchesPlainAndRestores)
{
    const std::string dir = tmpPath("dbsim_sweep_ckpt");
    const std::vector<core::SweepItem> items = sweepItems();

    core::SweepRunner plain(1);
    plain.setStateHashInterval(2500);
    const core::SweepOutcome base = plain.runChecked(items);
    ASSERT_TRUE(base.allOk());
    for (const auto &o : base.items)
        EXPECT_FALSE(o.result.run.epoch_hashes.empty())
            << "state-hash interval was forwarded to the item config";

    // Same sweep with periodic checkpointing: observation-only.
    core::SweepRunner ckpt(1);
    ckpt.setStateHashInterval(2500);
    ckpt.setCheckpointDir(dir);
    ckpt.setCheckpointInterval(1500);
    const core::SweepOutcome with_ckpt = ckpt.runChecked(items);
    ASSERT_TRUE(with_ckpt.allOk());
    expectSameSweepOutcome(base, with_ckpt);

    // The per-item checkpoints exist where checkpointPathFor says.
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::ifstream f(ckpt.checkpointPathFor(i), std::ios::binary);
        EXPECT_TRUE(f.good()) << "missing checkpoint for item " << i;
    }

    // --restore: a re-run continues each item from its mid-run
    // checkpoint and still converges to the identical final results.
    core::SweepRunner restore(1);
    restore.setStateHashInterval(2500);
    restore.setCheckpointDir(dir);
    restore.setCheckpointInterval(1500);
    restore.setRestore(true);
    const core::SweepOutcome resumed = restore.runChecked(items);
    ASSERT_TRUE(resumed.allOk());
    expectSameSweepOutcome(base, resumed);

    for (std::size_t i = 0; i < items.size(); ++i)
        std::remove(restore.checkpointPathFor(i).c_str());
}

TEST(SweepCheckpoint, ReportCarriesEpochHashesAndCheckpointPaths)
{
    const std::vector<core::SweepItem> items = sweepItems();
    core::SweepRunner runner(1);
    runner.setStateHashInterval(2500);
    const core::SweepOutcome outcome = runner.runChecked(items);
    ASSERT_TRUE(outcome.allOk());

    const std::string json =
        core::renderSweepEntryJson("sec", outcome.items[0]);
    EXPECT_NE(json.find("\"epoch_hashes\""), std::string::npos);
    EXPECT_NE(json.find("0x"), std::string::npos)
        << "epoch hashes render as hex strings";

    // A failure whose item has a checkpoint on disk records its path.
    core::SweepItemOutcome failed;
    failed.status = core::SweepItemOutcome::Status::Failed;
    failed.index = 3;
    failed.failure.label = "x";
    failed.failure.index = 3;
    failed.failure.kind = core::FailureKind::Timeout;
    failed.failure.what = "deadline";
    failed.failure.checkpoint_path = "/tmp/ckpt/item-3.ckpt";
    const std::string failed_json =
        core::renderSweepEntryJson("sec", failed);
    EXPECT_NE(failed_json.find("\"checkpoint\""), std::string::npos);
    EXPECT_NE(failed_json.find("item-3.ckpt"), std::string::npos);
    EXPECT_NE(failed_json.find("\"timeout\""), std::string::npos);
}

/** FailurePolicy retry:N x timeout honesty (no checkpoint dir): a
 *  timed-out item must not burn retries that would deterministically
 *  time out again from scratch; attempts stays honest at 1. */
TEST(SweepCheckpoint, TimeoutWithoutCheckpointDirIsNotRetried)
{
    std::vector<core::SweepItem> items = sweepItems();
    items.resize(1);

    core::FaultPlan plan;
    core::FaultSpec delay;
    delay.index = 0;
    delay.attempt = 1;
    delay.kind = core::FaultSpec::Kind::Delay;
    delay.delay_seconds = 0.5;
    plan.add(delay);

    core::SweepRunner runner(1);
    runner.setFailurePolicy(core::FailurePolicy::retry(3));
    runner.setItemTimeout(0.05);
    runner.setFaultPlan(&plan);
    const core::SweepOutcome outcome = runner.runChecked(items);
    ASSERT_EQ(outcome.items.size(), 1u);
    ASSERT_FALSE(outcome.items[0].ok());
    EXPECT_EQ(outcome.items[0].failure.kind, core::FailureKind::Timeout);
    EXPECT_EQ(outcome.items[0].attempts, 1u)
        << "without a checkpoint dir, a timeout retry would start from "
           "scratch and time out again; attempts must stay honest";
}

} // namespace
