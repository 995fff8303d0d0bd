/**
 * @file
 * Checkpoint/restore determinism tests (DESIGN.md §5g).
 *
 * The contract under test: a run that is stopped at an arbitrary cycle,
 * checkpointed, and restored into a *fresh* machine must finish with a
 * final report, machine-state dump, and epoch-hash series identical to
 * an uninterrupted run's -- for both workloads, at 1 and 4 nodes, and
 * whether or not a host deadline is being polled.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/snapshot.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "sim/diagnostics.hpp"
#include "trace/record.hpp"
#include "workload/dss_engine.hpp"

namespace {

using namespace dbsim;
using core::SimConfig;
using core::Simulation;
using core::WorkloadKind;

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

/** Rewrite the FNV-1a trailer of checkpoint @p bytes over everything
 *  before it. */
void
resealTrailer(std::vector<std::uint8_t> &bytes)
{
    const std::size_t body = bytes.size() - 8;
    const std::uint64_t trailer = snap::fnv1a(bytes.data(), body);
    for (int i = 0; i < 8; ++i)
        bytes[body + i] = static_cast<std::uint8_t>(trailer >> (8 * i));
}

/** Restore @p bytes into @p sys; "" if accepted, else the error. */
std::string
restoreError(sim::System &sys, const std::vector<std::uint8_t> &bytes)
{
    try {
        sys.restore(bytes);
        return "";
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
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

            // Interrupted run: stop mid-flight and checkpoint.
            SimConfig stop_cfg = base;
            stop_cfg.system.stop_at_cycle = final_cycle / 2;
            Simulation stopped(stop_cfg);
            stopped.run();
            const std::vector<std::uint8_t> ckpt =
                stopped.system().checkpoint();
            EXPECT_LT(stopped.system().now(), final_cycle);

            // Fresh machine, restored, run to completion.
            Simulation resumed(base);
            resumed.prepare();
            resumed.system().restore(ckpt);
            EXPECT_EQ(resumed.system().now(), stopped.system().now());
            FullRun b;
            b.result = resumed.run();
            b.dump = sim::machineStateDump(resumed.system());
            b.state_hash = resumed.system().stateHash();

            expectSameOutcome(a, b);
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

    std::vector<std::uint8_t> ckpt;
    bool skipped = false;
    for (Cycles stop = final_cycle / 2; stop < final_cycle && !skipped;
         stop += 101) {
        SimConfig stop_cfg = base;
        stop_cfg.system.stop_at_cycle = stop;
        Simulation stopped(stop_cfg);
        stopped.run();
        ckpt = stopped.system().checkpoint();
        const sim::System &sys = stopped.system();
        for (std::uint32_t i = 0; i < sys.numNodes(); ++i)
            skipped |= !sys.core(i).due(sys.now());
    }
    ASSERT_TRUE(skipped) << "no stop cycle found with a core not due";

    Simulation resumed(base);
    resumed.prepare();
    resumed.system().restore(ckpt);
    for (std::uint32_t i = 0; i < resumed.system().numNodes(); ++i)
        EXPECT_TRUE(resumed.system().core(i).due(resumed.system().now()));
    FullRun b;
    b.result = resumed.run();
    b.dump = sim::machineStateDump(resumed.system());
    b.state_hash = resumed.system().stateHash();
    expectSameOutcome(a, b);
}

/** A checkpoint must only restore into a structurally identical
 *  machine: node count, core model, placement, ... all signed. */
TEST(Checkpoint, ConfigSignatureMismatchIsRejected)
{
    SimConfig one = smallConfig(WorkloadKind::Oltp, 1);
    one.system.stop_at_cycle = 500;
    Simulation a(one);
    a.run();

    SimConfig two = smallConfig(WorkloadKind::Oltp, 2);
    Simulation b(two);
    b.prepare();
    EXPECT_NE(restoreError(b.system(), a.system().checkpoint())
                  .find("config signature mismatch"),
              std::string::npos);
}

/** A checkpoint of another format version, with a valid integrity
 *  trailer, is refused by name: the version field is checked before
 *  any machine state is read. */
TEST(Checkpoint, OtherVersionIsRejected)
{
    SimConfig cfg = smallConfig(WorkloadKind::Oltp, 1);
    cfg.system.stop_at_cycle = 500;
    Simulation a(cfg);
    a.run();

    // magic (8 bytes) | u32 version | ... | u64 FNV-1a trailer
    std::vector<std::uint8_t> bytes = a.system().checkpoint();
    ASSERT_GT(bytes.size(), 20u);
    for (int i = 0; i < 4; ++i)
        bytes[8 + i] = static_cast<std::uint8_t>(2u >> (8 * i));
    resealTrailer(bytes);

    Simulation b(cfg);
    b.prepare();
    EXPECT_NE(restoreError(b.system(), bytes)
                  .find("unsupported version 2 (this build reads version 3)"),
              std::string::npos);
}

/** A record whose op byte names no class, in a checkpoint with a
 *  valid integrity trailer, is refused by name: in a trace source's ring
 *  and in a core's window alike. */
TEST(Checkpoint, RecordOpNamingNoClassIsRejected)
{
    // Two DSS processes on one node; the machine is built directly so
    // the test keeps a handle on a trace source.
    const SimConfig cfg = core::makeScaledConfig(WorkloadKind::Dss, 1);
    const workload::DssWorkload dss(cfg.dss);
    const auto build = [&](trace::TraceSource **first) {
        sim::SystemParams params = cfg.system;
        params.stop_at_cycle = 500;
        auto sys = std::make_unique<sim::System>(params);
        for (ProcId p = 0; p < 2; ++p) {
            std::unique_ptr<trace::TraceSource> src = dss.makeProcess(p);
            if (p == 0 && first)
                *first = src.get();
            sys->addProcess(std::move(src), 0);
        }
        return sys;
    };
    trace::TraceSource *source = nullptr;
    const auto live = build(&source);
    live->run(30000, 0);
    const std::vector<std::uint8_t> file = live->checkpoint();
    const auto bytesOf = [](const auto &component) {
        snap::Writer w;
        component.saveState(w);
        return w.bytes();
    };

    // Each component's bytes appear verbatim in the checkpoint.  Patch the op
    // of the first record at @p record_at within them to 238, rewrite
    // the trailer, and restore into a fresh machine.
    const auto expectRejected = [&](const std::vector<std::uint8_t> &part,
                                    std::size_t record_at,
                                    const char *what) {
        const auto at = std::search(file.begin(), file.end(), part.begin(),
                                    part.end());
        ASSERT_NE(at, file.end()) << what;
        std::vector<std::uint8_t> bytes = file;
        // pc, vaddr and extra (three u64) precede the op byte.
        const std::size_t op_at =
            static_cast<std::size_t>(at - file.begin()) + record_at + 24;
        ASSERT_LT(bytes[op_at], trace::kNumOpClasses) << what;
        bytes[op_at] = 238;
        resealTrailer(bytes);
        const auto fresh = build(nullptr);
        EXPECT_NE(restoreError(*fresh, bytes).find("op names no class"),
                  std::string::npos)
            << what;
    };

    // A source saves its ring's record count, then the records.
    const std::vector<std::uint8_t> src_bytes = bytesOf(*source);
    {
        snap::Reader r(src_bytes);
        ASSERT_GT(r.length(28), 0u) << "the ring is empty";
    }
    expectRejected(src_bytes, 8, "source ring record");

    // A core saves its process, its pending record and its fetch state
    // ahead of the window's entry count and entries.
    const std::vector<std::uint8_t> core_bytes = bytesOf(live->core(0));
    snap::Reader r(core_bytes);
    r.u32();
    if (r.boolean())
        trace::loadRecord(r);
    for (int i = 0; i < 3; ++i)
        r.u64();
    r.boolean();
    r.u64();
    r.u64();
    r.boolean();
    r.u64();
    r.boolean();
    ASSERT_GT(r.length(28), 0u) << "the window is empty";
    expectRejected(core_bytes, core_bytes.size() - r.remaining(),
                   "window record");
}

/** A corrupted checkpoint fails the integrity trailer, and bytes
 *  shorter than the header and trailer fail before any is read. */
TEST(Checkpoint, CorruptFileIsRejected)
{
    SimConfig cfg = smallConfig(WorkloadKind::Dss, 1);
    cfg.system.stop_at_cycle = 500;
    Simulation a(cfg);
    a.run();
    std::vector<std::uint8_t> bytes = a.system().checkpoint();
    ASSERT_GT(bytes.size(), 64u);

    Simulation b(smallConfig(WorkloadKind::Dss, 1));
    b.prepare();

    // Flip one byte in the middle.
    bytes[bytes.size() / 2] ^= 0x5a;
    EXPECT_NE(restoreError(b.system(), bytes).find("integrity hash mismatch"),
              std::string::npos);

    // magic (8) + version (4) + signature (8) + trailer (8) is the least.
    bytes.resize(27);
    EXPECT_NE(restoreError(b.system(), bytes).find("too short"),
              std::string::npos);
}

/** The run loop polls an armed host deadline every 4096 iterations;
 *  the poll only reads the host clock, so a run under a generous
 *  deadline is byte-identical to an unpolled one, and an expired
 *  deadline unwinds with a SimTimeoutError carrying the machine dump. */
TEST(Checkpoint, DeadlinePollStrideIsObservationOnly)
{
    const SimConfig base = smallConfig(WorkloadKind::Oltp, 2);
    const FullRun unpolled = runFull(base);
    FullRun polled;
    {
        sim::HostDeadlineScope deadline(3600.0);
        polled = runFull(base);
    }
    expectSameOutcome(unpolled, polled);

    sim::HostDeadlineScope expired(1e-9);
    try {
        runFull(base);
        FAIL() << "expected SimTimeoutError";
    } catch (const SimTimeoutError &e) {
        EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
        EXPECT_FALSE(e.dump().empty());
    }
}

} // namespace
