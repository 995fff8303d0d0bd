/**
 * @file
 * Golden digests of the trace streams and of mid-run checkpoint bytes.
 *
 * Optimizations of the trace generators (RNG inlining, TraceBuilder's
 * direct buffer append) and of the run loop (the completion wheel, lazy
 * stall accounting, the TLB-carried translation) must leave every
 * simulated byte as it was.  These tests pin that down against constants
 * recorded before those changes:
 *
 *  - TraceStream: an FNV-1a digest of the first 1M records of the first
 *    and the last process of each workload stream (OLTP without hints,
 *    OLTP with prefetch and flush hints on the hot locks, DSS).  Any
 *    change to the RNG draw order changes it.
 *
 *  - CheckpointBytes: OLTP and DSS on 1 and 4 nodes run to a fixed
 *    stop_at_cycle past warm-up, with a short scheduling quantum; one
 *    digest covers the machine's serialized state there and every epoch
 *    hash taken on the way, a second is the FNV-1a of the whole
 *    checkpoint() (magic, version, config signature, state, epoch
 *    bookkeeping and trailer).  A missed stall-accounting settle point
 *    changes a breakdown slice or run_cycles, and so the bytes.
 *
 * A deliberate behaviour change regenerates the constants, and so does
 * a change of the checkpoint layout, which bumps the checkpoint version
 * (the CheckpointBytes constants are those of version 3): the failure
 * message prints each new digest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "workload/dss_engine.hpp"
#include "workload/hints.hpp"
#include "workload/oltp_engine.hpp"

namespace dbsim {
namespace {

using core::SimConfig;
using core::WorkloadKind;

/** Chains a 64-bit value into an FNV-1a digest, byte by byte. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return snap::fnv1a(b, sizeof(b), h);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------- trace streams

enum class Stream : std::uint8_t { Oltp, OltpHints, Dss };

constexpr std::uint64_t kStreamRecords = 1'000'000;

/** A process's trace source, built as core::Simulation builds it. */
std::unique_ptr<trace::TraceSource>
makeSource(Stream s, const SimConfig &cfg, ProcId proc,
           std::unique_ptr<workload::OltpWorkload> &oltp,
           std::unique_ptr<workload::DssWorkload> &dss)
{
    if (s == Stream::Dss) {
        dss = std::make_unique<workload::DssWorkload>(cfg.dss);
        return dss->makeProcess(proc);
    }
    oltp = std::make_unique<workload::OltpWorkload>(cfg.oltp);
    std::unique_ptr<trace::TraceSource> src = oltp->makeProcess(proc);
    if (s == Stream::OltpHints) {
        workload::HintOptions opts;
        opts.prefetch = true;
        opts.flush = true;
        opts.line_bytes = cfg.system.node.l2.line_bytes;
        for (const Addr a : oltp->hotLatches())
            opts.hot_locks.insert(a);
        src = std::make_unique<workload::HintInserter>(std::move(src),
                                                       std::move(opts));
    }
    return src;
}

/** Digest of the first kStreamRecords records (fewer if the stream
 *  ends first; the count is part of the digest). */
std::uint64_t
streamDigest(Stream s, bool last_process)
{
    const SimConfig cfg = core::makeScaledConfig(
        s == Stream::Dss ? WorkloadKind::Dss : WorkloadKind::Oltp, 4);
    const std::uint32_t procs =
        s == Stream::Dss ? cfg.dss.num_procs : cfg.oltp.num_procs;
    std::unique_ptr<workload::OltpWorkload> oltp;
    std::unique_ptr<workload::DssWorkload> dss;
    const std::unique_ptr<trace::TraceSource> src =
        makeSource(s, cfg, last_process ? procs - 1 : 0, oltp, dss);

    std::uint64_t h = snap::kFnvOffset;
    std::uint64_t n = 0;
    trace::TraceRecord r;
    while (n < kStreamRecords && src->next(r)) {
        h = mix(h, r.pc);
        h = mix(h, r.vaddr);
        h = mix(h, r.extra);
        h = mix(h, static_cast<std::uint64_t>(r.op) |
                       std::uint64_t{r.dep1} << 8 |
                       std::uint64_t{r.dep2} << 16 |
                       std::uint64_t{r.taken} << 24);
        ++n;
    }
    return mix(h, n);
}

TEST(GoldenTraceStream, OltpFirstAndLastProcess)
{
    EXPECT_EQ(hex(streamDigest(Stream::Oltp, false)),
              "0xef905bc3b21628d6");
    EXPECT_EQ(hex(streamDigest(Stream::Oltp, true)),
              "0xe0f951b2890e8d34");
}

TEST(GoldenTraceStream, OltpWithHotLockHints)
{
    EXPECT_EQ(hex(streamDigest(Stream::OltpHints, false)),
              "0x150280dcd66e96ab");
    EXPECT_EQ(hex(streamDigest(Stream::OltpHints, true)),
              "0xe298af5465a7b8b5");
}

TEST(GoldenTraceStream, DssFirstAndLastProcess)
{
    EXPECT_EQ(hex(streamDigest(Stream::Dss, false)),
              "0x73466ad58e142d6b");
    EXPECT_EQ(hex(streamDigest(Stream::Dss, true)),
              "0xa45251261c843f64");
}

// ---------------------------------------------------- checkpoint bytes

constexpr Cycles kStopCycle = 150'001;

struct CheckpointDigests
{
    std::string state;      ///< stateHash() mixed with the epoch hashes
    std::string checkpoint; ///< FNV-1a of checkpoint()
};

/**
 * Run @p kind on @p nodes nodes to kStopCycle and digest the machine
 * state there, together with the epoch hashes taken on the way, and
 * the checkpoint taken there.
 */
CheckpointDigests
checkpointDigests(WorkloadKind kind, std::uint32_t nodes)
{
    SimConfig cfg = core::makeScaledConfig(kind, nodes);
    cfg.total_instructions = 2'000'000;
    cfg.warmup_instructions = 10'000;
    cfg.system.stop_at_cycle = kStopCycle;
    cfg.system.state_hash_interval = 7'919;
    // Preempt often, so that some preemptions land on stalled cores.
    cfg.system.sched_quantum = 20'000;
    // The checker's state is serialized: fix it on, whatever
    // DBSIM_CHECK says.
    cfg.system.check_coherence = true;

    core::Simulation sim(cfg);
    const sim::RunResult r = sim.run();
    const sim::System &sys = sim.system();
    // The stop lands past warm-up, with the run still in flight.
    EXPECT_GE(sys.now(), kStopCycle);
    EXPECT_LT(r.cycles, sys.now()) << "warm-up did not end before the stop";
    EXPECT_LT(r.instructions + 10'000, cfg.total_instructions);

    std::uint64_t h = sys.stateHash();
    for (const sim::EpochHash &e : r.epoch_hashes) {
        h = mix(h, e.epoch);
        h = mix(h, e.hash);
    }
    const std::vector<std::uint8_t> bytes = sys.checkpoint();
    return {hex(h), hex(snap::fnv1a(bytes.data(), bytes.size()))};
}

TEST(GoldenCheckpointBytes, OltpOneAndFourNodes)
{
    const CheckpointDigests one = checkpointDigests(WorkloadKind::Oltp, 1);
    EXPECT_EQ(one.state, "0x5cd02706fc069b49");
    EXPECT_EQ(one.checkpoint, "0xf89f82e0f2c465a2");
    const CheckpointDigests four = checkpointDigests(WorkloadKind::Oltp, 4);
    EXPECT_EQ(four.state, "0x3fea6dc6271b41c3");
    EXPECT_EQ(four.checkpoint, "0xf3585e1008823487");
}

TEST(GoldenCheckpointBytes, DssOneAndFourNodes)
{
    const CheckpointDigests one = checkpointDigests(WorkloadKind::Dss, 1);
    EXPECT_EQ(one.state, "0x33194c2b382decc0");
    EXPECT_EQ(one.checkpoint, "0x2c753b48d239b2ef");
    const CheckpointDigests four = checkpointDigests(WorkloadKind::Dss, 4);
    EXPECT_EQ(four.state, "0x0fb9821afea0e45e");
    EXPECT_EQ(four.checkpoint, "0x45fb57b6d3c479bf");
}

} // namespace
} // namespace dbsim
