/**
 * @file
 * Tests for the parallel sweep runner and the JSON reporting layer.
 *
 * The load-bearing property is the determinism contract (DESIGN.md):
 * simulated statistics of a sweep are a pure function of the
 * configuration list, so running the same list with 1 job and with 8
 * jobs must produce bitwise-identical results.  Also covered: input
 * ordering, deterministic (lowest-index) error propagation of
 * exceptions and panics (DESIGN.md §5e), job-count resolution, the
 * bench harness (flags, exit codes), and the JSON writer's escaping and
 * structure checking.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/errors.hpp"
#include "common/log.hpp"
#include "core/cli_guard.hpp"
#include "core/json_writer.hpp"
#include "core/sweep.hpp"
#include "cpu/inorder_core.hpp"

namespace dbsim::core {
namespace {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

TEST(JsonEscape, PassesPlainAsciiThrough)
{
    EXPECT_EQ(jsonEscape("fig2_oltp_ilp"), "fig2_oltp_ilp");
}

TEST(JsonEscape, EscapesQuotesAndBackslash)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesCommonControlCharacters)
{
    EXPECT_EQ(jsonEscape("line1\nline2\ttab\rcr"),
              "line1\\nline2\\ttab\\rcr");
}

TEST(JsonEscape, EscapesRareControlCharactersAsUnicode)
{
    EXPECT_EQ(jsonEscape(std::string("a\x01")), "a\\u0001");
    EXPECT_EQ(jsonEscape(std::string("b\x1f")), "b\\u001f");
}

TEST(JsonEscape, PassesUtf8BytesThrough)
{
    // Multi-byte sequences have the high bit set and must not be
    // mistaken for control characters.
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, WritesCompactDocument)
{
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    w.beginObject()
        .kv("name", "x")
        .kv("n", std::uint64_t{42})
        .kv("ok", true)
        .key("xs")
        .beginArray()
        .value(1.5)
        .valueNull()
        .endArray()
        .endObject();
    EXPECT_TRUE(w.done());
    EXPECT_EQ(os.str(), "{\"name\":\"x\",\"n\":42,\"ok\":true,"
                        "\"xs\":[1.5,null]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .endArray();
    EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, IdenticalInputsAreByteIdentical)
{
    auto emit = [] {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject().kv("pi", 3.141592653589793).endObject();
        return os.str();
    };
    EXPECT_EQ(emit(), emit());
}

TEST(JsonWriter, RejectsStructuralMisuse)
{
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        EXPECT_THROW(w.value("no key"), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginArray();
        EXPECT_THROW(w.key("not an object"), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        EXPECT_THROW(w.endArray(), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject().endObject();
        EXPECT_THROW(w.value(std::uint64_t{1}), std::logic_error);
    }
}

// ---------------------------------------------------------------------
// runSweep
// ---------------------------------------------------------------------

SimConfig
quick(WorkloadKind kind, std::uint32_t nodes = 2)
{
    SimConfig cfg = makeScaledConfig(kind, nodes);
    cfg.total_instructions = 40000;
    cfg.warmup_instructions = 8000;
    return cfg;
}

/** Twelve small configurations spanning both workloads and the knobs
 *  the figure benches sweep. */
std::vector<SweepItem>
determinismItems()
{
    std::vector<SweepItem> items;
    for (const auto kind : {WorkloadKind::Oltp, WorkloadKind::Dss}) {
        SimConfig base = quick(kind);
        items.push_back({"base", base});

        SimConfig inorder = base;
        inorder.system.core = cpu::makeInOrderParams(inorder.system.core);
        items.push_back({"inorder", inorder});

        SimConfig window = base;
        window.system.core.window_size = 32;
        items.push_back({"window-32", window});

        SimConfig sc = base;
        sc.system.core.model = cpu::ConsistencyModel::SC;
        items.push_back({"sc", sc});

        SimConfig mshr2 = base;
        mshr2.system.node.l1d.mshrs = 2;
        mshr2.system.node.l2.mshrs = 2;
        items.push_back({"mshr-2", mshr2});

        SimConfig sbuf = base;
        sbuf.system.node.stream_buffer_entries = 4;
        items.push_back({"sbuf-4", sbuf});
    }
    return items;
}

void
expectOccupancyEq(const stats::OccupancyTracker &a,
                  const stats::OccupancyTracker &b)
{
    EXPECT_EQ(a.busyTime(), b.busyTime());
    for (std::uint32_t n = 1; n <= 8; ++n)
        EXPECT_EQ(a.fracAtLeast(n), b.fracAtLeast(n)) << "n=" << n;
}

/** Every simulated statistic of two results, field for field. */
void
expectSameResult(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.instructions, b.run.instructions);
    EXPECT_EQ(a.run.ipc, b.run.ipc);
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
        EXPECT_EQ(a.run.breakdown[static_cast<StallCat>(c)],
                  b.run.breakdown[static_cast<StallCat>(c)])
            << stallCatName(static_cast<StallCat>(c));
    }

    EXPECT_EQ(a.ch.l1i_miss_per_fetch, b.ch.l1i_miss_per_fetch);
    EXPECT_EQ(a.ch.l1i_mpki, b.ch.l1i_mpki);
    EXPECT_EQ(a.ch.l1d_miss_rate, b.ch.l1d_miss_rate);
    EXPECT_EQ(a.ch.l2_miss_rate, b.ch.l2_miss_rate);
    EXPECT_EQ(a.ch.branch_mispredict_rate, b.ch.branch_mispredict_rate);
    EXPECT_EQ(a.ch.itlb_miss_rate, b.ch.itlb_miss_rate);
    EXPECT_EQ(a.ch.dtlb_miss_rate, b.ch.dtlb_miss_rate);
    EXPECT_EQ(a.ch.total_l2_misses, b.ch.total_l2_misses);
    EXPECT_EQ(a.ch.dirty_misses, b.ch.dirty_misses);

    EXPECT_EQ(a.node0.l1i_fetches, b.node0.l1i_fetches);
    EXPECT_EQ(a.node0.l1i_misses, b.node0.l1i_misses);
    EXPECT_EQ(a.node0.l1i_sbuf_hits, b.node0.l1i_sbuf_hits);
    EXPECT_EQ(a.node0.l1d_accesses, b.node0.l1d_accesses);
    EXPECT_EQ(a.node0.l1d_misses, b.node0.l1d_misses);
    EXPECT_EQ(a.node0.l2_accesses, b.node0.l2_accesses);
    EXPECT_EQ(a.node0.l2_misses, b.node0.l2_misses);

    EXPECT_EQ(a.fabric.invalidations_sent, b.fabric.invalidations_sent);
    EXPECT_EQ(a.fabric.writebacks, b.fabric.writebacks);
    EXPECT_EQ(a.fabric.totalMisses(), b.fabric.totalMisses());
    EXPECT_EQ(a.fabric.dirtyMisses(), b.fabric.dirtyMisses());
    EXPECT_EQ(a.context_switches, b.context_switches);

    expectOccupancyEq(a.l1d_occ, b.l1d_occ);
    expectOccupancyEq(a.l1d_read_occ, b.l1d_read_occ);
    expectOccupancyEq(a.l2_occ, b.l2_occ);
    expectOccupancyEq(a.l2_read_occ, b.l2_read_occ);

    EXPECT_EQ(a.migratory.shared_writes, b.migratory.shared_writes);
    EXPECT_EQ(a.migratory.migratory_writes, b.migratory.migratory_writes);
    EXPECT_EQ(a.migratory.dirty_reads, b.migratory.dirty_reads);
    EXPECT_EQ(a.migratory.write_fraction, b.migratory.write_fraction);
    EXPECT_EQ(a.migratory.line_concentration_70,
              b.migratory.line_concentration_70);
}

TEST(SweepRunner, ParallelRunIsBitwiseDeterministic)
{
    const auto items = determinismItems();
    ASSERT_GE(items.size(), 12u);

    const auto a = runSweep(items, 1);
    const auto b = runSweep(items, 8);
    ASSERT_EQ(a.size(), items.size());
    ASSERT_EQ(b.size(), items.size());

    for (std::size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE("item " + std::to_string(i) + " (" + a[i].label +
                     ")");
        // Results come back in input order under both job counts.
        EXPECT_EQ(a[i].label, items[i].label);
        EXPECT_EQ(b[i].label, items[i].label);
        expectSameResult(a[i], b[i]);
    }
}

TEST(SweepRunner, LowestIndexErrorWinsUnderAnyJobCount)
{
    std::vector<SweepItem> items;
    for (int i = 0; i < 6; ++i)
        items.push_back({"ok", quick(WorkloadKind::Oltp, 1)});
    items[2].cfg.total_instructions = 0; // field "total_instructions"
    items[5].cfg.oltp.hash_buckets = 0;  // field "oltp.hash_buckets"

    for (const unsigned jobs : {1u, 8u}) {
        try {
            runSweep(items, jobs);
            FAIL() << "expected ConfigError (jobs=" << jobs << ")";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.field(), "total_instructions")
                << "jobs=" << jobs;
        }
    }
}

/**
 * One item's watchdog panic among healthy items: the sweep rethrows it
 * as item 1's SimInvariantError, with its window and exactly one
 * machine dump, and the same text under any job count.  The panic
 * leaves no process state behind: the healthy items, swept again, give
 * bitwise the results they gave before it.
 */
TEST(SweepFaultTolerance, CollectIsolatesPanicAsStructuredFailure)
{
    // A 50-cycle window is shorter than an OLTP L2 miss.
    std::vector<SweepItem> items(4, {"item", quick(WorkloadKind::Oltp, 1)});
    items[1].cfg.system.watchdog_cycles = 50;
    const std::vector<SweepItem> healthy{items[0], items[2], items[3]};
    const auto undisturbed = runSweep(healthy, 1);

    PanicThrowGuard guard;
    std::string serial_msg;
    for (const unsigned jobs : {1u, 2u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::string msg;
        try {
            runSweep(items, jobs);
            FAIL() << "expected SimInvariantError";
        } catch (const SimInvariantError &e) {
            msg = e.what();
        }
        const std::string head = msg.substr(0, msg.find('\n'));
        EXPECT_NE(head.find("forward-progress watchdog"), std::string::npos)
            << head;
        EXPECT_NE(head.find("window=50"), std::string::npos) << head;
        const std::size_t first = msg.find("=== crash dump");
        EXPECT_NE(first, std::string::npos);
        EXPECT_EQ(msg.find("=== crash dump", first + 1), std::string::npos);
        if (serial_msg.empty())
            serial_msg = msg;
        EXPECT_EQ(msg, serial_msg);
    }

    const auto after = runSweep(healthy, 2);
    ASSERT_EQ(after.size(), undisturbed.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        SCOPED_TRACE("healthy item " + std::to_string(i));
        expectSameResult(after[i], undisturbed[i]);
    }
}

/**
 * Two items panicking at once on different pool threads: the sweep
 * rethrows item 1's panic, the lowest index.  The crash-dump registry
 * and the panic path are shared process state, yet the error carries
 * exactly one machine dump -- item 1's: the machines of the items
 * running beside it are not its to read.  The text is deterministic in
 * the item, whatever ran beside it: jobs=4 rethrows exactly the jobs=1
 * text.
 */
TEST(SweepFaultTolerance, ConcurrentPanicsYieldDistinctRecords)
{
    // A 50- or 60-cycle window is shorter than an OLTP L2 miss.
    std::vector<SweepItem> items(4, {"item", quick(WorkloadKind::Oltp, 1)});
    items[1].cfg.system.watchdog_cycles = 50;
    items[3].cfg.system.watchdog_cycles = 60;
    PanicThrowGuard guard;

    std::string serial_msg;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::string msg;
        try {
            runSweep(items, jobs);
            FAIL() << "expected SimInvariantError";
        } catch (const SimInvariantError &e) {
            msg = e.what();
        }
        const std::string head = msg.substr(0, msg.find('\n'));
        EXPECT_NE(head.find("forward-progress watchdog"), std::string::npos)
            << head;
        EXPECT_NE(msg.find("window=50"), std::string::npos) << head;
        EXPECT_EQ(msg.find("window=60"), std::string::npos)
            << "item 1's error contaminated by the other thread's panic";
        EXPECT_EQ(msg.find("panic:", head.size()), std::string::npos)
            << "another item's panic leaked into item 1's error";
        const std::size_t first = msg.find("=== crash dump");
        EXPECT_NE(first, std::string::npos);
        EXPECT_EQ(msg.find("=== crash dump", first + 1), std::string::npos)
            << "item 1's error carries another item's machine";
        if (serial_msg.empty())
            serial_msg = msg;
        EXPECT_EQ(msg, serial_msg);
    }
}

TEST(SweepRunner, ResolveJobsPrecedence)
{
    EXPECT_EQ(resolveJobs(5), 5u);

    ASSERT_EQ(setenv("DBSIM_JOBS", "3", 1), 0);
    EXPECT_EQ(resolveJobs(0), 3u);
    EXPECT_EQ(resolveJobs(2), 2u); // CLI wins over env

    ASSERT_EQ(setenv("DBSIM_JOBS", "banana", 1), 0);
    EXPECT_GE(resolveJobs(0), 1u); // warn + fall back

    ASSERT_EQ(unsetenv("DBSIM_JOBS"), 0);
    EXPECT_GE(resolveJobs(0), 1u);
}

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

/** Brace/bracket balance outside string literals -- a cheap structural
 *  validity check in lieu of a JSON parser. */
bool
balancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false, escaped = false;
    for (const char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(SweepReportJson, EmitsSchemaAndOneEntryPerResult)
{
    const auto results =
        runSweep({{"r0", quick(WorkloadKind::Oltp, 1)},
                  {"r1", quick(WorkloadKind::Dss, 1)}},
                 2);

    SweepReport report;
    report.bench = "test_bench";
    report.jobs = 2;
    report.add("s1", results);
    report.add("s2", {results[1]});

    std::ostringstream os;
    writeSweepJson(os, report);
    const std::string doc = os.str();

    EXPECT_TRUE(balancedJson(doc)) << doc;
    EXPECT_NE(doc.find("\"schema\": \"dbsim-bench-v4\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"test_bench\""), std::string::npos);
    EXPECT_NE(doc.find("\"items\": 3"), std::string::npos);
    // Result entries are compact single-line objects, indexed within
    // their section.
    EXPECT_NE(doc.find("{\"section\":\"s1\",\"label\":\"r0\",\"index\":0,"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"section\":\"s1\",\"label\":\"r1\",\"index\":1,"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"section\":\"s2\",\"label\":\"r1\",\"index\":0,"),
              std::string::npos);
    EXPECT_NE(doc.find("\"sim_instructions_per_host_second\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"mshr_occupancy\""), std::string::npos);
    for (const char *gone :
         {"item_timeout_sec", "attempts", "epoch_hashes", "checkpoint",
          "status", "failure", "error"})
        EXPECT_EQ(doc.find(gone), std::string::npos) << gone;
    EXPECT_EQ(doc.back(), '\n');
}

TEST(SweepRunner, ResolveJobsClampsAbsurdValues)
{
    // CLI path: anything above kMaxJobs is clamped with a warning.
    EXPECT_EQ(resolveJobs(100000), kMaxJobs);
    EXPECT_EQ(resolveJobs(kMaxJobs), kMaxJobs);

    // Env path: same clamp.
    ASSERT_EQ(setenv("DBSIM_JOBS", "999999999", 1), 0);
    EXPECT_EQ(resolveJobs(0), kMaxJobs);
    ASSERT_EQ(unsetenv("DBSIM_JOBS"), 0);
}

// ---------------------------------------------------------------------
// The bench harness: flags and exit codes
// ---------------------------------------------------------------------

bench::BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return bench::parseBenchArgs(static_cast<int>(argv.size()),
                                 argv.data(), {"--sharing"});
}

TEST(BenchArgs, ParsesSharedFlagsInBothForms)
{
    const auto opts = parse({"--jobs", "3", "--json=out.json", "--sharing"});
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.json_path, "out.json");
    ASSERT_EQ(opts.rest.size(), 1u);
    EXPECT_TRUE(opts.has("--sharing"));

    const auto eq = parse({"--jobs=2", "--json", "r.json"});
    EXPECT_EQ(eq.jobs, 2u);
    EXPECT_EQ(eq.json_path, "r.json");
    EXPECT_TRUE(eq.rest.empty());
}

TEST(BenchArgs, RejectsBadValues)
{
    EXPECT_THROW(parse({"--jobs", "0"}), ConfigError);
    EXPECT_THROW(parse({"--jobs", "banana"}), ConfigError);
    EXPECT_THROW(parse({"--jobs", "-1"}), ConfigError);
    EXPECT_THROW(parse({"--json"}), ConfigError); // missing value
    EXPECT_THROW(parse({"--unii"}), ConfigError);  // not a flag of the bench
    // There is one failure mode, so no flag chooses one.
    for (const std::string gone : {"--on-failure", "--on-failure=collect"}) {
        try {
            parse({gone, "collect"});
            FAIL() << gone << " was accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown flag \"" + gone +
                                                 "\""),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CliArgs, ParseUnsignedTakesDigitsOnly)
{
    EXPECT_EQ(parseUnsigned("--seed", "0"), 0u);
    EXPECT_EQ(parseUnsigned("--seed", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parseUnsigned<std::uint32_t>("--jobs", "8", 1), 8u);
    for (const char *bad : {"", "8x", "-1", "+3", " 3", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW(parseUnsigned("--seed", bad), ConfigError) << bad;
    EXPECT_THROW(parseUnsigned<std::uint32_t>("--jobs", "4294967296"),
                 ConfigError);
    EXPECT_THROW(parseUnsigned<std::uint32_t>("--jobs", "0", 1),
                 ConfigError);
    EXPECT_THROW(parseUnsigned<std::uint32_t>("--max-nodes", "33", 1, 32),
                 ConfigError);
    try {
        parseUnsigned<std::uint32_t>("--jobs", "-1", 1);
        FAIL() << "--jobs -1 was accepted";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.field(), "cli.jobs");
        EXPECT_NE(std::string(e.what()).find("\"-1\""), std::string::npos);
    }
}

TEST(CliArgs, ParseChoiceTakesOnlyItsWords)
{
    EXPECT_EQ(parseChoice("model", "sc", {"sc", "pc", "rc"}), 0u);
    EXPECT_EQ(parseChoice("model", "rc", {"sc", "pc", "rc"}), 2u);
    for (const char *bad : {"", "xc", "SC", "rc "})
        EXPECT_THROW(parseChoice("model", bad, {"sc", "pc", "rc"}),
                     ConfigError)
            << bad;
}

TEST(BenchHarness, UnwritableReportYieldsExitOne)
{
    bench::BenchOptions opts;
    opts.json_path = "/nonexistent-dir-zz/report.json";
    bench::BenchContext ctx("ft_exit1", opts);
    ctx.sweep("s", {{"i0", quick(WorkloadKind::Oltp, 1)}});
    EXPECT_EQ(ctx.finish(), 1);
}

} // namespace
} // namespace dbsim::core
