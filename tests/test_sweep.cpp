/**
 * @file
 * Tests for the parallel sweep runner and the JSON reporting layer.
 *
 * The load-bearing property is the determinism contract (DESIGN.md):
 * simulated statistics of a sweep are a pure function of the
 * configuration list, so running the same list with 1 job and with 8
 * jobs must produce bitwise-identical results.  Also covered: input
 * ordering, deterministic (lowest-index) error propagation, per-item
 * failure capture under the collect policy (DESIGN.md §5e), job-count
 * resolution, the bench harness (flags, exit codes), and the JSON
 * writer's escaping and structure checking.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
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
// SweepRunner
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

    SweepRunner serial(1);
    SweepRunner parallel(8);
    const auto a = serial.run(items);
    const auto b = parallel.run(items);
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
        SweepRunner runner(jobs);
        try {
            runner.run(items);
            FAIL() << "expected ConfigError (jobs=" << jobs << ")";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.field(), "total_instructions")
                << "jobs=" << jobs;
        }
    }
}

/**
 * Four small OLTP items; the item at each index in @p panic_windows
 * trips the forward-progress watchdog with that window (a 50- or
 * 60-cycle window is shorter than an OLTP L2 miss), the rest run
 * normally.
 */
std::vector<SweepItem>
watchdogItems(const std::vector<std::pair<std::size_t, std::uint64_t>>
                  &panic_windows)
{
    std::vector<SweepItem> items;
    for (int i = 0; i < 4; ++i)
        items.push_back({"item" + std::to_string(i),
                         quick(WorkloadKind::Oltp, 1)});
    for (const auto &[index, window] : panic_windows)
        items[index].cfg.system.watchdog_cycles = window;
    return items;
}

/**
 * Check the collected record of a watchdog panic: it names the item,
 * is classified as an invariant failure, and carries exactly one
 * machine dump -- this item's: the machines of the items running
 * beside it are not its to read.
 */
void
expectWatchdogRecord(const SweepItemOutcome &o, std::size_t index,
                     const std::string &label)
{
    ASSERT_FALSE(o.ok()) << "item " << index;
    EXPECT_EQ(o.index, index);
    EXPECT_EQ(o.failure.index, index);
    EXPECT_EQ(o.failure.label, label);
    EXPECT_EQ(o.failure.kind, FailureKind::Invariant);
    EXPECT_NE(o.error, nullptr);
    EXPECT_NE(o.failure.what.find("forward-progress watchdog"),
              std::string::npos)
        << o.failure.what;
    const std::string &dump = o.failure.crash_dump_excerpt;
    const std::size_t first = dump.find("=== crash dump");
    EXPECT_NE(first, std::string::npos);
    EXPECT_EQ(dump.find("=== crash dump", first + 1), std::string::npos)
        << "record " << index << " carries another item's machine";
    EXPECT_EQ(dump.find("panic:"), std::string::npos)
        << "another item's panic leaked into record " << index;
}

/**
 * A real panic under the collect policy: item 1 trips the watchdog,
 * the others run normally.  The failure becomes a structured record,
 * and the survivors are exactly what an undisturbed run produces.  The
 * abort policy rethrows the same panic as an exception.
 */
TEST(SweepFaultTolerance, CollectIsolatesPanicAsStructuredFailure)
{
    const auto items = watchdogItems({{1, 50}});
    const auto undisturbed =
        SweepRunner(1).run({items[0], items[2], items[3]});

    SweepRunner runner(2);
    runner.setFailurePolicy(FailurePolicy::collect());
    const SweepOutcome out = runner.runChecked(items);
    ASSERT_EQ(out.items.size(), 4u);
    EXPECT_EQ(out.failures(), 1u);

    expectWatchdogRecord(out.items[1], 1, items[1].label);
    EXPECT_NE(out.items[1].failure.what.find("window=50"),
              std::string::npos)
        << out.items[1].failure.what;

    ASSERT_TRUE(out.items[0].ok());
    ASSERT_TRUE(out.items[2].ok());
    ASSERT_TRUE(out.items[3].ok());
    expectSameResult(out.items[0].result, undisturbed[0]);
    expectSameResult(out.items[2].result, undisturbed[1]);
    expectSameResult(out.items[3].result, undisturbed[2]);

    // abort: the same panic, as an exception the test can see.
    PanicThrowGuard guard;
    try {
        SweepRunner(2).run(items);
        FAIL() << "expected SimInvariantError";
    } catch (const SimInvariantError &e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.substr(0, msg.find('\n')),
                  out.items[1].failure.what);
    }
}

/**
 * Two items panicking at once on different pool threads produce two
 * distinct, uncorrupted records -- the crash-dump registry and the
 * panic path are shared process state.  The records are deterministic
 * in the item, whatever ran beside it: jobs=4 reproduces the jobs=1
 * text exactly, and abort rethrows the lowest-index failure at both.
 */
TEST(SweepFaultTolerance, ConcurrentPanicsYieldDistinctRecords)
{
    const auto items = watchdogItems({{1, 50}, {3, 60}});

    std::vector<std::string> serial_what;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        SweepRunner runner(jobs);
        runner.setFailurePolicy(FailurePolicy::collect());
        const SweepOutcome out = runner.runChecked(items);
        ASSERT_EQ(out.items.size(), 4u);
        EXPECT_EQ(out.failures(), 2u);
        EXPECT_TRUE(out.items[0].ok());
        EXPECT_TRUE(out.items[2].ok());

        std::vector<std::string> what;
        for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
            expectWatchdogRecord(out.items[i], i, items[i].label);
            what.push_back(out.items[i].failure.what);
        }
        EXPECT_NE(what[0].find("window=50"), std::string::npos) << what[0];
        EXPECT_EQ(what[0].find("window=60"), std::string::npos)
            << "record 1 contaminated by the other thread's panic";
        EXPECT_NE(what[1].find("window=60"), std::string::npos) << what[1];
        EXPECT_EQ(what[1].find("window=50"), std::string::npos)
            << "record 3 contaminated by the other thread's panic";
        if (serial_what.empty())
            serial_what = what;
        EXPECT_EQ(what, serial_what);

        PanicThrowGuard guard;
        try {
            SweepRunner(jobs).run(items);
            FAIL() << "expected SimInvariantError";
        } catch (const SimInvariantError &e) {
            const std::string msg = e.what();
            EXPECT_EQ(msg.substr(0, msg.find('\n')), serial_what[0]);
        }
    }
}

TEST(SweepRunner, ResolveJobsPrecedence)
{
    EXPECT_EQ(SweepRunner::resolveJobs(5), 5u);

    ASSERT_EQ(setenv("DBSIM_JOBS", "3", 1), 0);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 3u);
    EXPECT_EQ(SweepRunner::resolveJobs(2), 2u); // CLI wins over env

    ASSERT_EQ(setenv("DBSIM_JOBS", "banana", 1), 0);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u); // warn + fall back

    ASSERT_EQ(unsetenv("DBSIM_JOBS"), 0);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
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
    SweepRunner runner(2);
    const auto results =
        runner.run({{"r0", quick(WorkloadKind::Oltp, 1)},
                    {"r1", quick(WorkloadKind::Dss, 1)}});

    SweepReport report;
    report.bench = "test_bench";
    report.jobs = runner.jobs();
    report.add("s1", results);

    std::ostringstream os;
    writeSweepJson(os, report);
    const std::string doc = os.str();

    EXPECT_TRUE(balancedJson(doc)) << doc;
    EXPECT_NE(doc.find("\"schema\": \"dbsim-bench-v3\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"test_bench\""), std::string::npos);
    // Result entries are compact single-line objects.
    EXPECT_NE(doc.find("\"label\":\"r0\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"r1\""), std::string::npos);
    EXPECT_NE(doc.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(doc.find("\"sim_instructions_per_host_second\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"mshr_occupancy\""), std::string::npos);
    for (const char *gone :
         {"item_timeout_sec", "attempts", "epoch_hashes", "checkpoint"})
        EXPECT_EQ(doc.find(gone), std::string::npos) << gone;
    EXPECT_EQ(doc.back(), '\n');
}

TEST(SweepRunner, ResolveJobsClampsAbsurdValues)
{
    // CLI path: anything above kMaxJobs is clamped with a warning.
    EXPECT_EQ(SweepRunner::resolveJobs(100000), SweepRunner::kMaxJobs);
    EXPECT_EQ(SweepRunner::resolveJobs(SweepRunner::kMaxJobs),
              SweepRunner::kMaxJobs);

    // Env path: same clamp.
    ASSERT_EQ(setenv("DBSIM_JOBS", "999999999", 1), 0);
    EXPECT_EQ(SweepRunner::resolveJobs(0), SweepRunner::kMaxJobs);
    ASSERT_EQ(unsetenv("DBSIM_JOBS"), 0);
}

// ---------------------------------------------------------------------
// Failure policy and the bench harness: flags and exit codes
// ---------------------------------------------------------------------

TEST(FailurePolicy, DescribeAndIsolating)
{
    EXPECT_EQ(FailurePolicy::abort().describe(), "abort");
    EXPECT_EQ(FailurePolicy::collect().describe(), "collect");
    EXPECT_FALSE(FailurePolicy::abort().isolating());
    EXPECT_TRUE(FailurePolicy::collect().isolating());
}

TEST(SweepFaultTolerance, AbortModeRunCarriesLegacySemantics)
{
    std::vector<SweepItem> items(3, {"ok", quick(WorkloadKind::Oltp, 1)});
    items[0].cfg.total_instructions = 0;

    SweepRunner runner(2); // default policy: abort
    EXPECT_THROW(runner.run(items), ConfigError);
}

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
    const auto opts = parse({"--jobs", "3", "--json=out.json",
                             "--on-failure", "collect", "--sharing"});
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.json_path, "out.json");
    EXPECT_TRUE(opts.collect_failures);
    ASSERT_EQ(opts.rest.size(), 1u);
    EXPECT_TRUE(opts.has("--sharing"));

    const auto eq = parse({"--jobs=2", "--json", "r.json",
                           "--on-failure=abort"});
    EXPECT_EQ(eq.jobs, 2u);
    EXPECT_EQ(eq.json_path, "r.json");
    EXPECT_FALSE(eq.collect_failures);
    EXPECT_TRUE(eq.rest.empty());
}

TEST(BenchArgs, RejectsBadValues)
{
    EXPECT_THROW(parse({"--jobs", "0"}), ConfigError);
    EXPECT_THROW(parse({"--jobs", "banana"}), ConfigError);
    EXPECT_THROW(parse({"--jobs", "-1"}), ConfigError);
    EXPECT_THROW(parse({"--on-failure", "maybe"}), ConfigError);
    EXPECT_THROW(parse({"--json"}), ConfigError); // missing value
    EXPECT_THROW(parse({"--unii"}), ConfigError);  // not a flag of the bench
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

TEST(BenchHarness, CollectedFailureYieldsPartialFailureExit)
{
    bench::BenchOptions opts;
    opts.collect_failures = true;
    bench::BenchContext ctx("ft_exit4", opts);
    std::vector<SweepItem> items(2, {"i", quick(WorkloadKind::Oltp, 1)});
    items[0].cfg.total_instructions = 0; // config rejection, collected
    const auto ok = ctx.sweep("s", items);
    EXPECT_EQ(ok.size(), 1u);
    ASSERT_EQ(ctx.report().entries.size(), 2u);
    EXPECT_EQ(ctx.report().entries[0].outcome.failure.kind,
              FailureKind::Config);
    EXPECT_EQ(ctx.finish(), kSweepPartialFailureExit);
}

} // namespace
} // namespace dbsim::core
