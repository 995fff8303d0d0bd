#include "core/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "core/json_writer.hpp"
#include "common/breakdown.hpp"

namespace dbsim::core {

unsigned
resolveJobs(unsigned cli_jobs)
{
    unsigned resolved = 0;
    const char *source = "--jobs";
    if (cli_jobs > 0) {
        resolved = cli_jobs;
    } else if (const char *env = std::getenv("DBSIM_JOBS"); env && *env) {
        try {
            const std::uint64_t v = parseUnsigned("DBSIM_JOBS", env, 1);
            // Clamp before the unsigned narrowing: a huge DBSIM_JOBS
            // must not wrap into a small (or zero) thread count.
            resolved = v > kMaxJobs ? kMaxJobs + 1
                                    : static_cast<unsigned>(v);
            source = "DBSIM_JOBS";
        } catch (const ConfigError &) {
            DBSIM_WARN("DBSIM_JOBS=\"", env,
                       "\" is not a positive integer; ignoring it");
        }
    }
    if (resolved == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? std::min(hw, kMaxJobs) : 1;
    }
    if (resolved > kMaxJobs) {
        DBSIM_WARN(source, " asks for ", resolved,
                   " concurrent simulations; clamping to ", kMaxJobs,
                   " (each job is a full Simulation on its own thread)");
        return kMaxJobs;
    }
    return resolved;
}

namespace {

SweepResult
runOne(const SweepItem &item)
{
    SweepResult out;
    out.label = item.label;
    out.cfg = item.cfg;
    out.config = describe(out.cfg);
    if (out.label.empty())
        out.label = out.config;

    // Annotated host-timing code: wall_seconds / sim_ips report *host*
    // throughput and are excluded from determinism comparisons
    // (tools/compare_reports.py ignores exactly these fields).
    // dbsim-analyze: allow(determinism-wallclock)
    const auto t0 = std::chrono::steady_clock::now();
    Simulation simulation(out.cfg);
    out.run = simulation.run();
    // dbsim-analyze: allow(determinism-wallclock)
    const auto t1 = std::chrono::steady_clock::now();

    out.ch = simulation.characterize();
    auto &n0 = simulation.system().node(0);
    out.node0 = n0.stats();
    out.l1d_occ = n0.l1dMshrStats().occupancy;
    out.l1d_read_occ = n0.l1dMshrStats().read_occupancy;
    out.l2_occ = n0.l2MshrStats().occupancy;
    out.l2_read_occ = n0.l2MshrStats().read_occupancy;
    out.fabric = simulation.system().fabric().stats();
    for (std::uint32_t i = 0; i < simulation.system().numNodes(); ++i)
        out.context_switches +=
            simulation.system().core(i).stats().context_switches;

    const auto &mig = simulation.system().fabric().migratory();
    const auto &ms = mig.stats();
    out.migratory.shared_writes = ms.shared_writes;
    out.migratory.migratory_writes = ms.migratory_writes;
    out.migratory.dirty_reads = ms.dirty_reads;
    out.migratory.migratory_dirty_reads = ms.migratory_dirty_reads;
    out.migratory.migratory_lines = mig.migratoryLines();
    out.migratory.migratory_pcs = mig.migratoryPcs();
    out.migratory.write_fraction = ms.writeFraction();
    out.migratory.dirty_read_fraction = ms.dirtyReadFraction();
    out.migratory.line_concentration_70 = mig.lineConcentration(0.70);
    out.migratory.pc_concentration_75 = mig.pcConcentration(0.75);

    out.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.sim_ips = out.wall_seconds > 0.0
                      ? static_cast<double>(out.run.instructions) /
                            out.wall_seconds
                      : 0.0;
    return out;
}

} // namespace

void
forEachIndex(std::size_t n, unsigned jobs,
             const std::function<void(std::size_t)> &fn)
{
    const std::size_t workers = std::min<std::size_t>(jobs, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        });
    }
    for (std::thread &t : pool)
        t.join();
}

std::vector<SweepResult>
runSweep(const std::vector<SweepItem> &items, unsigned jobs)
{
    // Each worker writes only its own pre-sized slots, and forEachIndex
    // joins before anything reads them.
    std::vector<SweepResult> results(items.size());
    std::vector<std::exception_ptr> errors(items.size());
    forEachIndex(items.size(), jobs, [&](std::size_t i) {
        try {
            results[i] = runOne(items[i]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });

    // Deterministic error propagation: the lowest-index failure wins,
    // whatever order the workers happened to hit it in.
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

void
SweepReport::add(const std::string &section,
                 const std::vector<SweepResult> &results)
{
    for (std::size_t i = 0; i < results.size(); ++i)
        entries.push_back({section, i, results[i]});
}

namespace {

void
writeOccupancySeries(JsonWriter &w, const stats::OccupancyTracker &occ,
                     std::uint32_t max_n)
{
    w.beginArray();
    for (std::uint32_t n = 1; n <= max_n; ++n)
        w.value(occ.fracAtLeast(n));
    w.endArray();
}

void
writeResultBody(JsonWriter &w, const SweepResult &r)
{
    w.kv("config", r.config);
    w.kv("workload", workloadName(r.cfg.workload));
    w.kv("nodes", r.cfg.system.num_nodes);
    w.kv("cycles", static_cast<std::uint64_t>(r.run.cycles));
    w.kv("instructions", r.run.instructions);
    w.kv("ipc", r.run.ipc);
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("sim_instructions_per_host_second", r.sim_ips);
    w.kv("context_switches", r.context_switches);

    w.key("breakdown").beginObject();
    for (std::size_t i = 0; i < kNumStallCats; ++i) {
        const auto cat = static_cast<StallCat>(i);
        w.kv(stallCatName(cat), r.run.breakdown[cat]);
    }
    w.endObject();

    w.key("miss_rates").beginObject();
    w.kv("l1i_per_fetch", r.ch.l1i_miss_per_fetch);
    w.kv("l1i_mpki", r.ch.l1i_mpki);
    w.kv("l1d", r.ch.l1d_miss_rate);
    w.kv("l2", r.ch.l2_miss_rate);
    w.kv("branch_mispredict", r.ch.branch_mispredict_rate);
    w.kv("itlb", r.ch.itlb_miss_rate);
    w.kv("dtlb", r.ch.dtlb_miss_rate);
    w.endObject();

    w.key("coherence").beginObject();
    w.kv("l2_misses_total", r.ch.total_l2_misses);
    w.kv("dirty_misses", r.ch.dirty_misses);
    w.kv("invalidations", r.fabric.invalidations_sent);
    w.kv("writebacks", r.fabric.writebacks);
    w.kv("migratory_handoffs", r.fabric.migratory_handoffs);
    w.kv("migratory_write_fraction", r.migratory.write_fraction);
    w.kv("migratory_dirty_read_fraction",
         r.migratory.dirty_read_fraction);
    w.endObject();

    w.key("memory_system").beginObject();
    w.kv("l2_delayed_hits", r.node0.l2_delayed_hits);
    w.kv("prefetches_dropped", r.node0.prefetches_dropped);
    w.endObject();

    w.key("mshr_occupancy").beginObject();
    w.key("l1d_all");
    writeOccupancySeries(w, r.l1d_occ, 8);
    w.key("l1d_read");
    writeOccupancySeries(w, r.l1d_read_occ, 8);
    w.key("l2_all");
    writeOccupancySeries(w, r.l2_occ, 8);
    w.key("l2_read");
    writeOccupancySeries(w, r.l2_read_occ, 8);
    w.endObject();
}

/** One report entry as a compact, single-line JSON object. */
std::string
entryJson(const SweepReport::Entry &e)
{
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    w.beginObject();
    w.kv("section", e.section);
    w.kv("label", e.result.label);
    w.kv("index", static_cast<std::uint64_t>(e.index));
    writeResultBody(w, e.result);
    w.endObject();
    return os.str();
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepReport &report)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "dbsim-bench-v4");
    w.kv("bench", report.bench);
    w.kv("jobs", static_cast<std::uint64_t>(report.jobs));
    w.kv("items", static_cast<std::uint64_t>(report.entries.size()));
    w.key("results").beginArray();
    for (const auto &e : report.entries)
        w.rawValue(entryJson(e));
    w.endArray();
    w.endObject();
    os << '\n';
}

bool
writeSweepJsonFile(const std::string &path, const SweepReport &report)
{
    std::ofstream os(path);
    if (!os) {
        DBSIM_WARN("cannot open ", path, " for writing; no JSON report");
        return false;
    }
    writeSweepJson(os, report);
    os.flush();
    if (!os) {
        DBSIM_WARN("short write to ", path, "; JSON report may be invalid");
        return false;
    }
    return true;
}

} // namespace dbsim::core
