/**
 * @file
 * simbench: runs one benchmark workload in this process, on one thread,
 * and prints one JSON document with the raw samples, the simulated
 * statistics of the run and, with --trace 1, the per-layer metrics.
 * run.py builds this program, checks the statistics against the
 * expected ones and reduces the samples to the benchmark's metrics.
 *
 * Usage: simbench --workload NAME --seed N --seconds S [--trace 0|1]
 *                 [--instructions N] [--spans PATH]
 *
 * --instructions is the budget (default: the workload's own); the first
 * fifth of it is warm-up.
 *
 * Untraced (--trace 0): closed loop of repeats until S seconds have
 * passed (at least three).  Each repeat builds the machine
 * (timed as set-up), runs it to the instruction budget (timed as run),
 * and compares its statistics with the first repeat's.  Between
 * repeats the machine is also built alone a few more times, so set-up
 * time has enough samples.  Then one more repeat runs with the
 * coherence invariant checker armed, untimed; its statistics must match
 * too.
 *
 * Traced (--trace 1): the cpu and coherence layer drivers over windows
 * captured from the workload, then untraced and traced repeats in turn
 * (the traced one with a timed trace source in front of every process)
 * until S seconds have passed.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/errors.hpp"
#include "core/json_writer.hpp"
#include "layers.hpp"
#include "machine.hpp"
#include "probes.hpp"
#include "sim/diagnostics.hpp"

using namespace simbench;

namespace {

/** Fewest untraced repeats, whatever --seconds says. */
constexpr int kMinRepeats = 3;
/** Machine builds per repeat that are timed as set-up and discarded. */
constexpr int kExtraSetups = 9;
/** A repeat that runs longer than this fails as a timeout. */
constexpr double kRepeatTimeoutS = 60.0;
/** Stop starting repeats after this long, whatever --seconds says. */
constexpr double kHardStopS = 120.0;
/** The cpu driver retires 1/kDriverDivisor of the run's budget. */
constexpr std::uint64_t kDriverDivisor = 2;
/** Spans kept per layer for the trace file. */
constexpr std::size_t kSpansPerLayer = 10000;

struct Options
{
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
    std::string spans_path;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "simbench: " << why << "\n"
              << "usage: simbench --workload " << workloadNames()
              << " --seed N --seconds S [--trace 0|1] [--instructions N]"
                 " [--spans PATH]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[i + 1];
        if (flag == "--workload") {
            o.workload = findWorkload(v);
            if (!o.workload)
                usage("unknown workload '" + v + "'");
        } else if (flag == "--seed") {
            o.seed = parseCount(flag, v);
            have_seed = true;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0))
                usage("--seconds wants a positive number");
        } else if (flag == "--trace") {
            o.trace = parseCount(flag, v) != 0;
        } else if (flag == "--instructions") {
            o.instructions = parseCount(flag, v);
        } else if (flag == "--spans") {
            o.spans_path = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!o.workload || !have_seed)
        usage("--workload and --seed are required");
    if (o.instructions == 0)
        o.instructions = o.workload->instructions;
    o.warmup = o.instructions / 5;
    return o;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
perCall(const SpanLog::Total &t)
{
    return t.count ? static_cast<double>(t.ns) / static_cast<double>(t.count)
                   : 0.0;
}

double
ratio(double n, double d)
{
    return d != 0.0 ? n / d : 0.0;
}

/**
 * High-water resident set of this process image, from VmHWM.  Unlike
 * getrusage's ru_maxrss, it does not carry over the peak of the parent
 * process that forked this one.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * A fixed piece of host work shaped like the simulator's own: hash-map
 * updates and lookups, a dependent walk over a 2 MiB table, a FIFO and
 * data-dependent branches.  Its time shows how fast the shared host runs
 * around a repeat; run.py divides it out of the host times.  Its memory
 * is allocated once, so its time does not depend on what the simulator
 * left in the heap.
 */
class ReferenceWork
{
  public:
    ReferenceWork() : table_(1 << 19) { map_.reserve(1 << 15); }

    /** Do the work once; returns its host time in seconds. */
    double
    run()
    {
        const std::uint64_t t0 = nowNs();
        map_.clear();
        fifo_.clear();
        for (std::uint32_t i = 0; i < table_.size(); ++i)
            table_[i] = (i * 2654435761u) & ((1u << 19) - 1);
        std::uint64_t x = 88172645463325252ull, acc = 0;
        std::uint32_t pos = 0;
        for (std::uint64_t i = 0; i < 400000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint64_t k = x & 0x7fff;
            map_[k] += i;
            if (k & 1)
                acc += map_.count(k ^ 3);
            pos = table_[pos] ^ static_cast<std::uint32_t>(x & 7);
            acc += pos;
            fifo_.push_back(x);
            if (fifo_.size() > 64) {
                acc += fifo_.front();
                fifo_.pop_front();
            }
            if ((x >> 20) % 3 == 0)
                acc ^= i;
        }
        sink_ = acc;
        return seconds(nowNs() - t0);
    }

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::vector<std::uint32_t> table_;
    std::deque<std::uint64_t> fifo_;
    volatile std::uint64_t sink_ = 0; ///< keeps the result observable
};

/** One timed full-system repeat. */
struct Sample
{
    double setup_s = 0.0;
    double run_s = 0.0;
    std::uint64_t retired = 0;
    double ref_s = 0.0; ///< ReferenceWork around the run (mean of two)
};

struct Failure
{
    int repeat;
    std::string kind;
    std::string detail;
};

/** Everything the run reports. */
struct Report
{
    std::vector<Sample> samples;
    std::vector<double> setup_only_s;
    std::vector<Failure> failures;
    int attempted = 0;
    Stats reference; ///< statistics of the first good repeat
    bool checked = false; ///< the checker-armed repeat passed
    double peak_rss_mb = 0.0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        layers; ///< name -> (value, unit), --trace 1 only
    std::uint64_t spans_kept = 0, spans_dropped = 0;
    std::vector<std::pair<std::string, double>> driver_counts;
};

/**
 * Build, run and check one repeat.  @p wrap may wrap each trace source;
 * @p check arms the coherence checker.  Returns false on failure (which
 * is recorded in @p rep).
 */
bool
runRepeat(const Options &o, Report &rep, const SourceWrap &wrap, bool check,
          Sample &sample, Stats &stats, SpanLog *log)
{
    const int index = rep.attempted++;
    core::SimConfig cfg =
        makeConfig(*o.workload, o.seed, o.instructions, o.warmup);
    cfg.system.check_coherence = check;
    try {
        sim::HostDeadlineScope deadline(kRepeatTimeoutS);
        const std::uint64_t t0 = nowNs();
        Machine m = buildMachine(cfg, wrap);
        const std::uint64_t t1 = nowNs();
        sim::RunResult r;
        if (log) {
            Span span(*log, Layer::SimRun);
            r = m.system->run(cfg.total_instructions, cfg.warmup_instructions);
        } else {
            r = m.system->run(cfg.total_instructions, cfg.warmup_instructions);
        }
        const std::uint64_t t2 = nowNs();
        sample = Sample{seconds(t1 - t0), seconds(t2 - t1),
                        m.system->totalRetired()};
        stats = collectStats(*m.system, r);
    } catch (const SimTimeoutError &e) {
        rep.failures.push_back({index, "timeout", e.what()});
        return false;
    } catch (const std::exception &e) {
        rep.failures.push_back({index, "exception", e.what()});
        return false;
    }
    if (rep.reference.empty()) {
        rep.reference = stats;
    } else if (stats != rep.reference) {
        rep.failures.push_back(
            {index, "digest",
             "statistics differ from the first repeat at '" +
                 firstDifference(stats, rep.reference) + "'"});
        return false;
    }
    return true;
}

void
timeSetupOnly(const Options &o, Report &rep)
{
    const core::SimConfig cfg =
        makeConfig(*o.workload, o.seed, o.instructions, o.warmup);
    for (int i = 0; i < kExtraSetups; ++i) {
        const std::uint64_t t0 = nowNs();
        Machine m = buildMachine(cfg);
        rep.setup_only_s.push_back(seconds(nowNs() - t0));
    }
}

void
untracedPass(const Options &o, Report &rep)
{
    const std::uint64_t start = nowNs();
    std::optional<ReferenceWork> reference; // built after the peak is read
    double ref_before = 0.0;
    while (rep.attempted < kMinRepeats ||
           seconds(nowNs() - start) < o.seconds) {
        if (seconds(nowNs() - start) > kHardStopS)
            break;
        Sample s;
        Stats stats;
        const bool ok = runRepeat(o, rep, {}, false, s, stats, nullptr);
        if (!reference) {
            // Peak of one repeat, before anything else has run; later
            // repeats reuse the heap the first one grew.
            rep.peak_rss_mb = peakRssMb();
            reference.emplace();
        }
        // Host speed around this run: the reference work just before it
        // (after the previous run) and just after it.
        const double ref_after = reference->run();
        if (ok) {
            s.ref_s = ref_before > 0.0 ? 0.5 * (ref_before + ref_after)
                                       : ref_after;
            rep.samples.push_back(s);
        }
        ref_before = ref_after;
        timeSetupOnly(o, rep);
    }

    Sample s;
    Stats stats;
    rep.checked = runRepeat(o, rep, {}, true, s, stats, nullptr);
}

void
addLayer(Report &rep, const std::string &name, double value,
         const std::string &unit)
{
    rep.layers.push_back({name, {value, unit}});
}

void
tracedPass(const Options &o, Report &rep)
{
    const std::uint64_t start = nowNs();
    SpanLog log(kSpansPerLayer);

    const core::SimConfig cfg =
        makeConfig(*o.workload, o.seed, o.instructions, o.warmup);
    const std::uint32_t procs = numProcs(cfg);
    const std::uint32_t per_node = procs / cfg.system.num_nodes;
    const Windows windows =
        captureWindows(buildMachine(cfg, {}, false), procs,
                       o.instructions / kDriverDivisor / per_node);
    CpuDriverResult cpu;
    CoherenceDriverResult coh;
    try {
        cpu = runCpuDriver(cfg, windows, log);
        coh = runCoherenceDriver(cfg, windows, log);
    } catch (const std::exception &e) {
        rep.failures.push_back({rep.attempted, "exception", e.what()});
    }
    ++rep.attempted;

    // Full-system repeats, untraced and traced in turn, for the rest of
    // the run.
    std::vector<double> plain_run_s, traced_run_s, workload_s, share;
    std::vector<double> ns_per_record, ns_per_cycle;
    std::uint64_t records = 0;
    Stats traced;
    do {
        Sample s;
        Stats stats;
        if (runRepeat(o, rep, {}, false, s, stats, nullptr)) {
            plain_run_s.push_back(s.run_s);
            rep.samples.push_back(s);
        }

        std::uint64_t delivered = 0;
        const SourceWrap wrap = [&](std::unique_ptr<trace::TraceSource> src)
            -> std::unique_ptr<trace::TraceSource> {
            return std::make_unique<TimedSource>(std::move(src), log,
                                                 delivered);
        };
        log.resetTotals();
        if (!runRepeat(o, rep, wrap, false, s, stats, &log))
            continue;
        const double next_s = seconds(log.total(Layer::WorkloadNext).ns);
        traced_run_s.push_back(s.run_s);
        workload_s.push_back(next_s);
        share.push_back(ratio(next_s, s.run_s));
        ns_per_record.push_back(ratio(next_s * 1e9, double(delivered)));
        ns_per_cycle.push_back(
            ratio(s.run_s * 1e9, statValue(stats, "total_cycles")));
        records = delivered;
        traced = stats;
    } while (seconds(nowNs() - start) < std::min(o.seconds, kHardStopS));

    const auto st = [&traced](const char *name) {
        return traced.empty() ? 0.0 : statValue(traced, name);
    };
    const double instrs = st("instructions");
    const auto dataNs = [](const auto &by_class, coher::AccessClass c) {
        return perCall(by_class[static_cast<std::size_t>(c)]);
    };

    addLayer(rep, "workload.records", double(records), "count");
    addLayer(rep, "workload.self_s", median(workload_s), "s");
    addLayer(rep, "workload.ns_per_record", median(ns_per_record), "ns");
    addLayer(rep, "workload.share", median(share), "fraction");

    addLayer(rep, "sim.run_s", median(traced_run_s), "s");
    addLayer(rep, "sim.host_ns_per_cycle", median(ns_per_cycle), "ns");
    addLayer(rep, "sim.cycles", st("total_cycles"), "cycles");
    addLayer(rep, "sim.ipc", st("ipc"), "instr/cycle");
    addLayer(rep, "sim.context_switches", st("core.context_switches"),
             "count");
    addLayer(rep, "sim.lock_spin_retries", st("core.lock_spin_retries"),
             "count");
    addLayer(rep, "sim.lock_yields", st("core.lock_yields"), "count");

    addLayer(rep, "cpu.self_ns_per_instr",
             ratio(double(cpu.core_ns) - double(cpu.memory_ns),
                   double(cpu.instructions)),
             "ns");
    addLayer(rep, "cpu.next_event_ns", perCall(cpu.next_event), "ns");
    addLayer(rep, "cpu.ticks_per_instr",
             ratio(double(cpu.ticks), double(cpu.instructions)), "ratio");
    addLayer(rep, "cpu.skipped_cycle_frac",
             ratio(double(cpu.skipped_cycles), double(cpu.cycles)),
             "fraction");
    addLayer(rep, "cpu.branch_mispredict_rate",
             st("miss_rates.branch_mispredict"), "fraction");
    addLayer(rep, "cpu.spec_load_violations",
             st("core.spec_load_violations"), "count");

    std::uint64_t accesses = 0;
    for (const SpanLog::Total &t : cpu.data_by_class)
        accesses += t.count;
    addLayer(rep, "memory.data_ns.l1",
             dataNs(cpu.data_by_class, coher::AccessClass::L1Hit), "ns");
    addLayer(rep, "memory.data_ns.l2",
             dataNs(cpu.data_by_class, coher::AccessClass::L2Hit), "ns");
    addLayer(rep, "memory.fetch_ns", perCall(cpu.fetch), "ns");
    addLayer(rep, "memory.refusals_per_access",
             ratio(double(cpu.data_by_class[TimedMem::kRefused].count),
                   double(accesses)),
             "ratio");
    addLayer(rep, "memory.l1d_accesses_per_instr",
             ratio(st("node.l1d_accesses"), instrs), "ratio");
    addLayer(rep, "memory.l1i_fetches_per_instr",
             ratio(st("node.l1i_fetches"), instrs), "ratio");
    addLayer(rep, "memory.l2_miss_rate", st("miss_rates.l2"), "fraction");

    addLayer(rep, "coherence.data_ns.local",
             dataNs(coh.data_by_class, coher::AccessClass::LocalMem), "ns");
    addLayer(rep, "coherence.data_ns.remote",
             dataNs(coh.data_by_class, coher::AccessClass::RemoteMem), "ns");
    addLayer(rep, "coherence.data_ns.dirty",
             dataNs(coh.data_by_class, coher::AccessClass::RemoteDirty),
             "ns");
    addLayer(rep, "coherence.transactions", st("fabric.transactions"),
             "count");
    addLayer(rep, "coherence.dirty_misses", st("fabric.dirty_misses"),
             "count");
    addLayer(rep, "coherence.invalidations", st("fabric.invalidations"),
             "count");
    addLayer(rep, "coherence.dir_entries", st("fabric.dir_entries"),
             "count");
    addLayer(rep, "interconnect.link_wait_cycles",
             st("mesh.link_wait_cycles"), "cycles");

    addLayer(rep, "trace_overhead",
             ratio(median(traced_run_s), median(plain_run_s)) - 1.0,
             "fraction");

    auto &dc = rep.driver_counts;
    dc.push_back({"cpu.instructions", double(cpu.instructions)});
    dc.push_back({"cpu.ticks", double(cpu.ticks)});
    dc.push_back({"cpu.cycles", double(cpu.cycles)});
    dc.push_back({"cpu.core_s", seconds(cpu.core_ns)});
    dc.push_back({"cpu.memory_s", seconds(cpu.memory_ns)});
    dc.push_back({"coherence.references", double(coh.references)});
    dc.push_back({"coherence.cycles", double(coh.cycles)});
    static const char *const kClass[] = {"l1", "l2", "local", "remote",
                                         "dirty", "refused"};
    for (std::size_t k = 0; k < 6; ++k) {
        dc.push_back({std::string("cpu.data_calls.") + kClass[k],
                      double(cpu.data_by_class[k].count)});
        dc.push_back({std::string("coherence.data_calls.") + kClass[k],
                      double(coh.data_by_class[k].count)});
    }
    dc.push_back({"cpu.fetch_calls", double(cpu.fetch.count)});
    rep.spans_kept = log.kept();
    rep.spans_dropped = log.dropped();
    if (!o.spans_path.empty()) {
        std::ofstream f(o.spans_path);
        log.writeChromeTrace(f);
        if (!f)
            rep.failures.push_back(
                {rep.attempted, "io", "cannot write " + o.spans_path});
    }
}

void
writeReport(const Options &o, const Report &rep)
{
    core::JsonWriter w(std::cout, 0);
    w.beginObject();
    w.kv("workload", o.workload->name);
    w.kv("seed", o.seed);
    w.kv("instructions", o.instructions);
    w.kv("warmup", o.warmup);
    w.kv("trace", o.trace);

    w.key("build").beginObject();
    w.kv("compiler", "g++ " __VERSION__);
    w.kv("build_type", SIMBENCH_BUILD_TYPE);
    w.kv("cxx_flags", SIMBENCH_CXX_FLAGS);
#ifdef NDEBUG
    w.kv("ndebug", true);
#else
    w.kv("ndebug", false);
#endif
#ifdef __OPTIMIZE__
    w.kv("optimized", true);
#else
    w.kv("optimized", false);
#endif
    w.endObject();

    w.kv("attempted", static_cast<std::uint64_t>(rep.attempted));
    w.key("failures").beginArray();
    for (const Failure &f : rep.failures) {
        w.beginObject();
        w.kv("repeat", static_cast<std::int64_t>(f.repeat));
        w.kv("kind", f.kind);
        w.kv("detail", f.detail);
        w.endObject();
    }
    w.endArray();

    w.key("samples").beginArray();
    for (const Sample &s : rep.samples) {
        w.beginObject();
        w.kv("setup_s", s.setup_s);
        w.kv("run_s", s.run_s);
        w.kv("retired", s.retired);
        w.kv("ref_s", s.ref_s);
        w.endObject();
    }
    w.endArray();
    w.key("setup_only_s").beginArray();
    for (double s : rep.setup_only_s)
        w.value(s);
    w.endArray();
    w.kv("peak_rss_mb", rep.peak_rss_mb);
    w.kv("checked", rep.checked);

    w.key("stats").beginObject();
    for (const auto &[k, v] : rep.reference) {
        w.key(k);
        w.rawValue(v);
    }
    w.endObject();

    w.key("layers").beginObject();
    for (const auto &[name, vu] : rep.layers) {
        w.key(name).beginObject();
        w.kv("value", vu.first);
        w.kv("unit", vu.second);
        w.endObject();
    }
    w.endObject();
    w.key("driver_counts").beginObject();
    for (const auto &[name, v] : rep.driver_counts)
        w.kv(name, v);
    w.endObject();
    w.key("spans").beginObject();
    w.kv("path", o.spans_path);
    w.kv("kept", rep.spans_kept);
    w.kv("dropped", rep.spans_dropped);
    w.endObject();
    w.endObject();
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    // Pin glibc's allocator thresholds high, so a machine's arrays come
    // from the heap the previous machine freed instead of fresh pages.
    // Left dynamic, the mmap threshold rises as large blocks are freed,
    // and set-up time (mostly page faults on fresh pages, whose cost
    // swings with the load on a shared host) fell into two modes at
    // random.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    Report rep;
    try {
        if (o.trace)
            tracedPass(o, rep);
        else
            untracedPass(o, rep);
    } catch (const std::exception &e) {
        // Configuration or driver errors outside a repeat.
        std::cerr << "simbench: " << e.what() << "\n";
        return 1;
    }
    writeReport(o, rep);
    return 0;
}
