#include "verify/fuzzer.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/snapshot.hpp"
#include "core/json_writer.hpp"
#include "core/sweep.hpp"
#include "cpu/consistency.hpp"

namespace dbsim::verify {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::unique_ptr<Engine>
engineUnderTest(const FuzzOptions &opts)
{
    return opts.inject_bug != ProtocolBug::None
               ? makeMutantEngine(opts.inject_bug)
               : makeSerialEngine();
}

OracleVerdict
crashVerdict(const std::exception &e)
{
    const std::string what = e.what();
    return makeFailVerdict(OracleKind::Crash,
                           "base run died: " + firstLine(what),
                           firstLines(what, 12));
}

/**
 * Run exactly one oracle on @p cfg from scratch (no artifact reuse).
 * This is the shrinker's predicate and the repro replay path; the fuzz
 * case itself reuses its base run's artifacts where it can.
 */
OracleVerdict
runOracleKind(const FuzzOptions &opts, OracleKind k,
              const core::SimConfig &cfg, bool bisect)
{
    switch (k) {
      case OracleKind::Crash: {
        try {
            engineUnderTest(opts)->execute(cfg);
        } catch (const std::exception &e) {
            return crashVerdict(e);
        }
        OracleVerdict v;
        v.oracle = OracleKind::Crash;
        v.detail = "base run completed";
        return v;
      }
      case OracleKind::Conservation: {
        RunArtifacts a;
        try {
            a = engineUnderTest(opts)->execute(cfg);
        } catch (const std::exception &e) {
            return crashVerdict(e);
        }
        applyArtifactFault(a, opts.inject_fault);
        return checkConservation(cfg, a);
      }
      case OracleKind::Determinism: {
        const std::unique_ptr<Engine> eng = engineUnderTest(opts);
        RunArtifacts a;
        try {
            a = eng->execute(cfg);
        } catch (const std::exception &e) {
            return crashVerdict(e);
        }
        return checkDeterminism(*eng, cfg, a);
      }
      case OracleKind::CheckpointRoundTrip:
        return checkCheckpointRoundTrip(cfg);
      case OracleKind::Coherence:
        return checkCoherence(cfg);
      case OracleKind::Differential: {
        const std::unique_ptr<Engine> ref = makeSerialEngine();
        const std::unique_ptr<Engine> cand = engineUnderTest(opts);
        return compareEngines(*ref, *cand, cfg, bisect);
      }
    }
    DBSIM_PANIC("runOracleKind: unknown oracle kind ",
                static_cast<int>(k));
}

/** Regenerate case config from seed + overrides; false if invalid. */
bool
regenerate(const FuzzOptions &opts, std::uint64_t case_seed,
           const std::map<std::string, std::uint64_t> &overrides,
           core::SimConfig *cfg)
{
    Rng rng(case_seed);
    *cfg = core::randomSimConfig(rng, opts.space);
    for (const auto &[key, value] : overrides)
        if (!core::applyConfigOverride(*cfg, key, value))
            return false;
    try {
        cfg->validate();
    } catch (const ConfigError &) {
        return false;
    }
    return true;
}

constexpr const char *kReproSchema = "dbsim-fuzz-repro-v2";

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::uint64_t
fuzzCaseSeed(std::uint64_t master_seed, std::uint32_t index)
{
    // splitmix64 over (seed, index): adjacent indices land far apart,
    // and case i's config is independent of the campaign's count.
    return splitmix64(master_seed ^ splitmix64(index + 1));
}

core::SimConfig
fuzzCaseConfig(const FuzzOptions &opts, std::uint32_t index)
{
    Rng rng(fuzzCaseSeed(opts.seed, index));
    return core::randomSimConfig(rng, opts.space);
}

ShrinkOutcome
shrinkConfig(const FuzzOptions &opts, std::uint64_t case_seed,
             const std::string &bucket, const OraclePredicate &pred)
{
    ShrinkOutcome out;
    core::SimConfig best;
    if (!regenerate(opts, case_seed, out.overrides, &best))
        return out; // the unshrunk case must regenerate; give up
    std::uint64_t best_sig = core::simConfigSignature(best);

    for (const core::ConfigOverride &o : core::configOverrides()) {
        for (const std::uint64_t cand : o.shrink(best, opts.space)) {
            if (out.runs >= opts.max_shrink_runs)
                return out;
            std::map<std::string, std::uint64_t> trial = out.overrides;
            trial[o.key] = cand;
            core::SimConfig cfg;
            if (!regenerate(opts, case_seed, trial, &cfg))
                continue; // invalid combination: reject, try next
            const std::uint64_t sig = core::simConfigSignature(cfg);
            if (sig == best_sig)
                continue; // no-op override
            ++out.runs;
            OracleVerdict v;
            try {
                v = pred(cfg);
            } catch (const std::exception &) {
                continue; // predicate died: treat as "does not reproduce"
            }
            if (!v.ok && v.signature == bucket) {
                out.overrides = std::move(trial);
                best = cfg;
                best_sig = sig;
                break; // keep the most aggressive hit; next key
            }
        }
    }
    return out;
}

FuzzCaseResult
runFuzzCase(const FuzzOptions &opts, std::uint32_t index)
{
    PanicThrowGuard guard;
    FuzzCaseResult r;
    r.index = index;
    r.case_seed = fuzzCaseSeed(opts.seed, index);
    const core::SimConfig cfg = fuzzCaseConfig(opts, index);
    r.config_signature = core::simConfigSignature(cfg);
    const std::unique_ptr<Engine> engine = engineUnderTest(opts);

    const auto record = [&r](const OracleVerdict &v) {
        ++r.oracles_run;
        if (!v.ok)
            r.failures.push_back(v);
    };

    RunArtifacts base;
    bool have_base = false;
    try {
        base = engine->execute(cfg);
        have_base = true;
        const std::string render = renderArtifacts(base);
        r.artifacts_digest = snap::fnv1a(
            reinterpret_cast<const std::uint8_t *>(render.data()),
            render.size());
        ++r.oracles_run; // the implicit crash oracle passed
    } catch (const std::exception &e) {
        r.failures.push_back(crashVerdict(e));
        ++r.oracles_run;
    }

    if (have_base) {
        applyArtifactFault(base, opts.inject_fault);
        if (opts.oracle_conservation)
            record(checkConservation(cfg, base));
        // A seeded artifact fault corrupts `base` after collection, so
        // a re-run would trivially mismatch it: skip determinism then,
        // keeping the conservation verdict alone in the triage bucket.
        if (opts.oracle_determinism &&
            opts.inject_fault == ArtifactFault::None) {
            record(checkDeterminism(*engine, cfg, base));
        }
        if (opts.oracle_checkpoint)
            record(checkCheckpointRoundTrip(cfg));
        if (opts.oracle_coherence)
            record(checkCoherence(cfg));
        if (opts.inject_bug != ProtocolBug::None) {
            const std::unique_ptr<Engine> ref = makeSerialEngine();
            record(compareEngines(*ref, *engine, cfg, /*bisect=*/true));
        }
    }
    return r;
}

namespace {

/** Shrink bucket @p b's lowest-index case @p c and write its repro. */
void
reduceBucket(const FuzzOptions &opts, const FuzzCaseResult &c,
             TriageBucket &b)
{
    if (opts.shrink) {
        const OraclePredicate pred = [&opts, &b](const core::SimConfig &cfg) {
            return runOracleKind(opts, b.oracle, cfg, /*bisect=*/false);
        };
        ShrinkOutcome s = shrinkConfig(opts, c.case_seed, b.signature, pred);
        b.shrink_overrides = std::move(s.overrides);
        b.shrink_runs = s.runs;
    }
    if (opts.repro_dir.empty())
        return;
    ReproFile rf;
    rf.config_seed = c.case_seed;
    rf.space = opts.space;
    rf.overrides = b.shrink_overrides;
    rf.oracle = b.oracle;
    rf.bug = opts.inject_bug;
    rf.fault = opts.inject_fault;
    rf.signature = b.signature;
    rf.detail = b.detail;
    core::SimConfig shrunk;
    rf.config_signature = regenerate(opts, c.case_seed, rf.overrides, &shrunk)
                              ? core::simConfigSignature(shrunk)
                              : c.config_signature;
    const std::string path = opts.repro_dir + "/" + reproFileName(rf);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (os) {
        os << renderRepro(rf);
        b.repro_path = path;
    } else {
        DBSIM_WARN("dbsim-fuzz: cannot write repro file ", path);
    }
}

} // namespace

FuzzReport
runFuzz(const FuzzOptions &opts, std::ostream *log)
{
    // One process-global guard covers every thread of the worker pool
    // (core::forEachIndex); the per-case guards nested under it save
    // and restore the already-Throw behavior.
    PanicThrowGuard guard;
    FuzzReport rep;
    rep.seed = opts.seed;
    rep.count = opts.count;
    rep.cases.resize(opts.count);

    std::mutex log_mu;
    core::forEachIndex(opts.count, opts.jobs, [&](std::size_t i) {
        FuzzCaseResult cr =
            runFuzzCase(opts, static_cast<std::uint32_t>(i));
        if (log && !cr.passed()) {
            const std::lock_guard<std::mutex> lock(log_mu);
            for (const OracleVerdict &f : cr.failures) {
                *log << "dbsim-fuzz: case " << i << " seed 0x"
                     << hex16(cr.case_seed) << " FAILED [" << f.signature
                     << "]\n";
            }
        }
        rep.cases[i] = std::move(cr);
    });

    // Triage: bucket by verdict signature, in case-index order so the
    // report is independent of completion order (and of jobs).
    std::map<std::string, TriageBucket> buckets;
    for (const FuzzCaseResult &c : rep.cases) {
        if (!c.passed())
            ++rep.failed_cases;
        for (const OracleVerdict &f : c.failures) {
            TriageBucket &b = buckets[f.signature];
            if (b.count == 0) {
                b.signature = f.signature;
                b.oracle = f.oracle;
                b.first_index = c.index;
                b.detail = firstLine(f.detail);
            }
            ++b.count;
        }
    }
    rep.buckets.reserve(buckets.size());
    for (auto &[sig, b] : buckets) {
        reduceBucket(opts, rep.cases[b.first_index], b);
        rep.buckets.push_back(std::move(b));
    }
    return rep;
}

std::string
renderFuzzReport(const FuzzOptions &opts, const FuzzReport &rep)
{
    std::ostringstream os;
    core::JsonWriter w(os, 2);
    w.beginObject();
    w.kv("schema", "dbsim-fuzz-v1");
    w.kv("seed", rep.seed);
    w.kv("count", rep.count);
    w.key("space").beginObject();
    w.kv("max_nodes", opts.space.max_nodes);
    w.kv("min_instructions", opts.space.min_instructions);
    w.kv("max_instructions", opts.space.max_instructions);
    w.endObject();
    w.key("oracles").beginObject();
    w.kv("conservation", opts.oracle_conservation);
    w.kv("determinism", opts.oracle_determinism);
    w.kv("checkpoint", opts.oracle_checkpoint);
    w.kv("coherence", opts.oracle_coherence);
    w.kv("differential", opts.inject_bug != ProtocolBug::None);
    w.endObject();
    w.key("injections").beginObject();
    w.kv("bug", protocolBugName(opts.inject_bug));
    w.kv("fault", artifactFaultName(opts.inject_fault));
    w.endObject();
    w.kv("passed", std::uint64_t{rep.count - rep.failed_cases});
    w.kv("failed", std::uint64_t{rep.failed_cases});
    w.key("buckets").beginArray();
    for (const TriageBucket &b : rep.buckets) {
        w.beginObject();
        w.kv("signature", b.signature);
        w.kv("count", b.count);
        w.kv("first_index", b.first_index);
        w.kv("detail", b.detail);
        w.kv("shrink_runs", b.shrink_runs);
        w.key("shrink_overrides").beginObject();
        for (const auto &[key, value] : b.shrink_overrides)
            w.kv(key, value);
        w.endObject();
        w.kv("repro", b.repro_path);
        w.endObject();
    }
    w.endArray();
    w.key("cases").beginArray();
    for (const FuzzCaseResult &c : rep.cases) {
        w.beginObject();
        w.kv("index", c.index);
        w.kv("config_signature", "0x" + hex16(c.config_signature));
        w.kv("artifacts_digest", "0x" + hex16(c.artifacts_digest));
        w.endObject();
    }
    w.endArray();
    w.key("failures").beginArray();
    for (const FuzzCaseResult &c : rep.cases) {
        for (const OracleVerdict &f : c.failures) {
            w.beginObject();
            w.kv("index", c.index);
            w.kv("case_seed", "0x" + hex16(c.case_seed));
            w.kv("config_signature", "0x" + hex16(c.config_signature));
            w.kv("oracle", oracleName(f.oracle));
            w.kv("signature", f.signature);
            w.kv("detail", firstLine(f.detail));
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

std::string
renderRepro(const ReproFile &r)
{
    std::ostringstream os;
    os << kReproSchema << "\nconfig_seed " << r.config_seed
       << "\nspace.max_nodes " << r.space.max_nodes
       << "\nspace.min_instructions " << r.space.min_instructions
       << "\nspace.max_instructions " << r.space.max_instructions << '\n';
    for (const auto &[key, value] : r.overrides)
        os << "override." << key << ' ' << value << '\n';
    os << "oracle " << oracleName(r.oracle)
       << "\nbug " << protocolBugName(r.bug)
       << "\nfault " << artifactFaultName(r.fault)
       << "\nsignature " << firstLine(r.signature)
       << "\nconfig_signature 0x" << hex16(r.config_signature)
       << "\ndetail " << firstLine(r.detail) << '\n';
    return os.str();
}

std::string
reproFileName(const ReproFile &r)
{
    const std::string body = renderRepro(r);
    const std::uint64_t h = snap::fnv1a(
        reinterpret_cast<const std::uint8_t *>(body.data()), body.size());
    return "repro-" + hex16(h) + ".txt";
}

bool
oracleKindFromName(const std::string &name, OracleKind *out)
{
    for (const OracleKind k :
         {OracleKind::Conservation, OracleKind::Determinism,
          OracleKind::CheckpointRoundTrip, OracleKind::Coherence,
          OracleKind::Differential, OracleKind::Crash}) {
        if (name == oracleName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
artifactFaultFromName(const std::string &name, ArtifactFault *out)
{
    for (const ArtifactFault f :
         {ArtifactFault::None, ArtifactFault::BreakdownLeak,
          ArtifactFault::CounterSkew, ArtifactFault::EpochHashDrop}) {
        if (name == artifactFaultName(f)) {
            *out = f;
            return true;
        }
    }
    return false;
}

bool
parseRepro(const std::string &text, ReproFile *out, std::string *err)
{
    const auto bad = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kReproSchema)
        return bad(std::string("not a ") + kReproSchema + " file");

    ReproFile r;
    std::set<std::string> seen;
    for (int n = 2; std::getline(in, line); ++n) {
        const std::size_t space = line.find(' ');
        const std::string key = line.substr(0, space);
        const std::string value =
            space == std::string::npos ? "" : line.substr(space + 1);
        const std::string at = "line " + std::to_string(n) + ": ";
        if (!seen.insert(key).second)
            return bad(at + "repeated key " + key);
        try {
            if (key == "config_seed") {
                r.config_seed = parseUnsigned(key, value);
            } else if (key == "space.max_nodes") {
                const std::uint64_t v = parseUnsigned(key, value);
                // The node-count draw doubles up to max_nodes: an
                // unbounded value would wrap its loop counter and never
                // end.
                if (v < 1 || v > 32)
                    return bad(at + "space.max_nodes " + std::to_string(v) +
                               " is outside [1, 32]");
                r.space.max_nodes = static_cast<std::uint32_t>(v);
            } else if (key == "space.min_instructions") {
                r.space.min_instructions = parseUnsigned(key, value);
            } else if (key == "space.max_instructions") {
                r.space.max_instructions = parseUnsigned(key, value);
            } else if (key.rfind("override.", 0) == 0) {
                const std::string name = key.substr(9);
                if (std::ranges::none_of(
                        core::configOverrides(),
                        [&name](const core::ConfigOverride &o) {
                            return name == o.key;
                        }))
                    return bad(at + "unknown override " + name);
                r.overrides[name] = parseUnsigned(key, value);
            } else if (key == "oracle") {
                if (!oracleKindFromName(value, &r.oracle))
                    return bad(at + "unknown oracle name: " + value);
            } else if (key == "bug") {
                if (!protocolBugFromName(value, &r.bug))
                    return bad(at + "unknown bug name: " + value);
            } else if (key == "fault") {
                if (!artifactFaultFromName(value, &r.fault))
                    return bad(at + "unknown fault name: " + value);
            } else if (key == "signature") {
                r.signature = value;
            } else if (key == "config_signature") {
                const char *end = value.data() + value.size();
                if (value.size() != 18 || value.rfind("0x", 0) != 0 ||
                    std::from_chars(value.data() + 2, end,
                                    r.config_signature, 16)
                            .ptr != end)
                    return bad(at + "config_signature wants 0x and 16 hex "
                                    "digits, got \"" + value + "\"");
            } else if (key == "detail") {
                r.detail = value;
            } else {
                return bad(at + "unknown key \"" + key + "\"");
            }
        } catch (const ConfigError &) {
            return bad(at + key + " wants a decimal integer, got \"" +
                       value + "\"");
        }
    }
    if (!seen.count("config_seed"))
        return bad("missing config_seed");
    if (!seen.count("oracle"))
        return bad("missing oracle");
    if (r.space.min_instructions > r.space.max_instructions)
        return bad("space.min_instructions exceeds "
                   "space.max_instructions");
    *out = std::move(r);
    return true;
}

core::SimConfig
reproConfig(const ReproFile &r)
{
    Rng rng(r.config_seed);
    core::SimConfig cfg = core::randomSimConfig(rng, r.space);
    for (const auto &[key, value] : r.overrides) {
        if (!core::applyConfigOverride(cfg, key, value))
            throw ConfigError("override." + key,
                              "the override catalog refuses value " +
                                  std::to_string(value));
    }
    cfg.validate();
    return cfg;
}

OracleVerdict
replayRepro(const ReproFile &r)
{
    PanicThrowGuard guard;
    FuzzOptions opts;
    opts.space = r.space;
    opts.inject_bug = r.bug;
    opts.inject_fault = r.fault;
    return runOracleKind(opts, r.oracle, reproConfig(r), /*bisect=*/true);
}

namespace {

/**
 * The self-check machine: small enough to run in seconds, hot enough
 * to exercise every seeded protocol bug -- multi-node OLTP sharing for
 * the fabric bugs, RC + speculative loads on an OoO core for the
 * consistency bugs.
 */
core::SimConfig
selfCheckConfig()
{
    // Empirically chosen (by fuzzing the mutants themselves): 8 nodes
    // of narrow OoO cores over small 32-byte-line caches with the
    // migratory optimization off maximizes plain Shared-state traffic
    // and speculative-load exposure, which is what the two subtle
    // mutants (lost-sharer-bit, skipped-spec-squash) need before their
    // effects become architecturally visible.
    core::SimConfig cfg =
        core::makeScaledConfig(core::WorkloadKind::Oltp, 8);
    cfg.system.node.l1i.line_bytes = 32;
    cfg.system.node.l1d.line_bytes = 32;
    cfg.system.node.l1d.size_bytes = 16 * 1024;
    cfg.system.node.l1d.assoc = 2;
    cfg.system.node.l1d.mshrs = 4;
    cfg.system.node.l2.line_bytes = 32;
    cfg.system.core.fetch_line_bytes = 32;
    cfg.system.core.out_of_order = true;
    cfg.system.core.issue_width = 1;
    cfg.system.core.window_size = 16;
    cfg.system.core.model = cpu::ConsistencyModel::RC;
    cfg.system.core.cons.spec_loads = true;
    cfg.system.core.cons.hw_prefetch = false;
    cfg.system.fabric.adaptive_migratory = false;
    cfg.system.fabric.flush_invalidates = false;
    cfg.oltp.num_procs = 16;
    cfg.oltp.local_branch_prob = 0.85;
    cfg.oltp.buffer_zipf_skew = 1.0; // hot lines for the fabric bugs
    cfg.total_instructions = 50'000;
    cfg.warmup_instructions = 0;
    cfg.system.state_hash_interval = 4000;
    cfg.validate();
    return cfg;
}

} // namespace

bool
fuzzSelfCheck(std::ostream &log, const std::string &repro_dir)
{
    PanicThrowGuard guard;
    bool all_ok = true;
    const auto check = [&log, &all_ok](const std::string &name, bool pass,
                                       const std::string &why = {}) {
        log << "self-check: " << name << ": " << (pass ? "ok" : "FAIL");
        if (!pass && !why.empty())
            log << " -- " << why;
        log << "\n";
        all_ok = all_ok && pass;
    };

    const core::SimConfig cfg = selfCheckConfig();
    const std::unique_ptr<Engine> serial = makeSerialEngine();

    // 1. The differential harness on identical engines must agree.
    {
        const std::unique_ptr<Engine> twin = makeSerialEngine();
        const OracleVerdict v = compareEngines(*serial, *twin, cfg, true);
        check("differential serial-vs-self identical", v.ok,
              firstLine(v.detail));
    }

    // 2. Every catalogued protocol bug must be rediscovered, and must
    // actually have fired (a detection claim with zero triggers means
    // the config never exercised the decision point).
    for (const ProtocolBug b : kProtocolBugs) {
        const std::unique_ptr<Engine> mut = makeMutantEngine(b);
        // Bisect one of them to exercise the cycle-localization path;
        // epoch-granularity detection is enough evidence for the rest.
        const bool bisect = b == ProtocolBug::DroppedInvalidation;
        const OracleVerdict v = compareEngines(*serial, *mut, cfg, bisect);
        std::string why;
        if (v.ok)
            why = "divergence not detected";
        else if (v.cand_bug_triggers == 0)
            why = "bug never triggered: " + firstLine(v.detail);
        check(std::string("mutant ") + protocolBugName(b),
              !v.ok && v.cand_bug_triggers > 0, why);
    }

    // 3. Artifact faults: clean artifacts pass conservation, each
    // seeded fault class fails it.
    {
        RunArtifacts base;
        bool have = false;
        try {
            base = serial->execute(cfg);
            have = true;
        } catch (const std::exception &e) {
            check("conservation base run", false, firstLine(e.what()));
        }
        if (have) {
            check("conservation clean pass",
                  checkConservation(cfg, base).ok);
            for (const ArtifactFault f :
                 {ArtifactFault::BreakdownLeak, ArtifactFault::CounterSkew,
                  ArtifactFault::EpochHashDrop}) {
                RunArtifacts faulty = base;
                applyArtifactFault(faulty, f);
                const OracleVerdict v = checkConservation(cfg, faulty);
                check(std::string("fault ") + artifactFaultName(f), !v.ok,
                      "conservation oracle missed the fault");
            }
        }
    }

    // 4. Checkpoint round-trip: clean passes, a byte flip is caught.
    {
        const OracleVerdict clean = checkCheckpointRoundTrip(cfg, 0);
        check("checkpoint round-trip clean", clean.ok,
              firstLine(clean.detail));
        const OracleVerdict corrupt = checkCheckpointRoundTrip(cfg, 1234);
        check("checkpoint byte-flip caught", !corrupt.ok,
              "round-trip oracle missed the corruption");
    }

    // 5. A seeded-fault campaign of one case must fail, shrink, and
    // write a repro that replays to the same bucket.
    {
        FuzzOptions fo;
        fo.seed = 7;
        fo.count = 1;
        fo.inject_fault = ArtifactFault::BreakdownLeak;
        fo.oracle_checkpoint = false;
        fo.oracle_coherence = false;
        fo.repro_dir = repro_dir;
        fo.max_shrink_runs = 24;
        const FuzzReport fr = runFuzz(fo, nullptr);
        const bool caught = fr.buckets.size() == 1 &&
                            fr.buckets.front().oracle ==
                                OracleKind::Conservation;
        check("seeded fault fuzz case caught", caught);
        const TriageBucket fb = caught ? fr.buckets.front() : TriageBucket{};
        check("seeded fault case shrunk", !fb.shrink_overrides.empty());
        bool replay_ok = false;
        std::string why;
        if (fb.repro_path.empty()) {
            why = "no repro file written";
        } else {
            std::ifstream is(fb.repro_path, std::ios::binary);
            std::ostringstream buf;
            buf << is.rdbuf();
            ReproFile rf;
            std::string err;
            if (!parseRepro(buf.str(), &rf, &err)) {
                why = err;
            } else {
                const OracleVerdict v = replayRepro(rf);
                replay_ok = !v.ok && v.signature == rf.signature;
                if (!replay_ok)
                    why = v.ok ? "replay did not reproduce"
                               : "replay signature drifted: " + v.signature;
            }
            std::remove(fb.repro_path.c_str());
        }
        check("repro replay reproduces", replay_ok, why);
    }

    // 6. A small campaign is clean and renders byte-identically at
    // jobs 1 and jobs 4.
    {
        FuzzOptions fo;
        fo.seed = 99;
        fo.count = 6;
        fo.space.max_instructions = 30'000;
        fo.jobs = 1;
        const FuzzReport r1 = runFuzz(fo, nullptr);
        const std::string render1 = renderFuzzReport(fo, r1);
        fo.jobs = 4;
        const FuzzReport r4 = runFuzz(fo, nullptr);
        const std::string render4 = renderFuzzReport(fo, r4);
        check("mini campaign clean", r1.ok() && r4.ok());
        check("report identical across jobs 1/4", render1 == render4);
    }

    log << "self-check: " << (all_ok ? "all checks passed" : "FAILURES")
        << "\n";
    return all_ok;
}

} // namespace dbsim::verify
