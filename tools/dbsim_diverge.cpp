/**
 * @file
 * dbsim-diverge: run two configurations side-by-side and localize the
 * first cycle at which their machine states diverge (DESIGN.md §5g).
 *
 * Both sides run with epoch state-hashing enabled: every
 * --epoch-interval cycles the run loop records an FNV-1a hash of the
 * complete serialized machine state.  The tool compares the two hash
 * streams to find the first divergent epoch, then binary-searches
 * inside that epoch with stop_at_cycle re-runs (each probe runs both
 * sides from cycle 0 to the probe cycle and compares stateHash()),
 * and finally dumps both machine states at the first divergent cycle.
 *
 * Both sides run the same machine; a bug can be seeded into side B
 * through the verification layer's ProtocolMutator to reproduce "one
 * engine has a protocol bug -- where does it first perturb the
 * machine?":
 *
 *   --workload oltp|dss     both sides' workload          (default oltp)
 *   --nodes N               both sides' node count        (default 2)
 *   --b-bug NAME            protocol bug seeded into side B
 *                           (dropped-invalidation, stale-owner,
 *                           missing-downgrade, lost-sharer-bit,
 *                           skipped-spec-squash, reordered-release)
 *   --instructions N        per-side instruction budget  (default 60000)
 *   --epoch-interval N      state-hash cadence in cycles  (default 5000)
 *   --dump-prefix P         where the two divergent-state dumps go
 *                           (default dbsim-diverge; "none" disables)
 *   --self-check            run the built-in scenarios (see below)
 *
 * Exit codes: 0 when the two sides never diverge, 1 when a divergence
 * was found and localized, 2 on bad flags.  --self-check exits 0 only
 * if (a) two identical configs produce zero divergence and (b) a
 * seeded dropped-invalidation produces a nonzero first divergent
 * epoch that the bisector localizes to a cycle where the bug has
 * already fired.
 *
 * DBSIM_CHECK is cleared at startup: a seeded protocol bug is the
 * object of study here, and the coherence checker would (correctly)
 * abort the buggy run long before its hash stream could be compared.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/mutator.hpp"
#include "core/cli_guard.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "sim/diagnostics.hpp"

namespace {

using namespace dbsim;

/** One side of the comparison: a config plus an optional seeded bug. */
struct Side
{
    core::SimConfig cfg;
    verify::ProtocolBug bug = verify::ProtocolBug::None;
};

/** Hash stream + final state of one full run. */
struct RunTrace
{
    std::vector<sim::EpochHash> epochs;
    std::uint64_t bug_triggers = 0;
};

verify::ProtocolBug
parseBugName(const std::string &name)
{
    using verify::ProtocolBug;
    for (const ProtocolBug b :
         {ProtocolBug::None, ProtocolBug::DroppedInvalidation,
          ProtocolBug::StaleOwner, ProtocolBug::MissingDowngrade,
          ProtocolBug::LostSharerBit, ProtocolBug::SkippedSpecSquash,
          ProtocolBug::ReorderedRelease}) {
        if (name == verify::protocolBugName(b))
            return b;
    }
    throw ConfigError("cli.bug",
                      "unknown protocol bug \"" + name + "\"");
}

core::WorkloadKind
parseWorkloadName(const std::string &name)
{
    return core::parseChoice("--workload", name, {"oltp", "dss"})
               ? core::WorkloadKind::Dss
               : core::WorkloadKind::Oltp;
}

/**
 * Run @p side to completion (or to @p stop_at cycles when nonzero) and
 * return its epoch-hash stream; when @p final_hash / @p final_dump are
 * non-null they receive the machine's stateHash() / machineStateDump()
 * at the point the run ended.
 */
RunTrace
runSide(const Side &side, Cycles epoch_interval, Cycles stop_at,
        std::uint64_t *final_hash, std::string *final_dump)
{
    core::SimConfig cfg = side.cfg;
    cfg.system.state_hash_interval = stop_at ? 0 : epoch_interval;
    cfg.system.stop_at_cycle = stop_at;

    verify::ProtocolMutator mut;
    mut.bug = side.bug;
    if (side.bug != verify::ProtocolBug::None)
        cfg.system.core.mutator = &mut; // core-side decision points

    core::Simulation simulation(cfg);
    simulation.prepare();
    if (side.bug != verify::ProtocolBug::None)
        simulation.system().attachMutator(&mut); // fabric-side points
    simulation.run();

    RunTrace trace;
    trace.epochs = simulation.system().epochHashes();
    trace.bug_triggers = mut.triggers;
    if (final_hash)
        *final_hash = simulation.system().stateHash();
    if (final_dump)
        *final_dump = sim::machineStateDump(simulation.system());
    return trace;
}

/** True when the two sides' states differ at (the loop-top reaching)
 *  cycle @p c.  Each probe re-runs both sides from cycle zero. */
bool
divergedByCycle(const Side &a, const Side &b, Cycles c)
{
    std::uint64_t ha = 0, hb = 0;
    runSide(a, 0, c, &ha, nullptr);
    runSide(b, 0, c, &hb, nullptr);
    return ha != hb;
}

bool
writeDump(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

/** Full comparison: hash streams, bisection, dumps.  Returns the first
 *  divergent cycle, or 0 stored in @p found = false when identical. */
Cycles
diverge(const Side &a, const Side &b, Cycles epoch_interval,
        const std::string &dump_prefix, bool &found,
        std::uint64_t *b_triggers = nullptr)
{
    found = false;

    const RunTrace ta = runSide(a, epoch_interval, 0, nullptr, nullptr);
    const RunTrace tb = runSide(b, epoch_interval, 0, nullptr, nullptr);
    if (b_triggers)
        *b_triggers = tb.bug_triggers;

    std::cout << "epochs: A=" << ta.epochs.size()
              << " B=" << tb.epochs.size() << " (interval "
              << epoch_interval << " cycles)\n";

    const std::size_t n = std::min(ta.epochs.size(), tb.epochs.size());
    std::size_t k = 0;
    while (k < n && ta.epochs[k].epoch == tb.epochs[k].epoch &&
           ta.epochs[k].hash == tb.epochs[k].hash)
        ++k;
    if (k == n && ta.epochs.size() == tb.epochs.size()) {
        std::cout << "no divergence: all " << n
                  << " epoch hashes identical\n";
        return 0;
    }
    found = true;

    Cycles first_cycle = 0;
    if (k == n) {
        // One stream is a strict prefix of the other: the runs agree at
        // every shared boundary but one side ran longer.
        std::cout << "divergence: hash streams agree for " << n
                  << " epochs, then lengths differ ("
                  << ta.epochs.size() << " vs " << tb.epochs.size()
                  << ")\n";
        first_cycle = n ? ta.epochs[n - 1].epoch : 0;
    } else {
        std::ostringstream ha, hb;
        ha << std::hex << ta.epochs[k].hash;
        hb << std::hex << tb.epochs[k].hash;
        std::cout << "first divergent epoch: cycle "
                  << ta.epochs[k].epoch << " (epoch index " << k
                  << "; A=0x" << ha.str() << " B=0x" << hb.str()
                  << ")\n";
        first_cycle = ta.epochs[k].epoch;

        if (k > 0) {
            // Bisect inside (previous boundary, divergent boundary]:
            // the state is known identical at lo and divergent at hi.
            Cycles lo = ta.epochs[k - 1].epoch;
            Cycles hi = ta.epochs[k].epoch;
            while (hi - lo > 1) {
                const Cycles mid = lo + (hi - lo) / 2;
                if (divergedByCycle(a, b, mid))
                    hi = mid;
                else
                    lo = mid;
            }
            first_cycle = hi;
            std::cout << "bisect: states identical at cycle " << lo
                      << ", first divergent probe at cycle " << hi
                      << "\n";
        } else {
            std::cout << "divergence at the first epoch boundary: the "
                         "two sides differ from their initial state\n";
        }
    }

    if (dump_prefix != "none") {
        const Cycles at = first_cycle ? first_cycle : 1;
        std::uint64_t ha = 0, hb = 0;
        std::string da, db;
        runSide(a, 0, at, &ha, &da);
        runSide(b, 0, at, &hb, &db);
        const std::string pa = dump_prefix + "-a.txt";
        const std::string pb = dump_prefix + "-b.txt";
        if (writeDump(pa, da) && writeDump(pb, db)) {
            std::cout << "machine states at cycle " << at << ": " << pa
                      << ", " << pb << "\n";
        } else {
            std::cerr << "dbsim-diverge: could not write state dumps "
                      << pa << " / " << pb << "\n";
        }
    }
    return first_cycle;
}

core::SimConfig
smallConfig(core::WorkloadKind kind, std::uint32_t nodes,
            std::uint64_t instructions)
{
    core::SimConfig cfg = core::makeScaledConfig(kind, nodes);
    cfg.total_instructions = instructions;
    cfg.warmup_instructions = 0;
    return cfg;
}

/** The ctest scenarios; returns the process exit code. */
int
selfCheck()
{
    int failures = 0;
    const auto check = [&failures](bool ok, const std::string &what) {
        std::cout << (ok ? "  ok: " : "  FAIL: ") << what << "\n";
        if (!ok)
            ++failures;
    };

    const Cycles interval = 2000;
    Side a, b;
    a.cfg = b.cfg =
        smallConfig(core::WorkloadKind::Oltp, 2, 30000);

    std::cout << "scenario: identical configurations\n";
    bool found = false;
    diverge(a, b, interval, "none", found);
    check(!found, "identical configs produce zero divergence");

    std::cout << "scenario: seeded dropped-invalidation in side B\n";
    b.bug = verify::ProtocolBug::DroppedInvalidation;
    std::uint64_t triggers = 0;
    const Cycles cycle =
        diverge(a, b, interval, "none", found, &triggers);
    check(found, "seeded bug produces a divergence");
    check(triggers > 0, "the seeded bug actually fired (triggers=" +
                            std::to_string(triggers) + ")");
    check(cycle > 0, "bisected first divergent cycle is nonzero (" +
                         std::to_string(cycle) + ")");

    std::cout << (failures ? "dbsim-diverge self-check: FAILED\n"
                           : "dbsim-diverge self-check: all ok\n");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsim;

    // See the file comment: the coherence checker would abort a
    // deliberately-buggy side before its hash stream exists.
#ifdef _WIN32
    _putenv("DBSIM_CHECK=");
#else
    unsetenv("DBSIM_CHECK");
#endif

    try {
        std::string workload = "oltp";
        std::uint32_t nodes = 2;
        std::string b_bug;
        std::uint64_t instructions = 60000;
        Cycles epoch_interval = 5000;
        std::string dump_prefix = "dbsim-diverge";
        bool self_check = false;

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw ConfigError("cli", arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--workload")
                workload = value();
            else if (arg == "--nodes")
                nodes = core::parseUnsigned<std::uint32_t>(arg, value(), 1);
            else if (arg == "--b-bug")
                b_bug = value();
            else if (arg == "--instructions")
                instructions = core::parseUnsigned(arg, value());
            else if (arg == "--epoch-interval")
                epoch_interval = core::parseUnsigned<Cycles>(arg, value(), 1);
            else if (arg == "--dump-prefix")
                dump_prefix = value();
            else if (arg == "--self-check")
                self_check = true;
            else
                throw ConfigError("cli", "unknown flag " + arg);
        }

        if (self_check)
            return selfCheck();

        Side a, b;
        a.cfg = b.cfg = smallConfig(parseWorkloadName(workload), nodes,
                                    instructions);
        if (!b_bug.empty())
            b.bug = parseBugName(b_bug);

        std::cout << "dbsim-diverge\n  A: " << describe(a.cfg)
                  << "\n  B: " << describe(b.cfg)
                  << (b.bug != verify::ProtocolBug::None
                          ? std::string(" [bug ") +
                                verify::protocolBugName(b.bug) + "]"
                          : "")
                  << "\n";

        bool found = false;
        diverge(a, b, epoch_interval, dump_prefix, found);
        return found ? 1 : 0;
    } catch (const ConfigError &e) {
        std::cerr << "dbsim-diverge: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "dbsim-diverge: " << e.what() << "\n";
        return 2;
    }
}
