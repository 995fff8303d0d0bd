/**
 * @file
 * dbsim-diverge: run one configuration on two engines and localize the
 * first cycle at which their machine states diverge (DESIGN.md §5g).
 *
 * A thin front end over verify::localizeDivergence: side A is
 * verify::makeSerialEngine(), side B verify::makeMutantEngine() with
 * the bug named by --b-bug (none by default).  Both sides run with
 * epoch state-hashing every --epoch-interval cycles; the localizer
 * finds the first divergent epoch and bisects it to a cycle with
 * stop_at_cycle probes, and the tool dumps both machine states at that
 * cycle:
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
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/cli_guard.hpp"
#include "core/config.hpp"
#include "verify/oracles.hpp"

namespace {

using namespace dbsim;

/** What one comparison found. */
struct Outcome
{
    bool found = false;
    Cycles cycle = 0;             ///< first divergent cycle (when found)
    std::uint64_t b_triggers = 0; ///< side B's bug trigger count
};

bool
writeDump(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

/** Run @p cfg on both engines, print what the localizer finds, and
 *  dump both machine states at the first divergent cycle. */
Outcome
diverge(const verify::Engine &a, const verify::Engine &b,
        const core::SimConfig &cfg, const std::string &dump_prefix)
{
    const verify::RunArtifacts ra = a.execute(cfg);
    const verify::RunArtifacts rb = b.execute(cfg);
    const std::vector<sim::EpochHash> &ea = ra.result.epoch_hashes;
    const std::vector<sim::EpochHash> &eb = rb.result.epoch_hashes;
    std::cout << "epochs: A=" << ea.size() << " B=" << eb.size()
              << " (interval " << cfg.system.state_hash_interval
              << " cycles)\n";

    const verify::Divergence d =
        verify::localizeDivergence(a, b, cfg, ra, rb, /*bisect=*/true);
    Outcome out;
    out.b_triggers = rb.bug_triggers;
    switch (d.kind) {
    case verify::Divergence::Kind::None:
        std::cout << "no divergence: all " << ea.size()
                  << " epoch hashes identical\n";
        return out;
    case verify::Divergence::Kind::Lengths:
        std::cout << "divergence: hash streams agree for " << d.index
                  << " epochs, then lengths differ (" << ea.size()
                  << " vs " << eb.size() << ")\n";
        out.cycle = d.index ? ea[d.index - 1].epoch : 0;
        break;
    case verify::Divergence::Kind::Epoch: {
        std::ostringstream ha, hb;
        ha << std::hex << ea[d.index].hash;
        hb << std::hex << eb[d.index].hash;
        std::cout << "first divergent epoch: cycle " << ea[d.index].epoch
                  << " (epoch index " << d.index << "; A=0x" << ha.str()
                  << " B=0x" << hb.str() << ")\n";
        out.cycle = ea[d.index].epoch;
        if (d.first_cycle) {
            std::cout << "bisect: states identical at cycle "
                      << d.identical_at << ", first divergent probe at cycle "
                      << d.first_cycle << "\n";
            out.cycle = d.first_cycle;
        } else {
            std::cout << "divergence at the first epoch boundary: the "
                         "two sides differ from their initial state\n";
        }
        break;
    }
    case verify::Divergence::Kind::CountersOnly:
        std::cout << "divergence: all " << ea.size()
                  << " epoch hashes identical, counters differ\n";
        out.cycle = ra.final_cycle;
        break;
    }
    out.found = true;

    if (dump_prefix != "none") {
        const Cycles at = out.cycle ? out.cycle : 1;
        std::string da, db;
        a.probe(cfg, at, &da);
        b.probe(cfg, at, &db);
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
    return out;
}

core::SimConfig
smallConfig(core::WorkloadKind kind, std::uint32_t nodes,
            std::uint64_t instructions, Cycles epoch_interval)
{
    core::SimConfig cfg = core::makeScaledConfig(kind, nodes);
    cfg.total_instructions = instructions;
    cfg.warmup_instructions = 0;
    cfg.system.state_hash_interval = epoch_interval;
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

    const core::SimConfig cfg =
        smallConfig(core::WorkloadKind::Oltp, 2, 30000, 2000);
    const std::unique_ptr<verify::Engine> a = verify::makeSerialEngine();

    std::cout << "scenario: identical configurations\n";
    const Outcome same =
        diverge(*a, *verify::makeSerialEngine(), cfg, "none");
    check(!same.found, "identical configs produce zero divergence");

    std::cout << "scenario: seeded dropped-invalidation in side B\n";
    const Outcome bug = diverge(
        *a, *verify::makeMutantEngine(verify::ProtocolBug::DroppedInvalidation),
        cfg, "none");
    check(bug.found, "seeded bug produces a divergence");
    check(bug.b_triggers > 0, "the seeded bug actually fired (triggers=" +
                                  std::to_string(bug.b_triggers) + ")");
    check(bug.cycle > 0, "bisected first divergent cycle is nonzero (" +
                             std::to_string(bug.cycle) + ")");

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
        verify::ProtocolBug b_bug = verify::ProtocolBug::None;
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
            else if (arg == "--b-bug") {
                const std::string name = value();
                if (!verify::protocolBugFromName(name, &b_bug))
                    throw ConfigError("cli.bug", "unknown protocol bug \"" +
                                                     name + "\"");
            } else if (arg == "--instructions")
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

        const core::WorkloadKind kind =
            core::parseChoice("--workload", workload, {"oltp", "dss"})
                ? core::WorkloadKind::Dss
                : core::WorkloadKind::Oltp;
        const core::SimConfig cfg =
            smallConfig(kind, nodes, instructions, epoch_interval);
        std::cout << "dbsim-diverge\n  A: " << describe(cfg)
                  << "\n  B: " << describe(cfg)
                  << (b_bug != verify::ProtocolBug::None
                          ? std::string(" [bug ") +
                                verify::protocolBugName(b_bug) + "]"
                          : "")
                  << "\n";

        const Outcome out = diverge(*verify::makeSerialEngine(),
                                    *verify::makeMutantEngine(b_bug), cfg,
                                    dump_prefix);
        return out.found ? 1 : 0;
    } catch (const ConfigError &e) {
        std::cerr << "dbsim-diverge: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "dbsim-diverge: " << e.what() << "\n";
        return 2;
    }
}
