/**
 * @file
 * dbsim-fuzz: deterministic property-based simulation fuzzing
 * (DESIGN.md §5i).
 *
 * Generates `--count` random valid configurations from `--seed` and
 * runs each through the invariant-oracle suite (conservation,
 * determinism, checkpoint round-trip, coherence; plus the differential
 * harness when a mutant is injected).  Failures are triaged into
 * buckets; each bucket is shrunk over the one override table
 * (core::configOverrides()) and written as one replayable
 * repro-<hash>.txt file of `key value` lines (dbsim-fuzz-repro-v2).
 *
 *   dbsim-fuzz --seed 1 --count 200 --jobs 4 --repro-dir repros
 *   dbsim-fuzz --replay repros/repro-0123456789abcdef.txt
 *   dbsim-fuzz --self-check        # its seeded repro goes to --repro-dir
 *
 * Exit codes: 0 = corpus clean (or replay no longer reproduces),
 * 1 = failures found (or replay reproduced), 2 = bad flags / IO error.
 *
 * DBSIM_CHECK is cleared at startup (the dbsim-diverge idiom): the
 * coherence oracle and injected mutants arm the checker per-run
 * themselves; an ambient checker would abort deliberately-buggy runs
 * before their verdicts exist.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/errors.hpp"
#include "core/cli_guard.hpp"
#include "core/sweep.hpp"
#include "verify/fuzzer.hpp"

namespace {

int
usageError(const std::string &msg)
{
    std::cerr << "dbsim-fuzz: " << msg << "\n"
              << "usage: dbsim-fuzz [--seed N] [--count N] [--jobs N]\n"
              << "                  [--json FILE] [--repro-dir DIR]\n"
              << "                  [--inject-bug NAME]\n"
              << "                  [--inject-fault NAME] [--self-check]\n"
              << "                  [--replay FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsim;
    using namespace dbsim::verify;
    using core::parseUnsigned;

#ifdef _WIN32
    _putenv("DBSIM_CHECK=");
#else
    unsetenv("DBSIM_CHECK");
#endif

    try {
        FuzzOptions opts;
        opts.repro_dir = ".";
        std::string json_path;
        std::string replay_path;
        bool self_check = false;

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw ConfigError("cli", arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--seed")
                opts.seed = parseUnsigned(arg, value());
            else if (arg == "--count")
                opts.count = parseUnsigned<std::uint32_t>(arg, value());
            else if (arg == "--jobs")
                opts.jobs = parseUnsigned<std::uint32_t>(arg, value(), 1,
                                                         core::kMaxJobs);
            else if (arg == "--json")
                json_path = value();
            else if (arg == "--repro-dir")
                opts.repro_dir = value();
            else if (arg == "--inject-bug") {
                const std::string name = value();
                if (!protocolBugFromName(name, &opts.inject_bug))
                    throw ConfigError("cli.inject-bug",
                                      "unknown bug name " + name);
            } else if (arg == "--inject-fault") {
                const std::string name = value();
                if (!artifactFaultFromName(name, &opts.inject_fault))
                    throw ConfigError("cli.inject-fault",
                                      "unknown fault name " + name);
            } else if (arg == "--replay")
                replay_path = value();
            else if (arg == "--self-check")
                self_check = true;
            else
                return usageError("unknown flag " + arg);
        }

        // Repro files are a campaign's whole point on failure, and the
        // self-check writes one too: make sure their directory exists
        // rather than warning and dropping them at write time.
        std::error_code ec;
        std::filesystem::create_directories(opts.repro_dir, ec);
        if (ec)
            return usageError("cannot create repro dir " +
                              opts.repro_dir + ": " + ec.message());

        if (self_check) {
            const bool ok = fuzzSelfCheck(std::cout, opts.repro_dir);
            return ok ? 0 : 1;
        }

        if (!replay_path.empty()) {
            std::ifstream is(replay_path, std::ios::binary);
            if (!is)
                return usageError("cannot read " + replay_path);
            std::ostringstream buf;
            buf << is.rdbuf();
            ReproFile rf;
            std::string err;
            if (!parseRepro(buf.str(), &rf, &err))
                return usageError(replay_path + ": " + err);
            std::cout << "dbsim-fuzz: replaying " << replay_path
                      << "\n  oracle " << oracleName(rf.oracle)
                      << ", seed 0x" << std::hex << rf.config_seed
                      << std::dec << ", " << rf.overrides.size()
                      << " overrides\n  recorded: [" << rf.signature
                      << "] " << rf.detail << "\n";
            const OracleVerdict v = replayRepro(rf);
            if (v.ok) {
                std::cout << "dbsim-fuzz: replay PASSED -- the recorded "
                             "failure no longer reproduces\n";
                return 0;
            }
            std::cout << "dbsim-fuzz: replay REPRODUCED [" << v.signature
                      << "]\n"
                      << v.detail << "\n";
            if (!v.dump_excerpt.empty())
                std::cout << "--- dump excerpt ---\n"
                          << v.dump_excerpt << "\n";
            return 1;
        }

        std::cerr << "dbsim-fuzz: seed " << opts.seed << ", "
                  << opts.count << " configs, jobs " << opts.jobs
                  << "\n";
        const FuzzReport rep = runFuzz(opts, &std::cerr);
        const std::string rendered = renderFuzzReport(opts, rep);
        if (!json_path.empty()) {
            std::ofstream os(json_path,
                             std::ios::binary | std::ios::trunc);
            if (!os)
                return usageError("cannot write " + json_path);
            os << rendered;
        } else {
            std::cout << rendered;
        }
        std::cerr << "dbsim-fuzz: " << rep.count << " cases, "
                  << rep.failed_cases << " failed, " << rep.buckets.size()
                  << " buckets\n";
        for (const TriageBucket &b : rep.buckets) {
            std::cerr << "  [" << b.signature << "] x" << b.count
                      << " first at case " << b.first_index;
            if (!b.repro_path.empty())
                std::cerr << " repro " << b.repro_path;
            std::cerr << "\n";
        }
        return rep.ok() ? 0 : 1;
    } catch (const ConfigError &e) {
        std::cerr << "dbsim-fuzz: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "dbsim-fuzz: " << e.what() << "\n";
        return 2;
    }
}
