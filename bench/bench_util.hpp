/**
 * @file
 * Shared harness for the figure-reproduction benchmarks.
 *
 * Every bench builds declarative SweepItem lists (one per figure
 * section), runs them through core::runSweep -- in parallel across
 * host threads, deterministically -- and prints the same text reports
 * as before from the returned results.  The harness also owns the
 * flags every bench shares:
 *
 *   --jobs N              bound the number of concurrent simulations
 *                         (default: DBSIM_JOBS, then hardware concurrency)
 *   --json PATH           write every section's results as machine-readable
 *                         JSON (schema dbsim-bench-v4)
 *
 * Any other argument must be one of the bench's own flags, or the bench
 * exits 2 naming it.
 *
 * A failed item fails the bench: every item of its section still runs,
 * then the lowest-index failure is rethrown and no report is written.
 * Exit codes: 0 clean; 1 JSON write failure; 2 config rejection;
 * 3 invariant failure.
 */

#ifndef DBSIM_BENCH_BENCH_UTIL_HPP
#define DBSIM_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "core/cli_guard.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"

namespace dbsim::bench {

/** Harness flags plus the bench-specific flags given. */
struct BenchOptions
{
    unsigned jobs = 0;       ///< 0 = resolve via DBSIM_JOBS / hardware
    std::string json_path;   ///< empty = no JSON report
    std::vector<std::string> rest; ///< bench-specific flags given

    bool
    has(const char *flag) const
    {
        for (const auto &a : rest)
            if (a == flag)
                return true;
        return false;
    }
};

/**
 * Parse the shared harness flags (each accepts both `--flag V` and
 * `--flag=V`) and the bench's own @p bench_flags, which are passed
 * through in `rest`.  Bad values and any other argument throw
 * ConfigError (guardedMain turns that into exit code 2).
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv,
               std::initializer_list<const char *> bench_flags = {})
{
    BenchOptions opts;
    auto apply = [&](const std::string &flag, const std::string &v) {
        if (flag == "--jobs")
            opts.jobs = core::parseUnsigned<unsigned>(flag, v, 1);
        else // --json
            opts.json_path = v;
    };
    const char *valued[] = {"--jobs", "--json"};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        bool consumed = false;
        for (const char *flag : valued) {
            if (a == flag) {
                if (i + 1 >= argc) {
                    throw ConfigError("cli." + std::string(flag + 2),
                                      a + " needs a value");
                }
                apply(flag, argv[++i]);
                consumed = true;
                break;
            }
            const std::string eq = std::string(flag) + "=";
            if (a.rfind(eq, 0) == 0) {
                apply(flag, a.substr(eq.size()));
                consumed = true;
                break;
            }
        }
        if (consumed)
            continue;
        if (std::find(bench_flags.begin(), bench_flags.end(), a) ==
            bench_flags.end())
            throw ConfigError("cli", "unknown flag \"" + a + "\"");
        opts.rest.push_back(a);
    }
    return opts;
}

/**
 * One bench run: the resolved job count plus the accumulated JSON
 * report.  Sections call sweep(); main ends with `return ctx.finish();`.
 */
class BenchContext
{
  public:
    BenchContext(std::string bench_name, const BenchOptions &opts)
        : json_path_(opts.json_path)
    {
        report_.bench = std::move(bench_name);
        report_.jobs = core::resolveJobs(opts.jobs);
    }

    /**
     * Run @p items (in parallel) and log them under @p section.  Returns
     * the results in input order; a failure is rethrown -- lowest index
     * first -- after the section's other items finished.
     */
    std::vector<core::SweepResult>
    sweep(const std::string &section,
          const std::vector<core::SweepItem> &items)
    {
        std::vector<core::SweepResult> results =
            core::runSweep(items, report_.jobs);
        report_.add(section, results);
        return results;
    }

    /**
     * Write the JSON report if requested.  Returns the exit code: 1 when
     * the report could not be written (CI must fail loudly, never
     * upload a stale file), 0 otherwise.
     */
    int
    finish() const
    {
        if (!json_path_.empty() &&
            !core::writeSweepJsonFile(json_path_, report_))
            return 1;
        return 0;
    }

  private:
    std::string json_path_;
    core::SweepReport report_;
};

/** The figure rows of a result list, in sweep order. */
inline std::vector<core::BreakdownRow>
rowsOf(const std::vector<core::SweepResult> &results)
{
    std::vector<core::BreakdownRow> rows;
    rows.reserve(results.size());
    for (const auto &r : results)
        rows.push_back(r.row());
    return rows;
}

} // namespace dbsim::bench

#endif // DBSIM_BENCH_BENCH_UTIL_HPP
