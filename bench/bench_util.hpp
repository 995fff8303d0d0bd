/**
 * @file
 * Shared harness for the figure-reproduction benchmarks.
 *
 * Every bench builds declarative SweepItem lists (one per figure
 * section), runs them through core::SweepRunner -- in parallel across
 * host threads, deterministically -- and prints the same text reports
 * as before from the returned results.  The harness also owns the
 * flags every bench shares:
 *
 *   --jobs N              bound the number of concurrent simulations
 *                         (default: DBSIM_JOBS, then hardware concurrency)
 *   --json PATH           write every section's results as machine-readable
 *                         JSON (schema dbsim-bench-v3)
 *   --on-failure MODE     abort (default) or collect: keep going past a
 *                         failed item and record it in the report
 *
 * Any other argument must be one of the bench's own flags, or the bench
 * exits 2 naming it.
 *
 * Exit codes: 0 clean; 1 JSON write failure; 2 config rejection;
 * 3 invariant failure; core::kSweepPartialFailureExit (4) when a
 * collect sweep finished with failed items in the report.
 */

#ifndef DBSIM_BENCH_BENCH_UTIL_HPP
#define DBSIM_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <exception>
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
    bool collect_failures = false; ///< --on-failure collect
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
        if (flag == "--jobs") {
            opts.jobs = core::parseUnsigned<unsigned>(flag, v, 1);
        } else if (flag == "--json") {
            opts.json_path = v;
        } else { // --on-failure
            if (v != "abort" && v != "collect") {
                throw ConfigError("cli.on-failure",
                                  "--on-failure wants abort or collect, "
                                  "got \"" +
                                      v + "\"");
            }
            opts.collect_failures = v == "collect";
        }
    };
    const char *valued[] = {"--jobs", "--json", "--on-failure"};
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
 * One bench run: a SweepRunner plus the accumulated JSON report.
 * Sections call sweep(); main ends with `return ctx.finish();`.
 */
class BenchContext
{
  public:
    BenchContext(std::string bench_name, const BenchOptions &opts)
        : json_path_(opts.json_path), runner_(opts.jobs)
    {
        report_.bench = std::move(bench_name);
        report_.jobs = runner_.jobs();
        const core::FailurePolicy policy =
            opts.collect_failures ? core::FailurePolicy::collect()
                                  : core::FailurePolicy::abort();
        runner_.setFailurePolicy(policy);
        report_.failure_policy = policy.describe();
    }

    const core::SweepRunner &runner() const { return runner_; }

    /**
     * Run @p items (in parallel) and log them under @p section.  Returns
     * the successful results in input order; under the collect policy a
     * failed item is only recorded in the report, so the bench text
     * output degrades gracefully.  Under the abort policy a failure is
     * rethrown -- lowest index first -- after the section's other items
     * finished.
     */
    std::vector<core::SweepResult>
    sweep(const std::string &section,
          const std::vector<core::SweepItem> &items)
    {
        const core::SweepOutcome outcome = runner_.runChecked(items);
        report_.add(section, outcome);

        std::vector<core::SweepResult> ok;
        for (const core::SweepItemOutcome &o : outcome.items) {
            if (o.ok())
                ok.push_back(o.result);
            else if (!runner_.failurePolicy().isolating())
                std::rethrow_exception(o.error);
        }
        return ok;
    }

    /**
     * Write the JSON report if requested.  Returns the exit code: 1 when
     * the report could not be written (CI must fail loudly, never
     * upload a stale file), core::kSweepPartialFailureExit when items
     * failed under the collect policy, 0 otherwise.
     */
    int
    finish()
    {
        int code = 0;
        if (report_.failures() > 0) {
            std::cerr << "dbsim: sweep finished with "
                      << report_.failures() << " failed item(s) of "
                      << report_.entries.size() << " (policy "
                      << report_.failure_policy << ")\n";
            code = core::kSweepPartialFailureExit;
        }
        if (!json_path_.empty() &&
            !core::writeSweepJsonFile(json_path_, report_)) {
            code = 1;
        }
        return code;
    }

    const core::SweepReport &report() const { return report_; }

  private:
    std::string json_path_;
    core::SweepRunner runner_;
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
