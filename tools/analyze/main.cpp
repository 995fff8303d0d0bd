/**
 * @file
 * dbsim-analyze CLI.
 *
 * Default invocation (from the repo root, or with --root):
 *
 *     dbsim-analyze --root /path/to/repo
 *
 * scans <root>/src with all rules, indexes <root>/{tests,bench,tools,
 * examples} for counter usage, applies <root>/tools/analyze/baseline.txt,
 * prints findings as text, and exits 1 if any survive.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"

namespace {

int
usage(std::ostream &os, int code)
{
    os << "usage: dbsim-analyze [options]\n"
          "  --root DIR         repo root (default: .); scans DIR/src\n"
          "  --src DIR          scan DIR instead of <root>/src (also\n"
          "                     disables default usage roots/baseline)\n"
          "  --usage-root DIR   extra root indexed for counter usage\n"
          "                     (repeatable)\n"
          "  --rules a,b,c      run only these rules\n"
          "  --list-rules       print the rule catalog and exit\n"
          "  --baseline FILE    baseline file ('none' to disable)\n"
          "  --write-baseline   rewrite the baseline with current "
          "findings\n"
          "  --sarif FILE       also write a SARIF 2.1.0 report ('-' = "
          "stdout)\n"
          "  --quiet            suppress the summary line on success\n"
          "exit status: 0 clean, 1 findings, 2 usage/IO error\n";
    return code;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream ss(s);
    while (std::getline(ss, cur, ','))
        if (!cur.empty())
            out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsim::analyze;

    std::string root = ".";
    std::string src;
    std::string baseline;
    std::string sarif_path;
    bool baseline_set = false;
    bool quiet = false;
    Options opt;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "dbsim-analyze: " << arg
                          << " needs an argument\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root")
            root = next();
        else if (arg == "--src")
            src = next();
        else if (arg == "--usage-root")
            opt.usage_roots.push_back(next());
        else if (arg == "--rules")
            for (std::string &r : splitCommas(next()))
                opt.rules.push_back(std::move(r));
        else if (arg == "--baseline") {
            baseline = next();
            baseline_set = true;
        } else if (arg == "--write-baseline")
            opt.write_baseline = true;
        else if (arg == "--sarif")
            sarif_path = next();
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--list-rules") {
            for (const RuleInfo &r : ruleCatalog())
                std::cout << r.id << "  [" << r.family << "]\n    "
                          << r.description << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        else {
            std::cerr << "dbsim-analyze: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        }
    }

    if (!src.empty()) {
        opt.corpus_root = src;
        // --src mode is for fixtures/tests: no implicit usage roots or
        // baseline, everything explicit.
    } else {
        opt.corpus_root = root + "/src";
        for (const char *aux : {"tests", "bench", "tools", "examples"})
            opt.usage_roots.push_back(root + "/" + aux);
        if (!baseline_set)
            baseline = root + "/tools/analyze/baseline.txt";
    }
    if (baseline != "none")
        opt.baseline_path = baseline;
    if (opt.write_baseline && opt.baseline_path.empty()) {
        std::cerr << "dbsim-analyze: --write-baseline needs a baseline "
                     "path\n";
        return 2;
    }

    Result result;
    std::string error;
    if (!runAnalysis(opt, result, error)) {
        std::cerr << "dbsim-analyze: " << error << "\n";
        return 2;
    }

    if (!sarif_path.empty()) {
        if (sarif_path == "-") {
            writeSarif(std::cout, result);
        } else {
            std::ofstream out(sarif_path);
            if (!out) {
                std::cerr << "dbsim-analyze: cannot write " << sarif_path
                          << "\n";
                return 2;
            }
            writeSarif(out, result);
        }
    }

    if (!result.findings.empty() || !quiet)
        writeText(result.findings.empty() ? std::cout : std::cerr, result);
    return result.findings.empty() ? 0 : 1;
}
