/**
 * @file
 * dbsim-analyze CLI.
 *
 * Default invocation (from the repo root, or with --root):
 *
 *     dbsim-analyze --root /path/to/repo
 *
 * scans <root>/src with all rules, indexes <root>/{tests,bench,tools,
 * examples} for counter usage, prints findings as text, and exits 1 if
 * any are not suppressed inline.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"

namespace {

int
usageError(const std::string &arg)
{
    std::cerr << "dbsim-analyze: unknown option " << arg << "\n"
              << "usage: dbsim-analyze [options]\n"
                 "  --root DIR         repo root (default: .); scans "
                 "DIR/src\n"
                 "  --rules a,b,c      run only these rules\n"
                 "  --list-rules       print the rule catalog and exit\n"
                 "exit status: 0 clean, 1 findings, 2 usage/IO error\n";
    return 2;
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
        else if (arg == "--rules")
            for (std::string &r : splitCommas(next()))
                opt.rules.push_back(std::move(r));
        else if (arg == "--list-rules") {
            for (const RuleInfo &r : ruleCatalog())
                std::cout << r.id << "  [" << r.family << "]\n    "
                          << r.description << "\n";
            return 0;
        } else
            return usageError(arg);
    }

    opt.corpus_root = root + "/src";
    for (const char *aux : {"tests", "bench", "tools", "examples"})
        opt.usage_roots.push_back(root + "/" + aux);

    Result result;
    std::string error;
    if (!runAnalysis(opt, result, error)) {
        std::cerr << "dbsim-analyze: " << error << "\n";
        return 2;
    }

    writeText(result.findings.empty() ? std::cout : std::cerr, result);
    return result.findings.empty() ? 0 : 1;
}
