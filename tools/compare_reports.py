#!/usr/bin/env python3
"""Field-exact comparison of two dbsim-bench JSON reports.

Asserts that two runs of a bench simulated the same thing, e.g. before
and after an engine change that must not move any statistic.
Host-timing fields (wall_seconds, sim_instructions_per_host_second) and
the worker count (jobs) are scrubbed before comparing -- they
legitimately differ between runs, and a run's results do not depend on
its --jobs; all simulated results (cycles, instructions, IPC,
breakdowns, miss rates, coherence counters) must match exactly.

Usage: compare_reports.py REFERENCE.json CANDIDATE.json
Exit status 0 when equivalent, 1 with a per-path diff otherwise.
"""

import argparse
import json
import sys

IGNORED = ("sim_instructions_per_host_second", "wall_seconds", "jobs")


def scrub(node, ignored):
    """Drop ignored keys recursively."""
    if isinstance(node, dict):
        return {
            k: scrub(v, ignored)
            for k, v in node.items()
            if k not in ignored
        }
    if isinstance(node, list):
        return [scrub(v, ignored) for v in node]
    return node


def diff(a, b, path, out, limit=50):
    """Collect up to `limit` per-path differences between a and b."""
    if len(out) >= limit:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != "
                   f"{type(b).__name__}")
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in candidate")
            elif k not in b:
                out.append(f"{path}.{k}: only in reference")
            else:
                diff(a[k], b[k], f"{path}.{k}", out, limit)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out, limit)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reference")
    ap.add_argument("candidate")
    args = ap.parse_args()

    docs = []
    for path in (args.reference, args.candidate):
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(scrub(json.load(f), IGNORED))
        except (OSError, json.JSONDecodeError) as e:
            print(f"compare_reports: {path}: {e}", file=sys.stderr)
            return 2

    findings = []
    diff(docs[0], docs[1], "$", findings)
    for f in findings:
        print(f)
    if findings:
        print(f"compare_reports: {len(findings)} difference(s) between "
              f"{args.reference} and {args.candidate}")
        return 1
    print(f"compare_reports: {args.reference} == {args.candidate} "
          f"(ignoring {', '.join(IGNORED)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
