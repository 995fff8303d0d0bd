#!/usr/bin/env python3
"""End-to-end test of a bench's --json report: runs the bench given on
the command line with --jobs 3 and checks the document it writes.

The report must have schema dbsim-bench-v4, carry no per-item status or
failure fields, hold one entry per item (`items == len(results)`), and
index each section's entries 0..n-1 in order.

Usage: test_bench_report.py BENCH_BINARY
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

GONE = ("status", "error", "failures", "failure_policy")


def keys(node):
    """Every object key in the document, at any depth."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from keys(v)
    elif isinstance(node, list):
        for v in node:
            yield from keys(v)


def problems(doc, bench):
    """What is wrong with report `doc` of bench `bench`, one line each."""
    out = []
    if doc.get("schema") != "dbsim-bench-v4":
        out.append(f"schema {doc.get('schema')!r}, want 'dbsim-bench-v4'")
    if doc.get("bench") != bench:
        out.append(f"bench {doc.get('bench')!r}, want {bench!r}")
    if doc.get("jobs") != 3:
        out.append(f"jobs {doc.get('jobs')!r}, want 3")
    results = doc.get("results", [])
    if not results:
        out.append("no results")
    if doc.get("items") != len(results):
        out.append(f"items {doc.get('items')!r} != {len(results)} results")
    found = set(keys(doc))
    out += [f"key {k!r} present" for k in GONE if k in found]
    sections = {}
    for entry in results:
        sections.setdefault(entry.get("section"), []).append(
            entry.get("index"))
    for section, indices in sections.items():
        if indices != list(range(len(indices))):
            out.append(f"section {section!r} indices {indices}")
    return out


def main():
    binary = Path(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        subprocess.run([str(binary), "--jobs", "3", "--json", str(path)],
                       check=True, stdout=subprocess.DEVNULL)
        doc = json.loads(path.read_text())
    found = problems(doc, binary.name)
    for line in found:
        print(f"{binary.name} report: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
