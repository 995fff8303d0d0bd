#!/usr/bin/env python3
"""Append simbench results to the committed benchmark history.

BENCH_simbench.json at the root of the repository keeps one entry per
(commit, workload) measurement, in the order they were taken.  Entries
are only ever appended: an existing entry is never rewritten or dropped,
so the file is the trajectory of the simulator's speed across changes.

Each entry holds the commit (and the source hash simbench computed, which
also tells apart an uncommitted working tree), the workload, the
load-corrected sim_mips median and quartiles of an untraced run, its
load-corrected setup_s median and its peak_rss_mb, and the
host-independent counts of a traced run (the metrics simbench's README
marks "(exact)").  Entries older than the setup_s and peak_rss_mb fields
lack them.

Run simbench first, untraced and traced, at seed 1:

    python3 simbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 simbench/run.py --workload all --seed 1 --seconds 5 --trace 1
    python3 tools/bench_history.py --label "what changed" \\
        [--results DIR] [--commit SHA]

--results names another checkout's .bench_build/results (a parent
measured in a scratch clone); --commit labels a measurement of an
uncommitted tree, which simbench records under its parent's commit.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache inside simbench/
sys.path.insert(0, str(ROOT / "simbench"))
import run as simbench  # noqa: E402  (simbench/run.py)

SCHEMA = "dbsim-simbench-history-v1"
HISTORY = ROOT / "BENCH_simbench.json"
SEED = 1
WORKLOADS = ("oltp-4n", "oltp-1n", "dss-4n")
EXACT = (
    "workload.records", "sim.cycles", "sim.ipc", "sim.context_switches",
    "sim.lock_spin_retries", "sim.lock_yields", "cpu.ticks_per_instr",
    "cpu.skipped_cycle_frac", "cpu.branch_mispredict_rate",
    "cpu.spec_load_violations", "memory.l1d_accesses_per_instr",
    "memory.l1i_fetches_per_instr", "memory.l2_miss_rate",
    "coherence.transactions", "coherence.dirty_misses",
    "coherence.invalidations", "coherence.dir_entries",
    "interconnect.link_wait_cycles",
)


def entry(results, workload, label, commit):
    untraced = json.loads(
        (results / f"{workload}-seed{SEED}-trace0.json").read_text())
    traced = json.loads(
        (results / f"{workload}-seed{SEED}-trace1.json").read_text())
    report = untraced["report"]
    samples = report["samples"]
    if not samples or untraced["result"]["failed"]:
        raise SystemExit(f"{workload}: the untraced run has no clean samples")
    mips = [s["retired"] / s["run_s"] / 1e6 * s["ref_s"] / simbench.REFERENCE_S
            for s in samples]
    q1, q3 = simbench.quartiles(mips)
    metrics, _ = simbench.end_to_end(report)
    layers = traced["report"]["layers"]
    prov = untraced["provenance"]
    return {
        "commit": commit or prov["git_commit"],
        "source_sha256": prov["source_sha256"],
        "label": label,
        "workload": workload,
        "seed": SEED,
        "host": {k: prov[k] for k in ("cpu", "nproc", "compiler",
                                      "build_type")},
        "sim_mips": {"median": statistics.median(mips), "q1": q1, "q3": q3,
                     "samples": len(mips), "unit": "Minstr/s"},
        "setup_s": {"median": metrics["setup_s"]["value"], "unit": "s"},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"]["value"],
                        "unit": "MB"},
        "exact": {k: layers[k]["value"] for k in EXACT},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--results", type=Path,
                    default=ROOT / ".bench_build" / "results")
    ap.add_argument("--commit", help="default: the commit simbench recorded")
    args = ap.parse_args()

    history = {"schema": SCHEMA, "entries": []}
    if HISTORY.exists():
        history = json.loads(HISTORY.read_text())
        if history.get("schema") != SCHEMA:
            raise SystemExit(f"{HISTORY}: not a {SCHEMA} file")
    for w in WORKLOADS:
        history["entries"].append(
            entry(args.results, w, args.label, args.commit))
    HISTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"{HISTORY}: {len(history['entries'])} entries")


if __name__ == "__main__":
    main()
