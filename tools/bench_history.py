#!/usr/bin/env python3
"""Append simbench results to the committed benchmark history, or check
a traced run's exact counts against it.

BENCH_simbench.json at the root of the repository keeps one entry per
(commit, workload) measurement, in the order they were taken.  Entries
are only ever appended: an existing entry is never rewritten or dropped,
so the file is the trajectory of the simulator's speed across changes.

Each entry holds the commit (and the source hash simbench computed, which
also tells apart an uncommitted working tree), the workload, the
load-corrected sim_mips median and quartiles of an untraced run, its
load-corrected setup_s median and its peak_rss_mb, and the
host-independent counts of a traced run (the metrics simbench's README
marks "(exact)").  Beside the corrected sim_mips median an entry keeps
the raw one and the median time of simbench's reference work (ref_s),
so the history shows when the load correction, not the code, moved a
number.  Entries older than a field lack it.

Run simbench first, untraced and traced, at seed 1:

    python3 simbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 simbench/run.py --workload all --seed 1 --seconds 5 --trace 1
    python3 tools/bench_history.py --label "what changed" \\
        [--results DIR] [--commit SHA]

--results names another checkout's .bench_build/results (a parent
measured in a scratch clone); --commit labels a measurement of an
uncommitted tree, which simbench records under its parent's commit.

    python3 tools/bench_history.py --check [--results DIR]

compares every exact count of each workload's traced seed-1 run with the
last history entry for that workload, and exits 1 naming each field that
differs (or a missing result or entry).  The counts do not depend on the
host or on --seconds, so a change that alters the simulator's work on
purpose appends its measured entry in the same change.  It also prints
whether that entry was measured on the source of the traced run (the
source_sha256 simbench recorded for each); the exit code does not
depend on it.
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


def load_history(path):
    if not path.exists():
        return {"schema": SCHEMA, "entries": []}
    history = json.loads(path.read_text())
    if history.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} file")
    return history


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
    raw = [s["retired"] / s["run_s"] / 1e6 for s in samples]
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
                     "samples": len(mips),
                     "raw_median": statistics.median(raw),
                     "unit": "Minstr/s"},
        "ref_s": {"median": statistics.median(s["ref_s"] for s in samples),
                  "unit": "s"},
        "setup_s": {"median": metrics["setup_s"]["value"], "unit": "s"},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"]["value"],
                        "unit": "MB"},
        "exact": {k: layers[k]["value"] for k in EXACT},
    }


def check(results, history_path):
    """Print one line per exact count of a traced seed-1 run in @results
    that differs from the last entry for its workload in @history_path,
    and one line per workload naming the source that entry measured;
    return the exit code (0 when every workload matches)."""
    entries = load_history(history_path)["entries"]
    problems = []
    for w in WORKLOADS:
        path = results / f"{w}-seed{SEED}-trace1.json"
        recorded = [e for e in entries if e["workload"] == w]
        if not path.is_file():
            problems.append(f"{w}: no traced result {path}; run simbench "
                            f"--seed {SEED} --trace 1 first")
            continue
        if not recorded:
            problems.append(f"{w}: no entry in {history_path}")
            continue
        traced = json.loads(path.read_text())
        last = recorded[-1]
        source = traced.get("provenance", {}).get("source_sha256")
        same = "the same as" if source == last.get("source_sha256") else \
            "not"
        print(f"bench_history: {w}: the last entry ({last.get('commit')}) "
              f"measured source {last.get('source_sha256')}, {same} the "
              f"traced run's {source}")
        layers = traced["report"]["layers"]
        for k in EXACT:
            want = last["exact"][k]
            got = layers.get(k, {}).get("value")
            if got != want:
                problems.append(f"{w}: {k} recorded {want}, measured {got}")
    for p in problems:
        print(f"bench_history: {p}", file=sys.stderr)
    if not problems:
        print(f"bench_history: the exact counts of {', '.join(WORKLOADS)} "
              f"equal the last entries of {history_path.name}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="what changed (required to append)")
    ap.add_argument("--results", type=Path,
                    default=simbench.build_dir() / "results")
    ap.add_argument("--commit", help="default: the commit simbench recorded")
    ap.add_argument("--check", action="store_true",
                    help="compare the traced runs with the history; "
                         "append nothing")
    args = ap.parse_args()
    if args.check:
        sys.exit(check(args.results, HISTORY))
    if not args.label:
        ap.error("--label is required to append an entry")

    history = load_history(HISTORY)
    for w in WORKLOADS:
        history["entries"].append(
            entry(args.results, w, args.label, args.commit))
    HISTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"{HISTORY}: {len(history['entries'])} entries")


if __name__ == "__main__":
    main()
