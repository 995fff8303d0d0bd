#!/usr/bin/env python3
"""dbsim's benchmark: one workload, one process, one thread.

Builds the simulator and the benchmark driver from this checkout (Release,
into .bench_build or $CARGO_TARGET_DIR), runs one workload for --seconds,
checks the simulated statistics against the expected ones, and prints the
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (sim_mips, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones.  See README.md.

Usage:
    python3 simbench/run.py --workload oltp-4n --seed 1 --seconds 30 --trace 0
    python3 simbench/run.py --workload all --seed 1 --seconds 30

--workload all runs the three workloads in turn and prints one line each.

Options for the self-check and for re-recording expected statistics:
    --instructions N      instruction budget instead of the workload's own
    --expected PATH       expected-statistics file (default expected.json)
    --record-expected     store this run's statistics as the expected ones
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oltp-4n", "oltp-1n", "dss-4n")
END_TO_END_UNITS = {"sim_mips": "Minstr/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# Time of the driver's reference work on an unloaded core of the 4-core
# Xeon host the benchmark was defined on.
REFERENCE_S = 0.013
# The C++ driver is stopped after this long, so a run ends within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own; on timeout the whole
    group (compilers under cmake, too) is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the driver; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no dbsim sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    out = build_dir() / "simbench"
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another checkout
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(build_log, "w") as f:
        for cmd in steps:
            try:
                rc = run_group(cmd, BUILD_TIMEOUT_S, stdout=f,
                               stderr=subprocess.STDOUT).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step {cmd[:2]} failed: {e}")
                sys.exit(1)
            if rc != 0:
                f.flush()
                tail = build_log.read_text(errors="replace")[-4000:]
                log(f"build failed ({' '.join(cmd)}):\n{tail}")
                sys.exit(1)
    return out / "simbench"


def provenance(report):
    """Where and how the numbers were made."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for base in ("src", "simbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    b = report["build"]
    return {
        "compiler": b["compiler"],
        "build_type": b["build_type"],
        "ndebug": b["ndebug"],
        "optimized": b["optimized"],
        "baseline_ok": b["optimized"] and b["ndebug"],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "repeats": len(report["samples"]),
        "seed": report["seed"],
        "instructions": report["instructions"],
        "git_commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


def digest(stats):
    """Digest of the simulated statistics (host-time fields never enter)."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_key(report):
    return f"{report['workload']}/{report['instructions']}/{report['seed']}"


def check_expected(report, expected):
    """None if the statistics match (or no entry exists), else a message."""
    entry = expected.get(expected_key(report))
    if entry is None:
        return None
    got = report["stats"]
    if digest(got) == entry["digest"] and got == entry["stats"]:
        return None
    want = entry["stats"]
    for name in list(want) + [k for k in got if k not in want]:
        if want.get(name) != got.get(name):
            return (f"digest {digest(got)} != expected {entry['digest']}; "
                    f"first differing field '{name}': expected "
                    f"{want.get(name)!r}, got {got.get(name)!r}")
    return f"digest {digest(got)} != expected {entry['digest']}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(report):
    """(metrics, notes) of an untraced run: medians over its repeats.

    Host times are corrected for the load on the shared host: the driver
    times a fixed reference work next to every repeat, and each time is
    scaled by REFERENCE_S / (that reference time), i.e. expressed in
    seconds of an unloaded host.  Uncorrected medians drifted by up to 19%
    between two sets of ten runs a quarter of an hour apart; corrected
    ones by at most 7% (README.md, Noise).
    """
    samples = report["samples"]
    metrics, notes = {}, []
    if samples:
        ref = statistics.median(s["ref_s"] for s in samples)
        mips = [s["retired"] / s["run_s"] / 1e6 * s["ref_s"] / REFERENCE_S
                for s in samples]
        raw = statistics.median(s["retired"] / s["run_s"] / 1e6
                                for s in samples)
        setup = [t * REFERENCE_S / ref for t in
                 [s["setup_s"] for s in samples] + report["setup_only_s"]]
        for name, values in (("sim_mips", mips), ("setup_s", setup)):
            lo, hi = quartiles(values)
            metrics[name] = statistics.median(values)
            notes.append(f"{name}: median {metrics[name]:.6g} "
                         f"{END_TO_END_UNITS[name]} over {len(values)} "
                         f"samples (quartiles {lo:.6g} .. {hi:.6g})")
        notes.append(f"host reference work: median {ref * 1e3:.4g} ms "
                     f"({REFERENCE_S * 1e3:g} ms unloaded); uncorrected "
                     f"sim_mips median {raw:.6g} Minstr/s")
    metrics["peak_rss_mb"] = report["peak_rss_mb"]
    notes.append(f"peak_rss_mb: {report['peak_rss_mb']:.6g} MB "
                 "(peak resident memory after the first repeat)")
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, notes)


def run_workload(args, binary, workload):
    """Run one workload; print its lines; return its result object."""
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.instructions:
        cmd += ["--instructions", str(args.instructions)]
    if args.trace:
        cmd += ["--spans", str(results / f"{tag}.spans.json")]
    try:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"driver exited with code {proc.returncode}")
        sys.exit(1)
    report = json.loads(proc.stdout)

    failures = [f"repeat {f['repeat']}: {f['kind']}: {f['detail']}"
                for f in report["failures"]]
    attempted = report["attempted"]
    failed = len(report["failures"])
    expected = {}
    if args.expected.is_file():
        expected = json.loads(args.expected.read_text())
    mismatch = check_expected(report, expected) if report["stats"] else None
    if mismatch:
        # Every repeat produced these statistics, so every one failed.
        failures.append(f"expected statistics: {mismatch}")
        failed = attempted
    elif expected_key(report) not in expected:
        print(f"note: no expected statistics for {expected_key(report)}; "
              "checked only that every repeat (and the checker-armed "
              "repeat) agree")
    if not report["stats"]:
        failures.append("no repeat completed")
        failed = max(failed, 1)

    prov = provenance(report)
    print(f"{workload} provenance: " + json.dumps(prov, sort_keys=True))
    if not prov["baseline_ok"]:
        print("WARNING: not an optimised NDEBUG build; do not record these "
              "numbers as a baseline")
    print(f"{workload} statistics digest: {digest(report['stats'])} "
          f"({len(report['stats'])} fields)")
    for f in failures:
        print(f"{workload} FAILED {f}")

    if args.trace:
        metrics = report["layers"]
        counts = ", ".join(f"{k} {v:.6g}"
                           for k, v in report["driver_counts"].items())
        notes = [f"spans: {report['spans']['kept']} kept, "
                 f"{report['spans']['dropped']} counted only, written to "
                 f"{report['spans']['path']}",
                 f"layer drivers: {counts}"]
    else:
        metrics, notes = end_to_end(report)
    for n in notes:
        print(f"{workload} {n}")

    if args.record_expected:
        if failed:
            log("not recording expected statistics from a failed run")
            sys.exit(1)
        expected[expected_key(report)] = {"digest": digest(report["stats"]),
                                          "stats": report["stats"]}
        args.expected.write_text("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(expected.items())) + "\n}\n")

    result = {"correct": failed == 0 and not failures,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(
        {"result": result, "provenance": prov, "failures": failures,
         "report": report}, indent=1) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instructions", type=int, default=0)
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.workload != "all":
        print(json.dumps(run_workload(args, binary, args.workload)))
        return 0

    # Every workload in turn; the last line merges their results, with
    # metric names prefixed by the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_workload(args, binary, w)
        merged["correct"] = merged["correct"] and r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["metrics"].update(
            {f"{w}.{k}": v for k, v in r["metrics"].items()})
        print(f"{w}: attempted {r['attempted']}, failed {r['failed']}, " +
              ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                        for k, v in r["metrics"].items()))
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
