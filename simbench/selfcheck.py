#!/usr/bin/env python3
"""Tiny-budget self-check of the benchmark.

Runs every workload once untraced and once traced at a small instruction
budget and asserts that each metric named in BENCHMARK.json is printed with
its unit and that no operation failed.  Then records the statistics of one
run, corrupts the recorded copy, and asserts that the next run reports the
mismatch -- naming the first differing field -- as failed operations.

Usage: python3 simbench/selfcheck.py      (from the root of a checkout)
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = 20000

sys.path.insert(0, str(HERE))
from run import build_dir  # noqa: E402


def run(*args):
    """Run the benchmark; return (result line as dict, whole stdout)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "0.5",
           "--instructions", str(TINY), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def check_metrics(result, wanted, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0, (what, result)
    assert result["attempted"] >= 1, what
    got = result["metrics"]
    missing = sorted(set(wanted) - set(got))
    assert not missing, f"{what}: metrics not printed: {missing}"
    for name, unit in wanted.items():
        m = got[name]
        assert set(m) == {"value", "unit"}, (what, name, m)
        assert m["unit"] == unit, f"{what}: {name} unit {m['unit']} != {unit}"
        assert isinstance(m["value"], (int, float)), (what, name, m)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    runs = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            result, _ = run("--workload", w["name"], "--seed", "3",
                            "--trace", str(trace))
            check_metrics(result, names[trace], f"{w['name']} trace={trace}")
            runs += 1

    expected = build_dir() / "selfcheck-expected.json"
    expected.unlink(missing_ok=True)
    common = ("--workload", "oltp-1n", "--seed", "7", "--trace", "0",
              "--expected", str(expected))
    result, _ = run(*common, "--record-expected")
    assert result["correct"], result
    data = json.loads(expected.read_text())
    (entry,) = data.values()
    entry["digest"] = "0" * 16
    entry["stats"]["cycles"] += 1
    expected.write_text(json.dumps(data))
    result, out = run(*common)
    runs += 2
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    assert "first differing field 'cycles'" in out, out
    expected.unlink()

    print(f"selfcheck: ok ({runs} runs; every metric printed with its unit; "
          "a wrong expected digest counts as failed operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
