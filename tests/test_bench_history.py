#!/usr/bin/env python3
"""Tests of tools/bench_history.py: the check of a traced simbench run's
exact counts against the last history entry of each workload, and the
append of a measured entry per workload."""

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_history as bh  # noqa: E402


def counts(workload):
    """Distinct exact counts per workload, ints and ratios alike."""
    base = 1000 * (1 + bh.WORKLOADS.index(workload))
    return {k: base + i + (0.25 if i % 2 else 0)
            for i, k in enumerate(bh.EXACT)}


class Check(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.results = Path(tmp.name) / "results"
        self.results.mkdir()
        self.history = Path(tmp.name) / "history.json"
        # An older entry with other counts: only the last one counts.
        old = {w: dict(counts(w), **{"sim.cycles": 1}) for w in bh.WORKLOADS}
        self.write_history([old, {w: counts(w) for w in bh.WORKLOADS}])
        for w in bh.WORKLOADS:
            self.write_result(w, counts(w))

    def write_history(self, generations, source="aaaa"):
        entries = [{"workload": w, "exact": exact, "source_sha256": source,
                    "commit": "c0ffee"}
                   for gen in generations for w, exact in gen.items()]
        self.history.write_text(json.dumps(
            {"schema": bh.SCHEMA, "entries": entries}))

    def write_result(self, workload, exact, source="aaaa"):
        layers = {k: {"value": v, "unit": "count"} for k, v in exact.items()}
        (self.results / f"{workload}-seed{bh.SEED}-trace1.json").write_text(
            json.dumps({"report": {"layers": layers},
                        "provenance": {"source_sha256": source}}))

    def run_check(self):
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = bh.check(self.results, self.history)
        self.stdout = out.getvalue()
        return code, err.getvalue()

    def test_equal_counts_pass(self):
        self.assertEqual(self.run_check(), (0, ""))

    def test_changed_count_fails_and_names_the_field(self):
        changed = counts("oltp-1n")
        changed["cpu.ticks_per_instr"] += 1
        self.write_result("oltp-1n", changed)
        code, err = self.run_check()
        self.assertEqual(code, 1)
        self.assertEqual(err.count("\n"), 1)
        self.assertIn("oltp-1n: cpu.ticks_per_instr", err)
        self.assertIn(str(changed["cpu.ticks_per_instr"]), err)

    def test_names_the_source_each_entry_measured(self):
        self.assertEqual(self.run_check(), (0, ""))
        self.assertIn("oltp-4n: the last entry (c0ffee) measured source "
                      "aaaa, the same as the traced run's aaaa", self.stdout)
        # Another source with equal counts: named, and still exit 0.
        self.write_result("dss-4n", counts("dss-4n"), source="bbbb")
        self.assertEqual(self.run_check(), (0, ""))
        self.assertIn("dss-4n: the last entry (c0ffee) measured source "
                      "aaaa, not the traced run's bbbb", self.stdout)
        self.assertIn("oltp-1n: the last entry (c0ffee) measured source "
                      "aaaa, the same as", self.stdout)

    def test_missing_results_file_fails_with_a_message(self):
        (self.results / f"dss-4n-seed{bh.SEED}-trace1.json").unlink()
        code, err = self.run_check()
        self.assertEqual(code, 1)
        self.assertIn("dss-4n: no traced result", err)
        self.assertNotIn("Traceback", err)

    def test_workload_without_history_entry_fails_with_a_message(self):
        self.write_history([{w: counts(w) for w in bh.WORKLOADS
                             if w != "oltp-4n"}])
        code, err = self.run_check()
        self.assertEqual(code, 1)
        self.assertIn("oltp-4n: no entry", err)


class Append(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.results = Path(tmp.name) / "results"
        self.results.mkdir()
        # main() appends to bh.HISTORY: point it at a scratch copy.
        self.history = Path(tmp.name) / "history.json"
        shutil.copy(bh.HISTORY, self.history)
        patch = mock.patch.object(bh, "HISTORY", self.history)
        patch.start()
        self.addCleanup(patch.stop)
        prov = {"git_commit": "parent", "source_sha256": "dddd",
                "cpu": "cpu", "nproc": 4, "compiler": "c++",
                "build_type": "Release"}
        # 2M instructions in 0.5 s at the unloaded reference time.
        sample = {"retired": 2_000_000, "run_s": 0.5, "setup_s": 0.1,
                  "ref_s": bh.simbench.REFERENCE_S}
        for w in bh.WORKLOADS:
            untraced = {"report": {"samples": [sample] * 3,
                                   "setup_only_s": [], "peak_rss_mb": 50.0},
                        "result": {"failed": 0}, "provenance": prov}
            layers = {k: {"value": v} for k, v in counts(w).items()}
            traced = {"report": {"layers": layers}, "provenance": prov}
            for trace, doc in ((0, untraced), (1, traced)):
                (self.results / f"{w}-seed{bh.SEED}-trace{trace}.json"
                 ).write_text(json.dumps(doc))

    def run_main(self, *args):
        argv = ["bench_history.py", "--results", str(self.results), *args]
        with mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            bh.main()

    def test_appends_one_entry_per_workload(self):
        before = json.loads(self.history.read_text())["entries"]
        self.run_main("--label", "what changed", "--commit", "c0ffee")
        after = json.loads(self.history.read_text())["entries"]
        self.assertEqual(after[:len(before)], before)
        added = after[len(before):]
        self.assertEqual([e["workload"] for e in added], list(bh.WORKLOADS))
        for e in added:
            self.assertEqual(e["exact"], counts(e["workload"]))
            self.assertEqual(e["commit"], "c0ffee")
            self.assertEqual(e["source_sha256"], "dddd")
            self.assertEqual(e["label"], "what changed")
            self.assertEqual(e["sim_mips"]["median"], 4.0)

    def test_refuses_to_append_without_a_label(self):
        before = self.history.read_bytes()
        with self.assertRaises(SystemExit) as refused:
            self.run_main("--commit", "c0ffee")
        self.assertEqual(refused.exception.code, 2)
        self.assertEqual(self.history.read_bytes(), before)


if __name__ == "__main__":
    unittest.main()
