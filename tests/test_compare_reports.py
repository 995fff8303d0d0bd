#!/usr/bin/env python3
"""Tests of tools/compare_reports.py: the field-exact comparison of two
dbsim-bench JSON reports, which ignores only the two host-timing
fields and the job count."""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import compare_reports as cr  # noqa: E402

# The shape of a bench report (schema dbsim-bench-v4): host timings sit
# next to simulated results in every sweep entry.
REPORT = {
    "schema": "dbsim-bench-v4",
    "bench": "fig6_consistency",
    "jobs": 4,
    "items": 2,
    "results": [
        {"section": "oltp", "label": "SC", "index": 0,
         "config": "oltp-sc", "workload": "oltp", "nodes": 4,
         "cycles": 812345, "instructions": 2000000, "ipc": 0.6155,
         "wall_seconds": 1.25, "sim_instructions_per_host_second": 1.6e6,
         "context_switches": 118,
         "breakdown": {"busy": 301234.5, "l2_hit": 1024.25},
         "coherence": {"l2_misses_total": 5120, "dirty_misses": 733}},
        {"section": "dss", "label": "SC", "index": 0,
         "config": "dss-sc", "workload": "dss", "nodes": 4,
         "cycles": 402000, "instructions": 2000000, "ipc": 1.2,
         "wall_seconds": 0.75, "sim_instructions_per_host_second": 2.7e6,
         "context_switches": 40,
         "breakdown": {"busy": 500000.0, "l2_hit": 12.0},
         "coherence": {"l2_misses_total": 9000, "dirty_misses": 3}},
    ],
}


class Compare(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def run_main(self, reference, candidate):
        paths = []
        for name, doc in (("reference.json", reference),
                          ("candidate.json", candidate)):
            path = self.dir / name
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out = io.StringIO()
        with mock.patch.object(sys, "argv", ["compare_reports.py", *paths]), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cr.main()
        return code, out.getvalue()

    def test_equal_reports_pass(self):
        code, _ = self.run_main(REPORT, copy.deepcopy(REPORT))
        self.assertEqual(code, 0)

    def test_changed_simulated_field_fails_and_names_its_path(self):
        changed = copy.deepcopy(REPORT)
        changed["results"][1]["coherence"]["dirty_misses"] += 1
        code, out = self.run_main(REPORT, changed)
        self.assertEqual(code, 1)
        self.assertIn("$.results[1].coherence.dirty_misses: 3 != 4", out)
        self.assertIn("1 difference(s)", out)

    def test_host_timing_fields_are_ignored(self):
        changed = copy.deepcopy(REPORT)
        for entry in changed["results"]:
            entry["wall_seconds"] *= 3
            entry["sim_instructions_per_host_second"] /= 3
        code, out = self.run_main(REPORT, changed)
        self.assertEqual(code, 0, out)

    def test_job_count_is_ignored(self):
        # A --jobs 1 run and a --jobs 4 run of a bench report the same
        # results.
        changed = copy.deepcopy(REPORT)
        changed["jobs"] = 1
        code, out = self.run_main(REPORT, changed)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
