#!/usr/bin/env python3
"""Tests of tools/analyze.py against the seeded fixture corpus in
tests/analyze_fixtures/: every rule catches its seeded violation, every
clean twin passes, and inline suppressions apply."""

import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import analyze  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "analyze_fixtures"

# (fixture directory, rule, file holding the seeded violations, findings
# expected from that rule alone)
SEEDED = [
    ("determinism_unordered", "determinism-unordered-container",
     "bad.cpp", 1),
    ("determinism_wallclock", "determinism-wallclock", "bad.cpp", 1),
    ("determinism_rand", "determinism-rand", "bad.cpp", 1),
    ("determinism_pointer", "determinism-pointer-format", "bad.cpp", 1),
    # misses (updated, never read) + skips (never updated)
    ("accounting_counter", "accounting-counter-coverage",
     "bad_counters.hpp", 2),
    ("layering_order", "layering-order", "common/bad_reach.hpp", 1),
    ("layering_cycle", "layering-cycle", "alpha/bad_y.hpp", 1),
    ("convention_assert", "convention-assert", "bad.cpp", 1),
    ("convention_stdout", "convention-stdout", "bad.cpp", 1),
    ("convention_guard", "convention-include-guard", "bad.hpp", 1),
    ("convention_catch", "convention-catch-swallow", "bad.cpp", 1),
    # pointer bits + wall clock
    ("checkpoint_purity", "checkpoint-purity", "bad.cpp", 2),
]


def run(fixture, rules=()):
    return analyze.analyze(str(FIXTURES / fixture), rules=rules)


def analyze_one_file(text):
    """Analyze a one-file corpus holding text; returns the error it
    raises, or "" when it succeeds."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "marked.cpp").write_text(text)
        try:
            analyze.analyze(tmp)
        except analyze.AnalyzeError as e:
            return str(e)
    return ""


class Analyze(unittest.TestCase):
    def test_every_rule_catches_its_seeded_violation(self):
        for fixture, rule, file, count in SEEDED:
            with self.subTest(fixture):
                findings, _, _ = run(fixture, [rule])
                self.assertEqual(len(findings), count, findings)
                for rel, line, found_rule, message in findings:
                    self.assertEqual(found_rule, rule)
                    self.assertEqual(rel, file)
                    self.assertGreater(line, 0)
                    self.assertTrue(message)

    def test_clean_twins_pass_under_all_rules(self):
        # Under the full rule set the only findings are in the seeded
        # bad* files: the clean twins raise no cross-rule noise.
        for fixture, _, _, _ in SEEDED:
            with self.subTest(fixture):
                findings, _, _ = run(fixture)
                self.assertTrue(findings)
                for finding in findings:
                    self.assertTrue(
                        finding[0].split("/")[-1].startswith("bad"), finding)

    def test_single_rule_filtering_isolates_families(self):
        # accounting_counter seeds only counter-coverage findings.
        findings, _, files = run("accounting_counter",
                                 ["determinism-unordered-container"])
        self.assertEqual(findings, [])
        self.assertGreater(files, 0)

    def test_unknown_rule_is_an_error(self):
        with self.assertRaisesRegex(analyze.AnalyzeError, "no-such-rule"):
            run("determinism_rand", ["no-such-rule"])

    def test_inline_suppressions_apply_and_are_counted(self):
        findings, suppressed, _ = run("suppression")
        self.assertEqual(findings, [])
        # one allow() above the line, one trailing on the line
        self.assertEqual(suppressed, 2)

    def test_results_are_deterministic_and_sorted(self):
        first = run("accounting_counter")
        self.assertEqual(first, run("accounting_counter"))
        self.assertEqual(first[0], sorted(first[0]))

    def test_rule_catalog_is_consistent(self):
        self.assertEqual(len(analyze.RULES), 12)
        self.assertEqual(len(analyze.RULE_IDS), 12)
        for _, _, description in analyze.RULES:
            self.assertTrue(description)
        self.assertNotIn("not-a-rule", analyze.RULE_IDS)

    def test_stale_allow_mark_is_an_error(self):
        # A suppression naming a rule the catalog no longer has.
        err = analyze_one_file(
            "struct Source\n{\n"
            "    // dbsim-analyze: allow(hotpath-virtual) -- x\n"
            "    virtual bool next() = 0;\n};\n")
        self.assertIn("marked.cpp:3:", err)
        self.assertIn("unknown rule 'hotpath-virtual'", err)

    def test_unknown_mark_kind_is_an_error(self):
        err = analyze_one_file(
            "int x = 0;\n\n// dbsim-analyze: cold(end-of-run audit)\n"
            "int\naudit()\n{\n    return x;\n}\n")
        self.assertIn("marked.cpp:3:", err)
        self.assertIn("unknown mark kind 'cold'", err)

    def test_known_allow_mark_is_accepted(self):
        self.assertEqual(analyze_one_file(
            "// dbsim-analyze: allow(determinism-rand, convention-assert)"
            " -- x\nint y = 0;\n"), "")


if __name__ == "__main__":
    unittest.main()
