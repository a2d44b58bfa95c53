#!/usr/bin/env python3
"""Cache-invalidation tests for tools/lint/emsim_analyze.py, mirroring the
seven run_clang_tidy cache tests — plus the two properties the analyzer adds
on top of the clang-tidy cache: a comment-only edit is a full cache hit (the
key is the comment-stripped token stream), and cached findings/suppressions
still resolve to *current* line numbers after such an edit (facts are
anchored to token indices and remapped at report time)."""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools" / "lint"))

import emsim_analyze  # noqa: E402

HEADER_H = """#ifndef FIXTURE_CLOCK_H_
#define FIXTURE_CLOCK_H_
#include <chrono>
inline double ReadClock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
#endif
"""

SINK_CC = """#include "core/clock_util.h"
namespace emsim::stats {
double WriteJson() { return ReadClock(); }
}
"""

OTHER_CC = """int Standalone() { return 42; }
"""


class AnalyzeCacheTest(unittest.TestCase):
    def setUp(self):
        self.root = Path(tempfile.mkdtemp(prefix="emsim_analyze_cache_"))
        self.addCleanup(shutil.rmtree, self.root, ignore_errors=True)
        (self.root / "build").mkdir()
        self.cache_dir = self.root / "cache"
        self.write("src/core/clock_util.h", HEADER_H)
        self.write("src/stats/json_writer.cc", SINK_CC)
        self.write("src/core/other.cc", OTHER_CC)
        self.write_db()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def write_db(self):
        db = []
        for cc in sorted(self.root.glob("src/**/*.cc")):
            db.append({
                "directory": str(self.root),
                "file": str(cc),
                "command": f"c++ -I{self.root}/src -c "
                           f"{cc.relative_to(self.root)} -o x.o",
            })
        (self.root / "build" / "compile_commands.json").write_text(
            json.dumps(db), encoding="utf-8")

    def run_analyzer(self, *extra):
        timing = self.root / "timing.json"
        report = self.root / "report.json"
        code = emsim_analyze.main([
            "--build-dir", str(self.root / "build"),
            "--source-root", str(self.root),
            "--cache-dir", str(self.cache_dir),
            "--timing-report", str(timing),
            "--report", str(report),
            *extra,
        ])
        return (code,
                json.loads(timing.read_text(encoding="utf-8")),
                json.loads(report.read_text(encoding="utf-8")))

    # -- the seven mirrored scenarios ---------------------------------------

    def test_cold_run_analyzes_everything_and_reports_misses(self):
        code, timing, _ = self.run_analyzer()
        self.assertEqual(code, 1)  # the fixture deliberately has a finding
        self.assertEqual(timing["cache"]["misses"], 2)
        self.assertEqual(timing["cache"]["hits"], 0)

    def test_unchanged_tree_is_a_full_cache_hit(self):
        self.run_analyzer()
        _, timing, _ = self.run_analyzer()
        self.assertEqual(timing["cache"]["hits"], 2)
        self.assertEqual(timing["cache"]["misses"], 0)

    def test_header_edit_reanalyzes_exactly_its_dependents(self):
        self.run_analyzer()
        self.write("src/core/clock_util.h",
                   HEADER_H.replace("ReadClock", "ReadClockRenamed"))
        _, timing, _ = self.run_analyzer()
        # json_writer.cc includes the header; other.cc does not.
        self.assertEqual(timing["cache"]["misses"], 1)
        self.assertEqual(timing["cache"]["hits"], 1)
        missed = [f["file"] for f in timing["files"] if not f["cached"]]
        self.assertEqual(missed, ["src/stats/json_writer.cc"])

    def test_rule_config_change_invalidates_every_entry(self):
        self.run_analyzer()
        original = emsim_analyze.SCHEMA
        emsim_analyze.SCHEMA = original + "-test-bump"
        try:
            _, timing, _ = self.run_analyzer()
        finally:
            emsim_analyze.SCHEMA = original
        self.assertEqual(timing["cache"]["misses"], 2)

    def test_no_cache_flag_bypasses_the_cache(self):
        self.run_analyzer()
        _, timing, _ = self.run_analyzer("--no-cache")
        self.assertFalse(timing["cache"]["enabled"])
        self.assertEqual(timing["cache"]["hits"], 0)

    def test_findings_fail_the_run_even_when_cached(self):
        code_cold, _, report_cold = self.run_analyzer()
        code_warm, timing, report_warm = self.run_analyzer()
        self.assertEqual(code_cold, 1)
        self.assertEqual(code_warm, 1)
        self.assertEqual(timing["cache"]["hits"], 2)
        self.assertEqual(
            [(f["path"], f["line"], f["rule"])
             for f in report_cold["findings"]],
            [(f["path"], f["line"], f["rule"])
             for f in report_warm["findings"]])

    def test_warm_budget_rejects_an_over_budget_warm_run(self):
        # Suppress the fixture's one finding so the exit code isolates the
        # budget gate.
        self.write("src/core/clock_util.h",
                   HEADER_H.replace(
                       "  return std::chrono",
                       "  // emsim-analyze: allow(determinism-taint)\n"
                       "  return std::chrono"))
        # Cold runs are exempt no matter how slow ...
        code, timing, _ = self.run_analyzer("--warm-budget-seconds", "1e-9")
        self.assertEqual(code, 0)
        self.assertFalse(timing["over_budget"])
        # ... warm runs over budget fail.
        code, timing, _ = self.run_analyzer("--warm-budget-seconds", "1e-9")
        self.assertEqual(code, 1)
        self.assertTrue(timing["over_budget"])
        # A sane budget passes warm.
        code, timing, _ = self.run_analyzer("--warm-budget-seconds", "600")
        self.assertEqual(code, 0)

    # -- analyzer-specific upgrades over the clang-tidy cache ---------------

    def test_comment_only_edit_is_a_full_cache_hit(self):
        self.run_analyzer()
        self.write("src/core/other.cc",
                   "// a new comment, nothing else\n" + OTHER_CC)
        self.write("src/core/clock_util.h",
                   HEADER_H.replace("#include <chrono>",
                                    "#include <chrono>  // for the clock"))
        _, timing, _ = self.run_analyzer()
        self.assertEqual(timing["cache"]["misses"], 0)
        self.assertEqual(timing["cache"]["hits"], 2)

    def test_cached_findings_remap_to_current_lines_after_comment_edit(self):
        _, _, report = self.run_analyzer()
        (line_before,) = [f["line"] for f in report["findings"]]
        # Insert two comment lines above the finding: cache must hit AND the
        # reported line must shift by two.
        self.write("src/core/clock_util.h",
                   HEADER_H.replace("inline double ReadClock",
                                    "// shift\n// shift\ninline double "
                                    "ReadClock"))
        code, timing, report = self.run_analyzer()
        self.assertEqual(code, 1)
        self.assertEqual(timing["cache"]["misses"], 0)
        (line_after,) = [f["line"] for f in report["findings"]]
        self.assertEqual(line_after, line_before + 2)

    def test_adding_a_suppression_works_on_a_warm_cache(self):
        code, _, _ = self.run_analyzer()
        self.assertEqual(code, 1)
        self.write("src/core/clock_util.h",
                   HEADER_H.replace(
                       "  return std::chrono",
                       "  // emsim-analyze: allow(determinism-taint)\n"
                       "  return std::chrono"))
        code, timing, report = self.run_analyzer()
        self.assertEqual(timing["cache"]["misses"], 0)
        self.assertEqual(report["findings"], [])
        self.assertEqual(len(report["suppressions"]), 1)
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
