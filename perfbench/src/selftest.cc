// Self-tests of the benchmark's own logic: the tail-percentile rule, span
// self time, ledger arithmetic, the metric-name charset, and the output
// check catching a perturbed trial result.
//
//   cmake --build .bench_build --target perfbench_selftest && .bench_build/perfbench_selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "check.h"
#include "core/merge_simulator.h"
#include "measure.h"
#include "trace.h"

namespace emsim::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, PicksHighestLadderPercentileWithTenSamplesBeyond) {
  struct Case {
    int n;
    double percentile;
    double value;  // Nearest rank of 1..n (the median at p50).
  };
  for (const Case& c : {Case{20, 50, 10.5}, Case{39, 50, 20}, Case{40, 75, 30}, Case{64, 75, 48},
                        Case{100, 90, 90}, Case{199, 90, 180}, Case{200, 95, 190},
                        Case{1000, 99, 990}, Case{1450, 99, 1436}, Case{10000, 99.9, 9990}}) {
    std::vector<double> v = OneTo(c.n);
    std::reverse(v.begin(), v.end());  // Input order must not matter.
    Tail tail = TailOf(v);
    EXPECT_EQ(tail.percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(tail.value, c.value) << "n=" << c.n;
    EXPECT_EQ(tail.samples, static_cast<size_t>(c.n));
    // The rule itself: at least ten samples lie beyond the reported value.
    EXPECT_GE(c.n - static_cast<int>(tail.value), 10) << "n=" << c.n;
  }
}

TEST(TailRule, TooFewSamplesFallBackToTheMedian) {
  Tail tail = TailOf(OneTo(19));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 10);
  EXPECT_EQ(TailOf({}).samples, 0u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

Span At(const char* name, int parent, int64_t start, int64_t end) {
  return Span{name, -1, parent, start, end};
}

TEST(SpanSelfTime, SubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      At("pass", -1, 0, 100),
      At("core.trial", 0, 10, 30),
      At("core.trial", 0, 20, 50),    // Overlaps its sibling: 10..50 counted once.
      At("inner", 2, 25, 35),         // Grandchild: charged to its parent only.
      At("export.json", 0, 90, 120),  // Clipped to the parent's end.
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 30);
}

TEST(SpanSelfTime, TracerRecordsNesting) {
  Tracer tracer(8);
  {
    ScopedSpan outer(&tracer, "pass");
    { ScopedSpan a(&tracer, "core.trial", 0); }
    { ScopedSpan b(&tracer, "core.trial", 1); }
  }
  { ScopedSpan off(nullptr, "ignored"); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  EXPECT_EQ(tracer.spans()[2].id, 1);
  std::vector<int64_t> self = SelfTimes(tracer.spans());
  EXPECT_EQ(self[0], tracer.spans()[0].duration_ns() - tracer.spans()[1].duration_ns() -
                         tracer.spans()[2].duration_ns());
}

TEST(Ledger, RowsAccumulateAndChildrenAreNotAddedTwice) {
  // Two trials taking 10 ms in total.
  Ledger ledger(10e6, 2);
  ledger.Add("io.plan", "", 1000, 2000);                  // 2 ms
  ledger.Add("disk.layout.runs_of", "io.plan", 100, 8000);  // 0.8 ms inside io.plan
  ledger.Add("sim.calendar", "", 50, 40000);              // 2 ms
  ledger.Add("io.plan", "", 3000, 1000);                  // Second unit: +3 ms
  ASSERT_EQ(ledger.rows().size(), 3u);
  EXPECT_DOUBLE_EQ(ledger.rows()[0].count, 3000);
  EXPECT_DOUBLE_EQ(ledger.rows()[0].NsPerOp(), 5e6 / 3000);
  EXPECT_DOUBLE_EQ(ledger.TrialMs(), 5.0);
  EXPECT_DOUBLE_EQ(ledger.RowMs(ledger.rows()[0]), 2.5);
  EXPECT_DOUBLE_EQ(ledger.AttributedMs(), 3.5);
  EXPECT_DOUBLE_EQ(ledger.UnattributedMs(), 1.5);
  EXPECT_DOUBLE_EQ(ledger.UnattributedFrac(), 0.3);
}

TEST(MetricNames, ResultObjectCharset) {
  for (const char* ok : {"setup_s", "io.plan_ns", "disk.layout.runs_of_ns", "0-based",
                         "bench.trace_overhead_frac"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", ".leading_dot", "_leading", "has space", "slash/name", "pct%",
                          "x2345678901234567890123456789012345678901234567890123456789012345"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  for (const char* ok : {"ms", "s", "1/s", "count", "%", "frac", "MB"}) {
    EXPECT_TRUE(ValidUnit(ok)) << ok;
  }
  for (const char* bad : {"", "n s", "12345678901234567", "ms;"}) {
    EXPECT_FALSE(ValidUnit(bad)) << bad;
  }
}

core::MergeConfig SmallConfig() {
  core::MergeConfig config = core::MergeConfig::Paper(
      6, 2, 2, core::Strategy::kAllDisksOneRun, core::SyncMode::kUnsynchronized);
  config.blocks_per_run = 40;
  config.seed = 7;
  return config;
}

TEST(OutputCheck, CatchesAPerturbedTrialResult) {
  core::MergeConfig config = SmallConfig();
  Result<core::MergeResult> run = core::SimulateMerge(config);
  ASSERT_TRUE(run.ok());
  std::vector<core::MergeResult> results = {*run, *run};
  std::vector<uint64_t> expected = {TrialDigest(*run), TrialDigest(*run)};
  EXPECT_TRUE(MismatchedTrials(expected, results).empty());
  EXPECT_TRUE(CheckTrialInvariants(config, results[1]).ok());

  // One ulp in one statistic of the second trial.
  results[1].total_ms = std::nextafter(results[1].total_ms, 1e300);
  EXPECT_EQ(MismatchedTrials(expected, results), std::vector<int>{1});

  // A lost block also breaks the model invariants, whatever the seed.
  core::MergeResult lost = *run;
  lost.blocks_merged -= 1;
  EXPECT_FALSE(CheckTrialInvariants(config, lost).ok());

  // A missing trial marks every trial.
  EXPECT_EQ(MismatchedTrials({expected[0]}, {*run, *run}).size(), 2u);
}

TEST(OutputCheck, DigestIsDeterministicPerSeed) {
  core::MergeConfig config = SmallConfig();
  uint64_t a = TrialDigest(*core::SimulateMerge(config));
  EXPECT_EQ(a, TrialDigest(*core::SimulateMerge(config)));
  config.seed += 1;
  EXPECT_NE(a, TrialDigest(*core::SimulateMerge(config)));
}

TEST(References, SeedRecordsOverrideWildcardRecords) {
  auto refs = References::Parse(
      "# comment\n"
      "wide_array * trials aa\n"
      "wide_array 7 trials bb  # trailing comment\n"
      "\n"
      "paper_grid * paper_s unit-a 292.5\n"
      "paper_grid * paper_s unit-b 86.9\n",
      "inline");
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ(refs->Find("wide_array", 7, "trials").front().values.front(), "bb");
  EXPECT_EQ(refs->Find("wide_array", 8, "trials").front().values.front(), "aa");
  EXPECT_EQ(refs->Find("paper_grid", 3, "paper_s").size(), 2u);
  EXPECT_TRUE(refs->Find("demand_writes", 1, "trials").empty());
  EXPECT_FALSE(References::Parse("wide_array 7\n", "inline").ok());
}

}  // namespace
}  // namespace emsim::perfbench
