#include <gtest/gtest.h>

#include "analysis/markov.h"
#include "core/config.h"
#include "core/experiment.h"

namespace emsim::analysis {
namespace {

using Policy = MarkovPrefetchModel::Policy;

TEST(MarkovTest, MinimalCacheForcesSerialIo) {
  // With C = D every I/O can only fetch the demand block.
  for (int d : {1, 2, 3, 5}) {
    MarkovPrefetchModel model(d, d);
    EXPECT_DOUBLE_EQ(model.AverageParallelism(Policy::kConservative), 1.0);
    EXPECT_DOUBLE_EQ(model.AverageParallelism(Policy::kGreedy), 1.0);
    EXPECT_DOUBLE_EQ(model.SuccessRatio(Policy::kConservative), d == 1 ? 1.0 : 0.0);
  }
}

TEST(MarkovTest, SingleDiskIsTrivial) {
  MarkovPrefetchModel model(1, 8);
  EXPECT_DOUBLE_EQ(model.AverageParallelism(Policy::kConservative), 1.0);
  EXPECT_DOUBLE_EQ(model.SuccessRatio(Policy::kConservative), 1.0);
}

TEST(MarkovTest, ParallelismBounds) {
  for (int d : {2, 3, 5}) {
    for (int c : {d, 2 * d, 4 * d}) {
      MarkovPrefetchModel model(d, c);
      for (Policy p : {Policy::kConservative, Policy::kGreedy}) {
        double par = model.AverageParallelism(p);
        EXPECT_GE(par, 1.0);
        EXPECT_LE(par, d);
        double succ = model.SuccessRatio(p);
        EXPECT_GE(succ, 0.0);
        EXPECT_LE(succ, 1.0);
        EXPECT_GE(model.MeanOccupancy(p), static_cast<double>(d));
        EXPECT_LE(model.MeanOccupancy(p), static_cast<double>(c));
      }
    }
  }
}

TEST(MarkovTest, ParallelismIncreasesWithCache) {
  for (Policy p : {Policy::kConservative, Policy::kGreedy}) {
    double prev = 0;
    for (int c : {5, 8, 12, 20, 35}) {
      MarkovPrefetchModel model(5, c);
      double par = model.AverageParallelism(p);
      EXPECT_GE(par, prev - 1e-9);
      prev = par;
    }
    EXPECT_GT(prev, 3.0);  // Ample cache approaches D.
  }
}

TEST(MarkovTest, TwoDisksPoliciesCoincide) {
  // With D = 2 greedy's partial fetch is exactly the conservative fallback.
  for (int c : {2, 4, 6, 10}) {
    MarkovPrefetchModel model(2, c);
    EXPECT_NEAR(model.AverageParallelism(Policy::kConservative),
                model.AverageParallelism(Policy::kGreedy), 1e-9);
  }
}

TEST(MarkovTest, ConservativeHasHigherSuccessRatio) {
  // Deferring partial prefetches frees frames sooner, so full fan-outs
  // happen more often — the mechanism behind the paper's choice.
  for (int d : {3, 5}) {
    for (int c : {2 * d, 3 * d, 5 * d}) {
      MarkovPrefetchModel model(d, c);
      EXPECT_GE(model.SuccessRatio(Policy::kConservative),
                model.SuccessRatio(Policy::kGreedy) - 1e-9)
          << "D=" << d << " C=" << c;
    }
  }
}

TEST(MarkovTest, ConservativeParallelismCompetitiveAtAmpleCache) {
  // TR-9108's claim: at reasonable cache sizes the conservative policy's
  // average I/O parallelism matches or exceeds greedy's. In this chain the
  // two converge (D=5, C=25: 3.569 vs 3.541 in conservative's favor; D=3 a
  // statistical tie), while at small caches greedy's partial fetches give
  // it an edge — both within a 1% band of each other at C = 5D.
  for (int d : {3, 5}) {
    MarkovPrefetchModel model(d, 5 * d);
    double cons = model.AverageParallelism(Policy::kConservative);
    double greedy = model.AverageParallelism(Policy::kGreedy);
    EXPECT_GE(cons, greedy * 0.99) << "D=" << d;
  }
  // At D=5, C=25 the conservative advantage is strict.
  MarkovPrefetchModel model(5, 25);
  EXPECT_GT(model.AverageParallelism(Policy::kConservative),
            model.AverageParallelism(Policy::kGreedy));
}

TEST(MarkovTest, GreedyBuffersMore) {
  // Greedy fills frames it cannot use for full fan-outs.
  MarkovPrefetchModel model(5, 15);
  EXPECT_GT(model.MeanOccupancy(Policy::kGreedy),
            model.MeanOccupancy(Policy::kConservative));
}

TEST(MarkovTest, StationaryValuesArePinned) {
  // Exact values (%.17g) of the power iteration's output, including its
  // unconverged last digits (D=5, C=8 greedy): any change to the summation
  // order or the iteration count shows here. The C <= 20 parallelism and
  // success values are perfbench/references.txt's markov_policy records.
  struct Pinned {
    int d;
    int c;
    Policy policy;
    double parallelism;
    double success;
    double occupancy;
  };
  const Pinned kPinned[] = {
      {5, 5, Policy::kConservative, 1, 0, 5},
      {5, 5, Policy::kGreedy, 1, 0, 5},
      {5, 8, Policy::kConservative, 1, 0, 5},
      {5, 8, Policy::kGreedy, 1.6000000000004075, 0, 7.4999999999997442},
      {5, 12, Policy::kConservative, 2.3003095975243304, 0.3250773993810826, 9.522207267832874},
      {5, 12, Policy::kGreedy, 2.3363636363658649, 0.1060606060609485, 10.810635538260467},
      {5, 20, Policy::kConservative, 3.2552664248270848, 0.56381660620677143,
       16.084887696096708},
      {5, 20, Policy::kGreedy, 3.2252322168531427, 0.35216718801726471, 17.299815987122177},
      {3, 15, Policy::kConservative, 2.580838323355648, 0.79041916167782389,
       10.962877030149848},
      {3, 15, Policy::kGreedy, 2.5824175824201938, 0.72527472527638059, 11.297872340411443},
      {5, 35, Policy::kConservative, 3.9500201022620445, 0.73750502556550757,
       28.129165846487126},
      {5, 35, Policy::kGreedy, 3.9314342534219699, 0.59240555089030256, 29.330163610410651},
  };
  for (const Pinned& p : kPinned) {
    MarkovPrefetchModel model(p.d, p.c);
    SCOPED_TRACE(testing::Message() << "D=" << p.d << " C=" << p.c << " "
                                    << (p.policy == Policy::kGreedy ? "greedy" : "conservative"));
    EXPECT_EQ(model.AverageParallelism(p.policy), p.parallelism);
    EXPECT_EQ(model.SuccessRatio(p.policy), p.success);
    EXPECT_EQ(model.MeanOccupancy(p.policy), p.occupancy);
  }
}

TEST(MarkovTest, AgreesWithSimulatorAtSteadyState) {
  // Cross-validation: DES with one run per disk, N = 1, long runs. The
  // simulator's success ratio should approach the chain's.
  const int d = 3;
  const int c = 6;
  MarkovPrefetchModel model(d, c);
  core::MergeConfig cfg = core::MergeConfig::Paper(
      d, d, 1, core::Strategy::kAllDisksOneRun, core::SyncMode::kSynchronized);
  cfg.blocks_per_run = 4000;
  cfg.cache_blocks = c;
  auto result = core::RunTrials(cfg, 3);
  EXPECT_NEAR(result.MeanSuccessRatio(), model.SuccessRatio(Policy::kConservative), 0.05);
}

}  // namespace
}  // namespace emsim::analysis
