// Golden regression values: the simulator is deterministic per seed, so key
// headline numbers are pinned here (loose 0.5% tolerance absorbs FP-order
// differences across compilers). If one of these moves, either a model
// change was intended — update the constant and EXPERIMENTS.md — or a
// regression slipped in.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "core/result_json.h"
#include "sweep/shard.h"
#include "util/str.h"

namespace emsim::core {
namespace {

double RunSeconds(MergeConfig cfg) {
  cfg.seed = 1;
  auto result = SimulateMerge(cfg);
  EXPECT_TRUE(result.ok());
  return result->total_ms / 1e3;
}

TEST(GoldenTest, PaperHeadlineNumbers) {
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 1, 1, Strategy::kDemandRunOnly,
                                            SyncMode::kUnsynchronized)),
              292.62, 292.62 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 1, 10, Strategy::kDemandRunOnly,
                                            SyncMode::kUnsynchronized)),
              87.05, 87.05 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                            SyncMode::kSynchronized)),
              84.83, 84.83 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                            SyncMode::kSynchronized)),
              19.86, 19.86 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                            SyncMode::kUnsynchronized)),
              17.63, 17.63 * 0.005);
}

TEST(GoldenTest, StallAccountingConsistent) {
  // With an infinitely fast CPU, total time = preload + the summed stalls.
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  double stalled = result->stall_ms.sum();
  EXPECT_GT(result->stall_ms.count(), 0u);
  EXPECT_LE(stalled, result->total_ms);
  EXPECT_GT(stalled, result->total_ms * 0.8);  // Preload is the small rest.
  EXPECT_GT(result->stall_ms.Max(), result->stall_ms.Mean());
}

TEST(GoldenTest, StallDistributionsDifferByStrategy) {
  MergeConfig demand = MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                          SyncMode::kUnsynchronized);
  MergeConfig ador = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                        SyncMode::kUnsynchronized);
  auto d = SimulateMerge(demand);
  auto a = SimulateMerge(ador);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(a.ok());
  // Inter-run prefetching converts many stalls into cache hits and shortens
  // the ones that remain on average.
  EXPECT_LT(a->stall_ms.Mean() * static_cast<double>(a->stall_ms.count()),
            d->stall_ms.Mean() * static_cast<double>(d->stall_ms.count()));
}

/// Pins the export bytes of the paper's operating points, so a kernel or
/// model change that moves any simulated number (or its JSON rendering)
/// fails here: fig3.2 all-disks-one-run at N = 1, 4, 10, demand-run-only at
/// N = 4, and a fault-injected unit whose retry/backoff traffic crosses
/// every event kind. The constant is the FNV-1a digest of the
/// ExperimentSetToJson document; an intended change re-records it.
TEST(GoldenTest, PaperOperatingPointsExportDigest) {
  std::vector<SweepUnit> units;
  for (int n : {1, 4, 10}) {
    units.push_back(SweepUnit{StrFormat("fig32/ador/n=%d", n),
                              MergeConfig::Paper(25, 5, n, Strategy::kAllDisksOneRun,
                                                 SyncMode::kUnsynchronized),
                              2});
  }
  units.push_back(SweepUnit{"fig32/dro/n=4",
                            MergeConfig::Paper(25, 5, 4, Strategy::kDemandRunOnly,
                                               SyncMode::kUnsynchronized),
                            2});
  MergeConfig faulty =
      MergeConfig::Paper(10, 3, 2, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  faulty.blocks_per_run = 120;
  faulty.fault.media_error_rate = 0.01;
  faulty.fault.latency_spike_rate = 0.03;
  faulty.fault.latency_spike_ms = 8.0;
  units.push_back(SweepUnit{"faulty", faulty, 3});

  const std::vector<ExperimentResult> results = RunSweep(units, 2);
  std::vector<NamedExperiment> named;
  for (size_t i = 0; i < units.size(); ++i) {
    named.push_back(NamedExperiment{units[i].name, units[i].config, &results[i]});
  }
  const std::string json = ExperimentSetToJson(named);
  EXPECT_EQ(sweep::Fnv1aDigest(json), UINT64_C(0x0b2b71b7678904a4)) << json.size() << " bytes";
}

}  // namespace
}  // namespace emsim::core
