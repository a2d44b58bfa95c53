#ifndef EMSIM_PERFBENCH_CHECK_H_
#define EMSIM_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/result.h"
#include "util/status.h"

namespace emsim::perfbench {

/// Digest of one trial's complete result: FNV-1a over its exact shard-codec
/// encoding, so any change to any exported statistic (down to the last bit
/// of a double) changes the digest.
uint64_t TrialDigest(const core::MergeResult& result);

/// Model invariants every fault-free or fail-slow trial must satisfy,
/// whatever its seed: every block merged, deposited and consumed exactly
/// once, admissions bounded by operations, writes covering the output.
Status CheckTrialInvariants(const core::MergeConfig& config, const core::MergeResult& result);

/// Indices of the trials whose digest differs from `expected` (a result
/// count that differs from the expected count marks every trial).
std::vector<int> MismatchedTrials(const std::vector<uint64_t>& expected,
                                  const std::vector<core::MergeResult>& results);

/// Committed reference outputs (perfbench/references.txt). One record per
/// line: `<workload> <seed|*> <key> <values...>`; `*` applies to every
/// seed, `#` starts a comment.
class References {
 public:
  struct Record {
    std::string workload;
    std::string seed;
    std::string key;
    std::vector<std::string> values;
  };

  static Result<References> Load(const std::string& path);
  static Result<References> Parse(const std::string& text, const std::string& source);

  /// Records for (workload, key) that apply to `seed`: the seed's own
  /// records if any exist, else the `*` records.
  std::vector<Record> Find(const std::string& workload, uint64_t seed,
                           const std::string& key) const;

 private:
  std::vector<Record> records_;
};

std::string HexDigest(uint64_t digest);

}  // namespace emsim::perfbench

#endif  // EMSIM_PERFBENCH_CHECK_H_
