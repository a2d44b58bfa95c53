#ifndef EMSIM_ANALYSIS_MARKOV_H_
#define EMSIM_ANALYSIS_MARKOV_H_

#include <array>
#include <optional>

namespace emsim::analysis {

/// Steady-state Markov model of inter-run prefetching for the setting the
/// paper's companion report (Pai, Schaffer & Varman, TR-9108) analyzes:
/// D disks with ONE run per disk, unit fetches (N = 1), and a cache of C
/// block frames. The merge depletes a uniformly random run each step; when
/// the depleted run has no cached block an I/O operation occurs and the
/// admission policy decides how many disks participate:
///
///  * Conservative (the paper's choice): prefetch one block from EVERY disk
///    if all D fit in the free frames, else fetch only the demand block.
///  * Greedy: fetch the demand block plus prefetches on as many other disks
///    as free frames allow (chosen uniformly).
///
/// The chain's state is the multiset of per-run cached-block counts; the
/// model computes the stationary distribution by power iteration and
/// reports the average I/O parallelism (disks used per I/O operation) —
/// the quantity the paper says favors the conservative policy.
class MarkovPrefetchModel {
 public:
  enum class Policy {
    kConservative,
    kGreedy,
  };

  /// `num_disks` >= 1 runs/disks, cache of `cache_blocks` >= 1 frames.
  /// State spaces grow as partitions of C into D parts, and a solve's time
  /// and table memory with them. Measured per policy (Release, gcc 12,
  /// 4-vCPU VM; reachable states): D=5 C=35 (~2,700) 0.05 s, D=5 C=64
  /// (~30,000) 0.6 s, D=8 C=40 (~15,000) 0.3-0.5 s, D=8 C=64 (~310,000)
  /// 8-10 s.
  MarkovPrefetchModel(int num_disks, int cache_blocks);

  /// Average number of disks participating per I/O operation under the
  /// stationary distribution.
  double AverageParallelism(Policy policy) const;

  /// Fraction of I/O operations that fetch from all D disks (the model's
  /// success ratio).
  double SuccessRatio(Policy policy) const;

  /// Expected per-I/O-step cached-block total at steady state.
  double MeanOccupancy(Policy policy) const;

  int num_disks() const { return d_; }
  int cache_blocks() const { return c_; }

 private:
  struct Solution {
    double parallelism = 0;
    double success = 0;
    double occupancy = 0;
  };

  /// Enumerates the chain's reachable states once, builds their transition
  /// table, and runs power iteration over dense probability vectors.
  Solution Solve(Policy policy) const;

  /// The solution for `policy`, solved on first use.
  const Solution& Solved(Policy policy) const;

  int d_;
  int c_;
  mutable std::array<std::optional<Solution>, 2> solutions_;  // Indexed by policy.
};

}  // namespace emsim::analysis

#endif  // EMSIM_ANALYSIS_MARKOV_H_
