#include "analysis/markov.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.h"

namespace emsim::analysis {

namespace {

using Policy = MarkovPrefetchModel::Policy;

constexpr int kMaxDisks = 8;  // The constructor's bound on D.

/// Per-run cached counts; the first D entries are used, the rest stay 0.
using State = std::array<int, kMaxDisks>;

/// A sorted state packed one count per byte (counts are <= 64), the first
/// count in the top byte, so that key order is the lexicographic order of
/// the sorted count vectors.
using Key = uint64_t;

Key KeyOf(State s, int d) {
  // Insertion sort: d <= 8, and std::sort's 16-element threshold trips
  // -Warray-bounds on an 8-element array.
  for (size_t i = 1; i < static_cast<size_t>(d); ++i) {
    for (size_t j = i; j > 0 && s[j - 1] > s[j]; --j) {
      std::swap(s[j - 1], s[j]);
    }
  }
  Key key = 0;
  for (int i = 0; i < d; ++i) {
    key |= static_cast<Key>(s[static_cast<size_t>(i)]) << (56 - 8 * i);
  }
  return key;
}

State StateOf(Key key, int d) {
  State s{};
  for (int i = 0; i < d; ++i) {
    s[static_cast<size_t>(i)] = static_cast<int>((key >> (56 - 8 * i)) & 0xff);
  }
  return s;
}

int Sum(const State& s) {
  int total = 0;
  for (int v : s) {
    total += v;
  }
  return total;
}

double Binomial(int n, int k) {
  double result = 1;
  for (int i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
  }
  return result;
}

/// Enumerates all subsets of size `want` from `candidates[0, n)`, invoking
/// `fn(chosen)` with the subset in `chosen[0, want)`; used for the greedy
/// policy's uniform choice of prefetch targets.
template <typename Fn>
void ForEachSubset(const State& candidates, int n, int want, State& chosen, int size,
                   int start, Fn& fn) {
  if (size == want) {
    fn(chosen);
    return;
  }
  for (int i = start; n - i >= want - size; ++i) {
    chosen[static_cast<size_t>(size)] = candidates[static_cast<size_t>(i)];
    ForEachSubset(candidates, n, want, chosen, size + 1, i + 1, fn);
  }
}

/// Walks the transitions out of sorted `state`: one branch per distinct
/// count (the depleted run is uniform, so equal counts share a branch).
/// Calls `on_branch(multiplicity, parallelism, divisor)` and then
/// `on_target(key)` once per target of that branch. `parallelism` is the
/// number of disks the branch's I/O uses (0 if it does none); a greedy
/// fan-out's targets are its `divisor` equally likely prefetch subsets.
template <typename OnBranch, typename OnTarget>
void ForEachTransition(const State& state, int d, int c, Policy policy, OnBranch&& on_branch,
                       OnTarget&& on_target) {
  for (size_t i = 0; i < static_cast<size_t>(d); ++i) {
    if (i > 0 && state[i] == state[i - 1]) {
      continue;  // Same multiset transition as the previous index.
    }
    int multiplicity = 0;
    for (size_t j = 0; j < static_cast<size_t>(d); ++j) {
      multiplicity += state[j] == state[i];
    }
    State s = state;
    s[i] -= 1;
    if (s[i] > 0) {
      on_branch(multiplicity, 0, 1.0);
      on_target(KeyOf(s, d));
      continue;
    }
    // I/O operation: run i is empty.
    int free = c - Sum(s);
    EMSIM_DCHECK(free >= 1);
    if (policy == Policy::kConservative) {
      int parallelism;
      if (free >= d) {
        for (size_t j = 0; j < static_cast<size_t>(d); ++j) {
          s[j] += 1;
        }
        parallelism = d;
      } else {
        s[i] += 1;
        parallelism = 1;
      }
      on_branch(multiplicity, parallelism, 1.0);
      on_target(KeyOf(s, d));
      continue;
    }
    int m = std::min(d, free);
    s[i] += 1;
    if (m == 1) {
      on_branch(multiplicity, 1, 1.0);
      on_target(KeyOf(s, d));
      continue;
    }
    // Choose m-1 of the other d-1 runs uniformly.
    on_branch(multiplicity, m, Binomial(d - 1, m - 1));
    State others{};
    int num_others = 0;
    for (int j = 0; j < d; ++j) {
      if (static_cast<size_t>(j) != i) {
        others[static_cast<size_t>(num_others++)] = j;
      }
    }
    State chosen{};
    auto add_prefetches = [&](const State& subset) {
      State next = s;
      for (int k = 0; k < m - 1; ++k) {
        next[static_cast<size_t>(subset[static_cast<size_t>(k)])] += 1;
      }
      on_target(KeyOf(next, d));
    };
    ForEachSubset(others, num_others, m - 1, chosen, 0, 0, add_prefetches);
  }
}

struct Branch {
  int multiplicity;   ///< Runs holding the depleted count.
  int parallelism;    ///< Disks used by the branch's I/O; 0 if it does none.
  double divisor;     ///< Targets a greedy fan-out splits over; else 1.
  uint32_t targets_end;  ///< End of this branch's targets in Table::targets.
};

/// The chain's reachable states in key order (index 0 is the start state
/// (1,...,1)) with their outgoing transitions as flat ranges.
struct Table {
  std::vector<int> occupancy;          ///< Per state: its cached-block total.
  std::vector<uint32_t> branches_end;  ///< Per state: end of its branches.
  std::vector<Branch> branches;
  std::vector<uint32_t> targets;  ///< State indices; duplicates kept.
};

/// Total transition weight out of state `s`; 1 for a stochastic table.
/// Only debug builds evaluate it.
[[maybe_unused]] double OutgoingWeight(const Table& table, size_t s, int d) {
  double total = 0;
  uint32_t b = s == 0 ? 0 : table.branches_end[s - 1];
  for (; b < table.branches_end[s]; ++b) {
    const Branch& br = table.branches[b];
    uint32_t first = b == 0 ? 0 : table.branches[b - 1].targets_end;
    total += static_cast<double>(br.targets_end - first) * br.multiplicity / d / br.divisor;
  }
  return total;
}

Table BuildTable(int d, int c, Policy policy) {
  State start{};
  std::fill(start.begin(), start.begin() + d, 1);
  std::vector<Key> keys{KeyOf(start, d)};
  std::unordered_set<Key> seen(keys.begin(), keys.end());
  auto ignore_branch = [](int, int, double) {};
  for (size_t i = 0; i < keys.size(); ++i) {
    ForEachTransition(StateOf(keys[i], d), d, c, policy, ignore_branch, [&](Key target) {
      if (seen.insert(target).second) {
        keys.push_back(target);
      }
    });
  }
  std::sort(keys.begin(), keys.end());

  Table table;
  table.occupancy.reserve(keys.size());
  table.branches_end.reserve(keys.size());
  for (size_t s = 0; s < keys.size(); ++s) {
    State state = StateOf(keys[s], d);
    table.occupancy.push_back(Sum(state));
    ForEachTransition(
        state, d, c, policy,
        [&](int multiplicity, int parallelism, double divisor) {
          table.branches.push_back({multiplicity, parallelism, divisor,
                                    static_cast<uint32_t>(table.targets.size())});
        },
        [&](Key target) {
          auto it = std::lower_bound(keys.begin(), keys.end(), target);
          table.targets.push_back(static_cast<uint32_t>(it - keys.begin()));
          table.branches.back().targets_end = static_cast<uint32_t>(table.targets.size());
        });
    table.branches_end.push_back(static_cast<uint32_t>(table.branches.size()));
    EMSIM_DCHECK(std::fabs(OutgoingWeight(table, s, d) - 1.0) < 1e-12);
  }
  return table;
}

}  // namespace

MarkovPrefetchModel::MarkovPrefetchModel(int num_disks, int cache_blocks)
    : d_(num_disks), c_(cache_blocks) {
  EMSIM_CHECK(num_disks >= 1);
  EMSIM_CHECK(cache_blocks >= num_disks && "the cache must hold one block per run");
  EMSIM_CHECK(num_disks <= kMaxDisks && cache_blocks <= 64 && "state space too large");
}

MarkovPrefetchModel::Solution MarkovPrefetchModel::Solve(Policy policy) const {
  // Invariant: before every depletion step each run holds >= 1 cached block
  // (a run that empties is refilled synchronously within the same step), so
  // states have all entries >= 1 and sum <= C.
  const Table table = BuildTable(d_, c_, policy);
  const size_t n = table.occupancy.size();
  std::vector<double> pi(n, 0.0);
  std::vector<double> next(n);
  pi[0] = 1.0;

  // Power iteration with 1/2 damping to kill periodicity. The summation
  // order is part of the result (the unconverged last digits are pinned in
  // markov_test): sources scatter in state order, each branch's share is
  // `prob * multiplicity / d` divided per target, and duplicate targets stay
  // separate adds.
  for (int iter = 0; iter < 2000; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    uint32_t b = 0;
    uint32_t t = 0;
    for (size_t s = 0; s < n; ++s) {
      for (; b < table.branches_end[s]; ++b) {
        const Branch& br = table.branches[b];
        double branch = pi[s] * br.multiplicity / d_;
        double per_target = branch / br.divisor;
        for (; t < br.targets_end; ++t) {
          next[table.targets[t]] += per_target;
        }
      }
    }
    double delta = 0;
    for (size_t s = 0; s < n; ++s) {
      double mixed = pi[s] / 2 + next[s] / 2;
      delta += std::fabs(mixed - pi[s]);
      pi[s] = mixed;
    }
    if (delta < 1e-13) {
      break;
    }
  }

  Solution metrics;
  double io_weight = 0;
  uint32_t b = 0;
  for (size_t s = 0; s < n; ++s) {
    for (; b < table.branches_end[s]; ++b) {
      const Branch& br = table.branches[b];
      if (br.parallelism == 0) {
        continue;
      }
      double branch = pi[s] * br.multiplicity / d_;
      metrics.parallelism += branch * br.parallelism;
      metrics.success += branch * (br.parallelism == d_ ? 1.0 : 0.0);
      io_weight += branch;
    }
  }
  EMSIM_CHECK(io_weight > 0);
  metrics.parallelism /= io_weight;
  metrics.success /= io_weight;
  for (size_t s = 0; s < n; ++s) {
    metrics.occupancy += pi[s] * table.occupancy[s];
  }
  return metrics;
}

const MarkovPrefetchModel::Solution& MarkovPrefetchModel::Solved(Policy policy) const {
  std::optional<Solution>& slot = solutions_[static_cast<size_t>(policy)];
  if (!slot) {
    slot = Solve(policy);
  }
  return *slot;
}

double MarkovPrefetchModel::AverageParallelism(Policy policy) const {
  return Solved(policy).parallelism;
}

double MarkovPrefetchModel::SuccessRatio(Policy policy) const { return Solved(policy).success; }

double MarkovPrefetchModel::MeanOccupancy(Policy policy) const {
  return Solved(policy).occupancy;
}

}  // namespace emsim::analysis
