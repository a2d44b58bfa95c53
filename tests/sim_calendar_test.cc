// Property and stress tests pinning the event calendar (indexed 4-ary heap)
// to a reference model (std::priority_queue over (time, seq)), plus
// burst-resume equivalence, the seq-wrap renormalization, the frame pool's
// reuse guarantee and the O(1) live-process bookkeeping. These guard the
// invariant that the kernel preserves exact (time, seq) FIFO ordering under
// every driver (Run, RunUntil, Step), under reentrant scheduling from
// callbacks, and under adversarial time distributions (all-equal timestamps,
// sparse exponential spreads, population churn). Labeled `unit;thread` so the
// sanitizer CI jobs run them under ASan and TSan builds as well.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/calendar.h"
#include "sim/event.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace emsim::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference-model stress test.
//
// A static event tree is generated up front: root events at random times,
// each event spawning 0-2 children at `parent_time + delta` when executed
// (reentrant scheduling — the sim schedules children from inside callbacks).
// The same tree is replayed against a std::priority_queue reference that
// implements the documented contract directly: earliest time first, FIFO by
// insertion sequence on ties. The execution orders must match exactly.
// ---------------------------------------------------------------------------

struct EventTree {
  std::vector<double> time_of;
  std::vector<std::vector<std::pair<int, double>>> kids;  // (child id, delta)
  int num_ids = 0;
  int num_roots = 0;
};

EventTree MakeTree(uint64_t seed, int roots, int max_ids) {
  EventTree tree;
  tree.num_roots = roots;
  tree.time_of.resize(static_cast<size_t>(max_ids), 0.0);
  tree.kids.resize(static_cast<size_t>(max_ids));
  Rng rng(seed);
  int next_id = roots;
  for (int i = 0; i < roots; ++i) {
    // Coarse grid so distinct events frequently collide on the same time and
    // exercise the FIFO tie-break, not just the time ordering.
    tree.time_of[static_cast<size_t>(i)] = static_cast<double>(rng.UniformInt(40));
  }
  for (int id = 0; id < next_id; ++id) {
    uint64_t n_children = rng.UniformInt(3);  // 0, 1, or 2.
    for (uint64_t c = 0; c < n_children && next_id < max_ids; ++c) {
      double delta = static_cast<double>(rng.UniformInt(10));
      tree.kids[static_cast<size_t>(id)].emplace_back(next_id, delta);
      tree.time_of[static_cast<size_t>(next_id)] =
          tree.time_of[static_cast<size_t>(id)] + delta;
      ++next_id;
    }
  }
  tree.num_ids = next_id;
  return tree;
}

/// Executes the tree on the reference model: a binary heap over
/// (time, insertion seq) with no knowledge of the production calendar.
std::vector<int> ReferenceOrder(const EventTree& tree) {
  struct Entry {
    double time;
    uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  uint64_t seq = 0;
  for (int i = 0; i < tree.num_roots; ++i) {
    queue.push(Entry{tree.time_of[static_cast<size_t>(i)], seq++, i});
  }
  std::vector<int> order;
  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    order.push_back(top.id);
    for (const auto& [child, delta] : tree.kids[static_cast<size_t>(top.id)]) {
      queue.push(Entry{tree.time_of[static_cast<size_t>(child)], seq++, child});
    }
  }
  return order;
}

/// Schedules the tree's roots into `sim`; executed ids append to `log` and
/// reentrantly schedule their children.
class TreeDriver {
 public:
  TreeDriver(Simulation* sim, const EventTree* tree) : sim_(sim), tree_(tree) {}

  void ScheduleRoots() {
    for (int i = 0; i < tree_->num_roots; ++i) {
      Schedule(i);
    }
  }

  const std::vector<int>& log() const { return log_; }

 private:
  void Schedule(int id) {
    sim_->ScheduleCallback(tree_->time_of[static_cast<size_t>(id)],
                           [this, id] { Execute(id); });
  }

  void Execute(int id) {
    log_.push_back(id);
    for (const auto& [child, delta] : tree_->kids[static_cast<size_t>(id)]) {
      Schedule(child);
    }
  }

  Simulation* sim_;
  const EventTree* tree_;
  std::vector<int> log_;
};

TEST(CalendarContractTest, RunMatchesReferenceModel) {
  for (uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EventTree tree = MakeTree(seed, /*roots=*/200, /*max_ids=*/4000);
    std::vector<int> expected = ReferenceOrder(tree);

    Simulation sim;
    TreeDriver driver(&sim, &tree);
    driver.ScheduleRoots();
    sim.Run();

    EXPECT_EQ(driver.log(), expected);
    EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(tree.num_ids));
    EXPECT_EQ(sim.CalendarDepth(), 0u);
  }
}

TEST(CalendarContractTest, InterleavedStepAndRunUntilMatchesReferenceModel) {
  EventTree tree = MakeTree(/*seed=*/99, /*roots=*/150, /*max_ids=*/3000);
  std::vector<int> expected = ReferenceOrder(tree);

  Simulation sim;
  TreeDriver driver(&sim, &tree);
  driver.ScheduleRoots();
  // Drain through every driver the kernel offers: single steps, bounded
  // runs, then the terminal Run. Execution order must be invariant.
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(sim.Step());
  }
  sim.RunUntil(sim.Now() + 10.0);
  sim.RunUntil(sim.Now());  // Degenerate deadline: only same-time events.
  sim.Run();

  EXPECT_EQ(driver.log(), expected);
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(tree.num_ids));
}

TEST(CalendarContractTest, FifoTieBreakAcrossInterleavedTimes) {
  Simulation sim;
  std::vector<int> log;
  // Interleave registrations across two times; within a time, execution must
  // follow registration order exactly.
  for (int i = 0; i < 64; ++i) {
    double at = (i % 2 == 0) ? 5.0 : 3.0;
    sim.ScheduleCallback(at, [&log, i] { log.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(log.size(), 64u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i)], 2 * i + 1) << "time-3 group order";
    EXPECT_EQ(log[static_cast<size_t>(32 + i)], 2 * i) << "time-5 group order";
  }
}

// ---------------------------------------------------------------------------
// Adversarial time distributions: the expected order comes from the
// contract, not from the calendar's structure.
// ---------------------------------------------------------------------------

TEST(CalendarContractTest, AllEqualTimestampsPreserveFifo) {
  // Every event on one tick: the heap's comparator decides purely on seq.
  // Reentrant same-time scheduling must interleave exactly as the reference
  // does.
  Simulation sim;
  std::vector<int> log;
  constexpr int kFirstWave = 500;
  for (int i = 0; i < kFirstWave; ++i) {
    sim.ScheduleCallback(7.0, [&log, &sim, i] {
      log.push_back(i);
      if (i % 3 == 0) {
        // A same-tick child: must run after everything already registered.
        sim.ScheduleCallback(7.0, [&log, i] { log.push_back(kFirstWave + i); });
      }
    });
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < kFirstWave; ++i) {
    expected.push_back(i);
  }
  for (int i = 0; i < kFirstWave; i += 3) {
    expected.push_back(kFirstWave + i);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.Now(), 7.0);
}

TEST(CalendarContractTest, ExponentiallySpreadTimestampsMatchReference) {
  // Times spanning ~10 decades. Expected order: stable sort by time (seq
  // breaks ties by registration order).
  Rng rng(2024);
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) {
    double t = rng.Exponential(1.0) * std::pow(10.0, static_cast<double>(rng.UniformInt(10)));
    times.push_back(t);
  }
  std::vector<int> expected(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    expected[i] = static_cast<int>(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&times](int a, int b) {
                     return times[static_cast<size_t>(a)] < times[static_cast<size_t>(b)];
                   });

  Simulation sim;
  std::vector<int> log;
  for (size_t i = 0; i < times.size(); ++i) {
    sim.ScheduleCallback(times[i], [&log, i] { log.push_back(static_cast<int>(i)); });
  }
  sim.Run();
  EXPECT_EQ(log, expected);
}

TEST(CalendarContractTest, PopulationChurnWavesMatchReference) {
  // Sawtooth population (fill to ~2000, drain to ~50, repeat) grows and
  // shrinks the heap while events keep executing; the full execution order
  // is cross-checked against the contract.
  Simulation sim;
  Rng rng(31337);
  std::vector<double> pending;  // Times scheduled but not yet executed.
  std::vector<std::pair<double, int>> executed;
  int next_id = 0;
  auto schedule = [&](double at, int id) {
    sim.ScheduleCallback(at, [&executed, at, id] { executed.emplace_back(at, id); });
    pending.push_back(at);
  };
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 2000; ++i) {
      double at = sim.Now() + static_cast<double>(rng.UniformInt(500)) * 0.25;
      schedule(at, next_id++);
    }
    // Drain most of the population, leaving a deadline-ordered remainder.
    std::sort(pending.begin(), pending.end());
    double cutoff = pending[pending.size() - 50];
    pending.erase(pending.begin(), pending.end() - 50);
    sim.RunUntil(cutoff);
  }
  sim.Run();
  // The contract gives the expected order directly: sort executions by
  // (time, registration id) — ids were assigned in scheduling order.
  std::vector<std::pair<double, int>> expected = executed;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(executed, expected);
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(next_id));
}

// ---------------------------------------------------------------------------
// Batched same-timestamp resume. Ground truth comes from the kernel itself:
// with the calendar-depth timeline attached, ScheduleHandleBurst falls back
// to per-handle scheduling, so running one scenario with and without metrics
// must produce identical logs, event counts and clocks.
// ---------------------------------------------------------------------------

Process BurstWaiter(Simulation& sim, Event& ready, std::vector<int>& log, int id) {
  co_await ready.Wait();
  log.push_back(id);
  // Same-tick follow-up work: must run after every burst member resumed.
  sim.ScheduleCallback(sim.Now(), [&log, id] { log.push_back(1000 + id); });
  co_await Delay(0.0);  // Lone-runner bait: time must not advance mid-burst.
  log.push_back(2000 + id);
}

Process BurstSetter(Event& ready) {
  co_await Delay(5.0);
  ready.Set();
}

struct BurstRunResult {
  std::vector<int> log;
  uint64_t events = 0;
  double now = 0.0;
};

BurstRunResult RunBurstScenario(bool attach_metrics) {
  Simulation sim;
  obs::MetricsRegistry metrics(true);
  if (attach_metrics) {
    sim.AttachMetrics(&metrics);
  }
  BurstRunResult result;
  Event ready(&sim);
  for (int id = 0; id < 16; ++id) {
    sim.Spawn(BurstWaiter(sim, ready, result.log, id));
  }
  sim.Spawn(BurstSetter(ready));
  sim.Run();
  result.events = sim.events_processed();
  result.now = sim.Now();
  return result;
}

TEST(CalendarContractTest, EventBurstResumesWaitersInFifoOrder) {
  BurstRunResult burst = RunBurstScenario(/*attach_metrics=*/false);
  ASSERT_EQ(burst.log.size(), 48u);
  // All 16 members resume first (FIFO); then their same-tick follow-ups in
  // seq order — each member registered its callback then its Delay(0)
  // continuation, so the tail interleaves (1000+id, 2000+id) pairs.
  for (int id = 0; id < 16; ++id) {
    EXPECT_EQ(burst.log[static_cast<size_t>(id)], id) << "waiter order";
    EXPECT_EQ(burst.log[static_cast<size_t>(16 + 2 * id)], 1000 + id) << "follow-up order";
    EXPECT_EQ(burst.log[static_cast<size_t>(17 + 2 * id)], 2000 + id) << "post-delay order";
  }
  EXPECT_EQ(burst.now, 5.0);
}

TEST(CalendarContractTest, BurstPathMatchesUnbatchedFallbackExactly) {
  BurstRunResult burst = RunBurstScenario(/*attach_metrics=*/false);
  BurstRunResult unbatched = RunBurstScenario(/*attach_metrics=*/true);
  EXPECT_EQ(burst.log, unbatched.log);
  EXPECT_EQ(burst.events, unbatched.events);
  EXPECT_EQ(burst.now, unbatched.now);
}

Process SignalHopper(Signal& pulse, int& rounds, std::vector<int>& log, int id) {
  while (rounds > 0) {
    co_await pulse.Wait();
    log.push_back(id);
  }
}

Process SignalDriver(Signal& pulse, int& rounds) {
  while (rounds > 0) {
    co_await Delay(1.0);
    --rounds;
    pulse.Fire();
  }
}

TEST(CalendarContractTest, RepeatedSignalBurstsRecycleBurstSlots) {
  Simulation sim;
  Signal pulse(&sim);
  int rounds = 50;
  std::vector<int> log;
  for (int id = 0; id < 8; ++id) {
    sim.Spawn(SignalHopper(pulse, rounds, log, id));
  }
  sim.Spawn(SignalDriver(pulse, rounds));
  sim.Run();
  // 50 pulses x 8 waiters, FIFO within each pulse. (The final pulse finds
  // rounds == 0, so every waiter still runs exactly 50 times.)
  ASSERT_EQ(log.size(), 400u);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], static_cast<int>(i % 8));
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

// ---------------------------------------------------------------------------
// 32-bit seq wrap: renormalization keeps the FIFO contract across the wrap.
// ---------------------------------------------------------------------------

TEST(CalendarContractTest, SeqWrapRenormalizationPreservesFifo) {
  Simulation sim;
  std::vector<int> log;
  // A few entries with ordinary seqs, then force the counter to the edge so
  // the remaining registrations straddle the wrap mid-scheduling.
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleCallback(20.0 + i, [&log, i] { log.push_back(i); });
  }
  sim.SetNextSeqForTest(UINT32_MAX - 2);
  for (int i = 5; i < 30; ++i) {
    sim.ScheduleCallback(10.0, [&log, i] { log.push_back(i); });
  }
  sim.Run();
  // Expected: the same-time block (5..29) in registration order — across the
  // renormalization — then the earlier-registered but later-timed 0..4.
  ASSERT_EQ(log.size(), 30u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i)], 5 + i);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(25 + i)], i);
  }
}

Process WakeRecorder(Simulation& sim, std::vector<double>& wakes) {
  for (int i = 0; i < 8; ++i) {
    co_await Delay(1.5);
    wakes.push_back(sim.Now());
  }
}

TEST(CalendarContractTest, SeqWrapDuringLoneRunnerAdvance) {
  Simulation sim;
  sim.SetNextSeqForTest(UINT32_MAX - 1);
  std::vector<double> wakes;
  sim.Spawn(WakeRecorder(sim, wakes));
  sim.Run();
  ASSERT_EQ(wakes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(wakes[static_cast<size_t>(i)], 1.5 * (i + 1));
  }
}

TEST(CalendarContractTest, SeqWrapMidTreeMatchesReferenceModel) {
  // Hundreds of entries are pending when the counter wraps, and the wrap
  // lands while callbacks reentrantly schedule children: renormalization
  // must re-sort the whole heap without changing a single pop.
  EventTree tree = MakeTree(/*seed=*/4242, /*roots=*/300, /*max_ids=*/3000);
  std::vector<int> expected = ReferenceOrder(tree);

  Simulation sim;
  TreeDriver driver(&sim, &tree);
  driver.ScheduleRoots();
  sim.SetNextSeqForTest(UINT32_MAX - 40);
  sim.Run();
  EXPECT_EQ(driver.log(), expected);
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(tree.num_ids));
}

TEST(CalendarContractTest, RepeatedSeqWrapsAcrossChurnPreserveOrder) {
  // Three wraps, each with a partly drained heap left over from the last
  // round, so renormalized seqs and fresh seqs mix in one heap.
  Simulation sim;
  Rng rng(515);
  std::vector<std::pair<double, int>> executed;
  int next_id = 0;
  auto schedule = [&] {
    const double at = sim.Now() + static_cast<double>(rng.UniformInt(20));
    const int id = next_id++;
    sim.ScheduleCallback(at, [&executed, at, id] { executed.emplace_back(at, id); });
  };
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      schedule();
    }
    // Every pending seq is far below the planted value, so the plant only
    // moves the counter forward; the wrap then lands mid-batch.
    sim.SetNextSeqForTest(UINT32_MAX - 10);
    for (int i = 0; i < 40; ++i) {
      schedule();
    }
    sim.RunUntil(sim.Now() + 8.0);
  }
  sim.Run();
  std::vector<std::pair<double, int>> expected = executed;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(executed, expected);
  EXPECT_EQ(executed.size(), 240u);
}

Process LatchWaiter(Event& ready, std::vector<int>& log, int id) {
  co_await ready.Wait();
  log.push_back(id);
}

TEST(CalendarContractTest, BurstIsOneCalendarEntryCountingEveryMember) {
  Simulation sim;
  Event ready(&sim);
  std::vector<int> log;
  for (int id = 0; id < 16; ++id) {
    sim.Spawn(LatchWaiter(ready, log, id));
  }
  sim.RunUntil(0.0);  // Every waiter parks on the latch.
  ASSERT_EQ(sim.CalendarDepth(), 0u);
  const uint64_t before = sim.events_processed();
  ready.Set();
  EXPECT_EQ(sim.CalendarDepth(), 1u) << "one entry stands for the whole group";
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_processed() - before, 16u) << "each member counts as one event";
  EXPECT_EQ(sim.CalendarDepth(), 0u);
  ASSERT_EQ(log.size(), 16u);
  for (int id = 0; id < 16; ++id) {
    EXPECT_EQ(log[static_cast<size_t>(id)], id);
  }
}

TEST(CalendarContractTest, SeqWrapWithPendingBurstKeepsGroupOrder) {
  // A burst group holds a single seq for all its members; the wrap must keep
  // it between the entry registered before it and those registered after.
  Simulation sim;
  Event ready(&sim);
  std::vector<int> log;
  for (int id = 0; id < 8; ++id) {
    sim.Spawn(LatchWaiter(ready, log, id));
  }
  sim.RunUntil(0.0);
  sim.ScheduleCallback(0.0, [&log] { log.push_back(-1); });
  sim.SetNextSeqForTest(UINT32_MAX - 1);
  ready.Set();  // Takes the last seq before the wrap.
  sim.ScheduleCallback(0.0, [&log] { log.push_back(100); });  // Wraps.
  sim.ScheduleCallback(0.0, [&log] { log.push_back(101); });
  sim.Run();
  const std::vector<int> expected = {-1, 0, 1, 2, 3, 4, 5, 6, 7, 100, 101};
  EXPECT_EQ(log, expected);
}

TEST(CalendarContractTest, RunBoundedChunksMatchReferenceModel) {
  // Chunked drains of every size, including chunks that end with reentrant
  // children still pending, pop exactly the reference order.
  EventTree tree = MakeTree(/*seed=*/77, /*roots=*/150, /*max_ids=*/3000);
  std::vector<int> expected = ReferenceOrder(tree);

  Simulation sim;
  TreeDriver driver(&sim, &tree);
  driver.ScheduleRoots();
  Rng rng(78);
  int chunks = 0;
  while (!sim.RunBounded(1 + rng.UniformInt(64))) {
    ++chunks;
  }
  EXPECT_GT(chunks, 10);
  EXPECT_EQ(driver.log(), expected);
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(tree.num_ids));
}

TEST(CalendarContractTest, DescendingInsertionsPopAscending) {
  // Every push is earlier than all pending entries, so each sift-up climbs to
  // the root; pairs of equal times check the tie-break on that path too.
  Simulation sim;
  std::vector<int> log;
  constexpr int kEntries = 4000;
  for (int i = 0; i < kEntries; ++i) {
    const double at = static_cast<double>((kEntries - 1 - i) / 2);
    sim.ScheduleCallback(at, [&log, i] { log.push_back(i); });
  }
  EXPECT_EQ(sim.CalendarDepth(), static_cast<size_t>(kEntries));
  sim.Run();
  ASSERT_EQ(log.size(), static_cast<size_t>(kEntries));
  for (int k = 0; k < kEntries / 2; ++k) {
    // Time k holds ids kEntries-2-2k and kEntries-1-2k, in registration order.
    EXPECT_EQ(log[static_cast<size_t>(2 * k)], kEntries - 2 - 2 * k);
    EXPECT_EQ(log[static_cast<size_t>(2 * k + 1)], kEntries - 1 - 2 * k);
  }
}

TEST(CalendarContractTest, ExplicitHeapArgumentMatchesDefault) {
  // The constructor parameter is a compatibility remnant (see
  // CalendarBackend): passing it must not change a single pop.
  EventTree tree = MakeTree(/*seed=*/5, /*roots=*/100, /*max_ids=*/1500);
  Simulation plain;
  TreeDriver plain_driver(&plain, &tree);
  plain_driver.ScheduleRoots();
  plain.Run();
  Simulation explicit_heap(CalendarBackend::kHeap);
  TreeDriver explicit_driver(&explicit_heap, &tree);
  explicit_driver.ScheduleRoots();
  explicit_heap.Run();
  EXPECT_EQ(explicit_driver.log(), plain_driver.log());
  EXPECT_EQ(explicit_heap.events_processed(), plain.events_processed());
  EXPECT_EQ(explicit_heap.Now(), plain.Now());
}

// ---------------------------------------------------------------------------
// 4-ary heap shapes. A node i has children 4i+1..4i+4, so populations at and
// one past a full level (1, 5, 21, 85) and ones whose last parent has one to
// three children are where an off-by-one in a sift loop shows. Each size is
// filled in ascending, descending and shuffled-with-ties order, and every
// Step must pop the contract's next entry and shrink the depth by one.
// ---------------------------------------------------------------------------

class CalendarHeapShapeTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CalendarHeapShapeTest,
                         ::testing::Values(1, 2, 5, 6, 8, 21, 22, 85),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST_P(CalendarHeapShapeTest, EveryFillOrderPopsInContractOrder) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  std::vector<std::vector<double>> fills(3);
  for (int i = 0; i < n; ++i) {
    fills[0].push_back(static_cast<double>(i));
    fills[1].push_back(static_cast<double>(n - i));
    fills[2].push_back(static_cast<double>(rng.UniformInt(static_cast<uint64_t>(n / 3 + 1))));
  }
  for (size_t f = 0; f < fills.size(); ++f) {
    SCOPED_TRACE("fill order " + std::to_string(f));
    const std::vector<double>& times = fills[f];
    std::vector<int> expected(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] = i;
    }
    std::stable_sort(expected.begin(), expected.end(), [&times](int a, int b) {
      return times[static_cast<size_t>(a)] < times[static_cast<size_t>(b)];
    });

    Simulation sim;
    std::vector<int> log;
    for (int i = 0; i < n; ++i) {
      sim.ScheduleCallback(times[static_cast<size_t>(i)], [&log, i] { log.push_back(i); });
    }
    for (int popped = 0; popped < n; ++popped) {
      ASSERT_EQ(sim.CalendarDepth(), static_cast<size_t>(n - popped));
      ASSERT_TRUE(sim.Step());
      ASSERT_EQ(log.back(), expected[static_cast<size_t>(popped)]) << "pop " << popped;
      EXPECT_EQ(sim.Now(), times[static_cast<size_t>(log.back())]);
    }
    EXPECT_FALSE(sim.Step());
    EXPECT_EQ(log, expected);
  }
}

// ---------------------------------------------------------------------------
// Interleaved schedule/Step fuzz: each pop is checked against a reference
// queue over (time, registration order) the moment it happens, with the
// population swinging between a handful and thousands of entries.
// ---------------------------------------------------------------------------

void FuzzAgainstReference(uint64_t seed, int ops, double (*next_time)(Rng&, double)) {
  struct RefEntry {
    double time;
    int id;  // Registration order, the contract's tie-break.
  };
  struct RefLater {
    bool operator()(const RefEntry& a, const RefEntry& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };
  std::priority_queue<RefEntry, std::vector<RefEntry>, RefLater> ref;
  Rng rng(seed);
  Simulation sim;
  int popped = -1;
  int next_id = 0;
  auto pop_and_check = [&](int op) {
    ASSERT_TRUE(sim.Step());
    ASSERT_EQ(popped, ref.top().id) << "op " << op;
    EXPECT_EQ(sim.Now(), ref.top().time) << "op " << op;
    ref.pop();
  };
  for (int op = 0; op < ops; ++op) {
    // Bias toward pushes while small, pops while large, so the population
    // swings up and down repeatedly.
    const uint64_t push_bias = sim.CalendarDepth() < 512 ? 60 : 40;
    if (ref.empty() || rng.UniformInt(100) < push_bias) {
      const double at = next_time(rng, sim.Now());
      const int id = next_id++;
      sim.ScheduleCallback(at, [&popped, id] { popped = id; });
      ref.push(RefEntry{at, id});
    } else {
      pop_and_check(op);
    }
    ASSERT_EQ(sim.CalendarDepth(), ref.size()) << "op " << op;
  }
  while (!ref.empty()) {
    pop_and_check(ops);
  }
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(next_id));
}

TEST(CalendarFuzzTest, UniformTimesMatchReference) {
  FuzzAgainstReference(17, 20000, [](Rng& rng, double now) {
    return now + static_cast<double>(rng.UniformInt(1000)) * 0.125;
  });
}

TEST(CalendarFuzzTest, AllEqualTimesMatchReference) {
  // Every entry on the current tick: order is pure registration order.
  FuzzAgainstReference(23, 8000, [](Rng&, double now) { return now; });
}

TEST(CalendarFuzzTest, ExponentialSpreadMatchesReference) {
  // Successive times jump across decades.
  FuzzAgainstReference(29, 8000, [](Rng& rng, double now) {
    return now + rng.Exponential(1.0) * std::pow(10.0, static_cast<double>(rng.UniformInt(8)));
  });
}

TEST(CalendarFuzzTest, FillAndDrainCyclesMatchReference) {
  // Whole-heap cycles: fill to 4096 entries, drain to empty, three times;
  // the ascending sweep over a random fill checks every pop.
  Simulation sim;
  Rng rng(7);
  std::vector<std::pair<double, int>> executed;
  int next_id = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 4096; ++i) {
      const double at = sim.Now() + static_cast<double>(rng.UniformInt(100000)) * 0.01;
      const int id = next_id++;
      sim.ScheduleCallback(at, [&executed, at, id] { executed.emplace_back(at, id); });
    }
    EXPECT_EQ(sim.CalendarDepth(), 4096u);
    sim.Run();
    EXPECT_EQ(sim.CalendarDepth(), 0u);
  }
  std::vector<std::pair<double, int>> expected = executed;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(executed, expected);
  EXPECT_EQ(executed.size(), 3u * 4096u);
}

// ---------------------------------------------------------------------------
// Callback-cell pool behavior.
// ---------------------------------------------------------------------------

TEST(CalendarTest, CallbackSlotsAreReusedAcrossWaves) {
  Simulation sim;
  int64_t hits = 0;
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleCallback(sim.Now() + 1.0 + i, [&hits] { ++hits; });
    }
    sim.Run();
    // The pool grows to the high-water mark of concurrently pending
    // callbacks on the first wave and never after.
    EXPECT_EQ(sim.CallbackPoolSize(), 50u) << "wave " << wave;
  }
  EXPECT_EQ(hits, 6 * 50);
}

TEST(CalendarTest, HandleSlotsAreReusedAcrossWaves) {
  Simulation sim;
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 40; ++i) {
      sim.Spawn([](double delay) -> Process { co_await Delay(delay); }(1.0 + i));
    }
    sim.Run();
    // Same recycling contract as callback cells: the handle pool grows to
    // the peak number of simultaneously parked coroutines, then stabilizes.
    EXPECT_EQ(sim.HandlePoolSize(), 40u) << "wave " << wave;
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(CalendarTest, HeapBoxedCallablesExecuteAndDestruct) {
  auto token = std::make_shared<int>(7);
  {
    Simulation sim;
    int sum = 0;
    // Large trivially-copyable capture: too big for the inline cell, heap-boxed.
    std::array<int, 64> big{};
    big[0] = 1;
    big[63] = 2;
    sim.ScheduleCallback(1.0, [big, &sum] { sum += big[0] + big[63]; });
    // Non-trivially-copyable capture (shared_ptr): also heap-boxed.
    sim.ScheduleCallback(2.0, [token, &sum] { sum += *token; });
    sim.Run();
    EXPECT_EQ(sum, 10);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(CalendarTest, PendingCallbacksAreDestroyedWithTheSimulation) {
  auto token = std::make_shared<int>(1);
  {
    Simulation sim;
    sim.ScheduleCallback(1.0, [token] { (void)*token; });
    sim.ScheduleCallback(2.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 3);
    // Destroy without running: the kernel must still release both captures.
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Frame pool and live-process bookkeeping.
// ---------------------------------------------------------------------------

Process Sleeper(Simulation& /*sim*/, double delay) { co_await Delay(delay); }

TEST(FramePoolTest, SpawnWavesReuseFramesWithoutNewReservations) {
  auto run_wave = [] {
    Simulation sim;
    Rng rng(11);
    for (int i = 0; i < 64; ++i) {
      sim.Spawn(Sleeper(sim, static_cast<double>(1 + rng.UniformInt(100))));
    }
    sim.Run();
  };
  run_wave();  // Warm the thread-local pool to its high-water mark.
  FramePool::Stats warm = FramePool::ThreadStats();
  for (int wave = 0; wave < 5; ++wave) {
    run_wave();
  }
  FramePool::Stats after = FramePool::ThreadStats();
  // Steady state: frames recycle through the free lists; the slab footprint
  // (the RSS proxy) must not grow.
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(after.slabs_allocated, warm.slabs_allocated);
  EXPECT_GT(after.pool_allocs, warm.pool_allocs);
  EXPECT_EQ(after.live_frames, warm.live_frames);
}

TEST(LiveProcessTest, RandomOrderFinishKeepsCountExact) {
  Simulation sim;
  // Distinct delays in shuffled order: processes finish in a different order
  // than they were spawned, exercising the swap-with-back slot maintenance.
  Rng rng(5);
  std::vector<uint32_t> delays = rng.Permutation(40);
  for (uint32_t d : delays) {
    sim.Spawn(Sleeper(sim, static_cast<double>(d) + 1.0));
  }
  EXPECT_EQ(sim.live_processes(), 40);
  // Probe mid-run: at time 20.5 every process with delay <= 20 has finished.
  sim.RunUntil(20.5);
  EXPECT_EQ(sim.live_processes(), 20);
  sim.Run();
  EXPECT_EQ(sim.live_processes(), 0);
  EXPECT_EQ(sim.CalendarDepth(), 0u);
}

}  // namespace
}  // namespace emsim::sim
