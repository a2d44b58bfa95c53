#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "cache/block_cache.h"
#include "core/merge_simulator.h"
#include "disk/disk.h"
#include "disk/layout.h"
#include "io/planner.h"
#include "io/run_state.h"
#include "io/victim_chooser.h"
#include "measure.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace emsim::perfbench {
namespace {

constexpr int kReps = 5;
constexpr int64_t kTargetRepNs = 2'000'000;

// Keeps probe results observable so the optimizer cannot drop the work.
volatile uint64_t g_sink = 0;

struct RepOutcome {
  int64_t ops = 0;
  uint64_t events = 0;
};

/// Times `rep(scale)` kReps times after sizing `scale` so one repetition
/// takes about kTargetRepNs; `rep` performs `scale` units of work and
/// reports the operations and simulation events it did.
template <typename Rep>
ProbeCost Measure(Rep rep) {
  int64_t scale = 1;
  int64_t t0 = NowNs();
  rep(scale);
  int64_t one = std::max<int64_t>(NowNs() - t0, 1);
  scale = std::clamp<int64_t>(kTargetRepNs / one, 1, 1 << 20);
  std::vector<double> ns;
  ns.reserve(kReps);
  ProbeCost cost;
  for (int i = 0; i < kReps; ++i) {
    uint64_t allocs0 = HeapAllocs();
    int64_t start = NowNs();
    RepOutcome out = rep(scale);
    int64_t elapsed = NowNs() - start;
    double allocs_per_op =
        static_cast<double>(HeapAllocs() - allocs0) / static_cast<double>(out.ops);
    cost.allocs_repeat = cost.allocs_repeat && (i == 0 || allocs_per_op == cost.allocs_per_op);
    cost.allocs_per_op = allocs_per_op;
    ns.push_back(static_cast<double>(elapsed) / static_cast<double>(out.ops));
    cost.events_per_op = static_cast<double>(out.events) / static_cast<double>(out.ops);
  }
  cost.ns_per_op = Median(ns);
  return cost;
}

disk::RunLayout MakeLayout(const core::MergeConfig& c) {
  return disk::RunLayout(disk::RunLayout::Options{c.num_runs, c.num_disks, c.blocks_per_run,
                                                  c.disk_params.geometry, c.placement,
                                                  c.run_lengths});
}

io::RunStates MakeRuns(const core::MergeConfig& c) {
  return c.run_lengths.empty() ? io::RunStates(c.num_runs, c.blocks_per_run)
                               : io::RunStates(c.run_lengths);
}

int CalendarPopulation(core::MergeConfig config) {
  config.collect_metrics = true;
  Result<core::MergeResult> result = core::SimulateMerge(config);
  if (!result.ok()) {
    return 1;
  }
  for (const auto& sample : result->metrics) {
    if (sample.name == "sim.calendar_depth.avg") {
      return std::max(1, static_cast<int>(sample.value + 0.5));
    }
  }
  return 1;
}

ProbeCost ProbePlan(const core::MergeConfig& c) {
  disk::RunLayout layout = MakeLayout(c);
  sim::Simulation sim(c.calendar);
  cache::BlockCache cache(&sim, cache::BlockCache::Options{c.EffectiveCacheBlocks(),
                                                           c.num_runs, nullptr});
  io::RunStates runs = MakeRuns(c);
  Rng rng(c.seed);
  io::VictimChooser::Context ctx;
  ctx.layout = &layout;
  ctx.cache = &cache;
  ctx.runs = &runs;
  ctx.rng = &rng;
  std::unique_ptr<io::PrefetchPlanner> planner =
      c.strategy == core::Strategy::kAllDisksOneRun
          ? io::MakeAllDisksOneRunPlanner(c.prefetch_depth, io::MakeRandomVictimChooser())
          : io::MakeDemandOnlyPlanner(c.prefetch_depth);
  // One unit of work is a plan for every run as the demand run.
  return Measure([&](int64_t scale) {
    RepOutcome out;
    for (int64_t s = 0; s < scale; ++s) {
      for (int run = 0; run < c.num_runs; ++run) {
        g_sink = g_sink + planner->Plan(ctx, run).size();
      }
    }
    out.ops = scale * c.num_runs;
    return out;
  });
}

ProbeCost ProbeRunsOf(const core::MergeConfig& c) {
  disk::RunLayout layout = MakeLayout(c);
  return Measure([&](int64_t scale) {
    for (int64_t s = 0; s < scale; ++s) {
      for (int d = 0; d < c.num_disks; ++d) {
        g_sink = g_sink + layout.RunsOf(d).size();
      }
    }
    return RepOutcome{scale * c.num_disks, 0};
  });
}

ProbeCost ProbeSpans(const core::MergeConfig& c) {
  disk::RunLayout layout = MakeLayout(c);
  return Measure([&](int64_t scale) {
    for (int64_t s = 0; s < scale; ++s) {
      for (int run = 0; run < c.num_runs; ++run) {
        int64_t n = std::min<int64_t>(c.prefetch_depth, layout.RunBlocks(run));
        g_sink = g_sink + layout.Spans(run, 0, n).size();
      }
    }
    return RepOutcome{scale * c.num_runs, 0};
  });
}

/// Streams N-block reads of disk 0's runs through one Disk, each request
/// submitted from the previous one's completion so the queue stays as short
/// as in a merge. The spans are computed up front (the layout has its own
/// probe), and the block callback captures what the merge engine's does, so
/// it costs the same to store and call.
struct ServeStream {
  const std::vector<std::pair<int, disk::RunLayout::Span>>* reads;
  disk::Disk* disk;
  int64_t remaining;
  size_t issued = 0;
  int64_t delivered = 0;

  void SubmitNext() {
    const auto& [run, span] = (*reads)[issued++ % reads->size()];
    disk::DiskRequest request;
    request.start_block = span.local_start;
    request.nblocks = static_cast<int>(span.nblocks);
    request.kind = disk::RequestKind::kPrefetch;
    request.on_block = [this, run = run, first = span.first_offset,
                        stride = span.offset_stride](int i) {
      delivered += run + first + i * stride;
    };
    request.on_complete = [this] {
      if (--remaining > 0) {
        SubmitNext();
      } else {
        disk->Stop();
      }
    };
    disk->Submit(std::move(request));
  }
};

ProbeCost ProbeServe(const core::MergeConfig& c) {
  disk::RunLayout layout = MakeLayout(c);
  std::vector<int> runs = layout.RunsOf(0);
  if (runs.empty()) {
    runs.push_back(0);
  }
  // Eight sequential N-block reads of each run, interleaved across runs the
  // way a merge alternates between them.
  std::vector<std::pair<int, disk::RunLayout::Span>> reads;
  for (int64_t round = 0; round < 8; ++round) {
    for (int run : runs) {
      int64_t n = std::min<int64_t>(c.prefetch_depth, layout.RunBlocks(run));
      int64_t offset = (round * n) % (layout.RunBlocks(run) - n + 1);
      reads.emplace_back(run, layout.Spans(run, offset, n).front());
    }
  }
  return Measure([&](int64_t scale) {
    sim::Simulation sim(c.calendar);
    disk::Disk disk(&sim, c.disk_params, 0, c.seed);
    disk.Start();
    ServeStream stream{&reads, &disk, scale * 64};
    stream.SubmitNext();
    sim.Run();
    g_sink = g_sink + static_cast<uint64_t>(stream.delivered);
    return RepOutcome{scale * 64, sim.events_processed()};
  });
}

// Self-rescheduling callback that keeps the calendar population constant
// (the classic hold model; each event pops the minimum and pushes one).
struct HoldHopper {
  sim::Simulation* sim;
  uint64_t rng_state;

  void operator()() {
    uint64_t x = rng_state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng_state = x;
    double delta = 0.5 + static_cast<double>(x >> 44) * (1.0 / 524288.0);
    sim->ScheduleCallback(sim->Now() + delta, *this);
  }
};

ProbeCost ProbeHold(const core::MergeConfig& c, int population) {
  sim::Simulation sim(c.calendar);
  for (int i = 0; i < population; ++i) {
    sim.ScheduleCallback(static_cast<double>(i) / population,
                         HoldHopper{&sim, 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1)});
  }
  sim.RunBounded(static_cast<uint64_t>(8 * population) + 10000);  // Settle pools.
  return Measure([&](int64_t scale) {
    uint64_t events0 = sim.events_processed();
    sim.RunBounded(static_cast<uint64_t>(scale) * 256);
    uint64_t events = sim.events_processed() - events0;
    return RepOutcome{static_cast<int64_t>(events), events};
  });
}

ProbeCost ProbeBlockCycle(const core::MergeConfig& c) {
  sim::Simulation sim(c.calendar);
  cache::BlockCache cache(&sim, cache::BlockCache::Options{c.EffectiveCacheBlocks(),
                                                           c.num_runs, nullptr});
  std::vector<int64_t> next(static_cast<size_t>(c.num_runs), 0);
  return Measure([&](int64_t scale) {
    for (int64_t s = 0; s < scale; ++s) {
      for (int run = 0; run < c.num_runs; ++run) {
        int64_t& offset = next[static_cast<size_t>(run)];
        if (!cache.TryReserve(run, 1)) {
          continue;
        }
        cache.Deposit(run, offset);
        g_sink = g_sink + static_cast<uint64_t>(cache.ConsumeLeading(run));
        ++offset;
      }
    }
    return RepOutcome{scale * c.num_runs, 0};
  });
}

sim::Process Hopper(int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await sim::Delay(1.0);
  }
}

}  // namespace

ShapeProbes ProbeShape(const core::MergeConfig& config, Tracer* tracer) {
  ShapeProbes p;
  {
    ScopedSpan span(tracer, "probe.sim.population");
    p.population = CalendarPopulation(config);
  }
  {
    ScopedSpan span(tracer, "probe.io.plan");
    p.plan = ProbePlan(config);
  }
  {
    ScopedSpan span(tracer, "probe.disk.layout.runs_of");
    p.runs_of = ProbeRunsOf(config);
  }
  {
    ScopedSpan span(tracer, "probe.disk.layout.spans");
    p.spans = ProbeSpans(config);
  }
  {
    ScopedSpan span(tracer, "probe.disk.serve");
    p.serve = ProbeServe(config);
  }
  {
    ScopedSpan span(tracer, "probe.sim.hold");
    p.hold = ProbeHold(config, p.population);
  }
  {
    ScopedSpan span(tracer, "probe.cache.block_cycle");
    p.block_cycle = ProbeBlockCycle(config);
  }
  return p;
}

ProbeCost ProbeHop(Tracer* tracer) {
  ScopedSpan span(tracer, "probe.sim.hop");
  return Measure([](int64_t scale) {
    sim::Simulation sim;
    sim.Spawn(Hopper(static_cast<int>(scale) * 256));
    sim.Run();
    return RepOutcome{scale * 256, sim.events_processed()};
  });
}

ProbeCost ProbeMarkovSolve(int disks, int cache_blocks,
                           analysis::MarkovPrefetchModel::Policy policy, Tracer* tracer) {
  ScopedSpan span(tracer, "probe.analysis.solve");
  std::vector<double> ns;
  ProbeCost cost;
  for (int i = 0; i < kReps; ++i) {
    analysis::MarkovPrefetchModel model(disks, cache_blocks);
    uint64_t allocs0 = HeapAllocs();
    int64_t start = NowNs();
    double parallelism = model.AverageParallelism(policy);
    int64_t elapsed = NowNs() - start;
    double allocs = static_cast<double>(HeapAllocs() - allocs0);
    cost.allocs_repeat = cost.allocs_repeat && (i == 0 || allocs == cost.allocs_per_op);
    cost.allocs_per_op = allocs;
    ns.push_back(static_cast<double>(elapsed));
    g_sink = g_sink + static_cast<uint64_t>(parallelism * 1000.0);
  }
  cost.ns_per_op = Median(ns);
  return cost;
}

}  // namespace emsim::perfbench
