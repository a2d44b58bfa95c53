// emsim's end-to-end benchmark binary. One process runs one workload
// serially through the public layer entry points and measures host time;
// simulated statistics are deterministic per seed and are checked for exact
// equality, never timed. See perfbench/README.md for the workloads, metrics
// and the per-layer ledger.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <source tree> --refs <references.txt> --out <dir>
//
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every output check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "analysis/markov.h"
#include "check.h"
#include "core/experiment.h"
#include "core/result_json.h"
#include "measure.h"
#include "probes.h"
#include "sweep/merge.h"
#include "sweep/shard.h"
#include "trace.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/str.h"
#include "workload/experiment_spec.h"

namespace emsim::perfbench {
namespace {

using Policy = analysis::MarkovPrefetchModel::Policy;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string refs;
  std::string out_dir = ".";
  bool record_references = false;
};

// ---------------------------------------------------------------------------
// Report: metrics in order, human-readable notes, and the output check.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "") {
    metrics_.push_back(Metric{name, value, unit});
    Note(name, value, unit, detail);
  }
  /// Printed only: a figure the result object does not carry.
  static void Note(const std::string& name, double value, const std::string& unit,
                   const std::string& detail = "") {
    std::printf("  %-28s %16.6g %-6s %s\n", name.c_str(), value, unit.c_str(), detail.c_str());
  }
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(int64_t n, const std::string& why) {
    failed_ += n;
    if (!why.empty()) {
      Error(why);
    }
  }
  void Error(const std::string& why) {
    if (errors_.size() < 20) {
      std::printf("CHECK FAILED: %s\n", why.c_str());
    }
    errors_.push_back(why);
  }
  bool correct() const { return failed_ == 0 && errors_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The one-line result object; every value printed with all its digits.
  std::string ResultLine() const {
    std::string out =
        StrFormat("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                  correct() ? "true" : "false", static_cast<long long>(attempted_),
                  static_cast<long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                       m.name.c_str(), m.value, m.unit.c_str());
    }
    return out + "}}";
  }

  /// Rejects values the result object cannot carry (non-finite numbers,
  /// names or units outside the result object's charsets).
  void ValidateMetrics() {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value) || !ValidMetricName(m.name) || !ValidUnit(m.unit)) {
        Error("malformed metric " + m.name);
      }
    }
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

constexpr int kSetupSamples = 7;

/// Seconds per call of `fn`: calls it repeatedly for at least 10 ms per
/// sample, kSetupSamples samples, median. Set-up steps are microseconds to
/// milliseconds, far below what one timer read resolves reliably.
double SecondsPerCall(const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int s = 0; s < kSetupSamples; ++s) {
    int64_t calls = 0;
    int64_t start = NowNs();
    int64_t elapsed = 0;
    do {
      fn();
      ++calls;
      elapsed = NowNs() - start;
    } while (elapsed < 10'000'000);
    samples.push_back(static_cast<double>(elapsed) / 1e9 / static_cast<double>(calls));
  }
  return Median(samples);
}

/// Timed passes for a run: fixed by --seconds and the workload's nominal
/// pass time on the reference machine, so sample counts (and with them the
/// tail percentile) are identical in every run.
int PassCount(double seconds, double nominal_pass_s) {
  return std::max(3, static_cast<int>(std::ceil(seconds / nominal_pass_s - 1e-9)));
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void WriteOutput(const Options& opt, const std::string& suffix, const std::string& text,
                 Report& report) {
  std::string path = opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                     suffix;
  Status written = util::WriteFileAtomic(path, text);
  if (!written.ok()) {
    report.Error(written.ToString());
  } else {
    std::printf("  wrote %s\n", path.c_str());
  }
}

/// Samples from a metric run's timed passes, and the end-to-end metrics
/// every workload reports from them.
class TimedPasses {
 public:
  /// What one workload calls its work: merged blocks per trial, or solves.
  struct Units {
    const char* item;        ///< Detail text for items_per_s.
    const char* throughput;  ///< Printed alias of items_per_s.
    const char* task;        ///< What one trial_ms sample times.
  };

  /// Records one pass; its allocation count must equal every other pass's.
  void Add(double wall_ns, const std::vector<double>& task_ms, uint64_t allocs, Report& report) {
    wall_s_.push_back(wall_ns / 1e9);
    task_ms_.insert(task_ms_.end(), task_ms.begin(), task_ms.end());
    if (allocs_.has_value() && *allocs_ != allocs) {
      report.Error(StrFormat("allocation count differs between passes: %llu vs %llu",
                             static_cast<unsigned long long>(*allocs_),
                             static_cast<unsigned long long>(allocs)));
    }
    allocs_ = allocs;
  }

  void ReportEndToEnd(Report& report, double setup_s, const char* setup_detail,
                      double items_per_pass, const Units& units) const {
    double total_s = 0;
    for (double s : wall_s_) {
      total_s += s;
    }
    const double passes = static_cast<double>(wall_s_.size());
    const double items_per_s = items_per_pass * passes / total_s;
    Tail tail = TailOf(task_ms_);
    report.Add("setup_s", setup_s, "s", setup_detail);
    report.Add("wall_s", Median(wall_s_), "s",
               StrFormat("median pass of %zu (%.4g .. %.4g)", wall_s_.size(),
                         *std::min_element(wall_s_.begin(), wall_s_.end()),
                         *std::max_element(wall_s_.begin(), wall_s_.end())));
    report.Add("items_per_s", items_per_s, "1/s", units.item);
    report.Add("trial_ms_p50", Median(task_ms_), "ms",
               StrFormat("%zu %s", task_ms_.size(), units.task));
    report.Add("trial_ms_tail", tail.value, "ms",
               StrFormat("p%g of %zu %s", tail.percentile, tail.samples, units.task));
    report.Add("allocs_per_item", static_cast<double>(allocs_.value_or(0)) / items_per_pass,
               "count", StrFormat("operator new calls per %s", units.item));
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    Report::Note(units.throughput, items_per_s, "1/s", "= items_per_s");
    Report::Note("failed_frac",
                 static_cast<double>(report.failed()) / static_cast<double>(report.attempted()),
                 "frac",
                 StrFormat("of %lld attempted", static_cast<long long>(report.attempted())));
  }

 private:
  std::vector<double> wall_s_;
  std::vector<double> task_ms_;
  std::optional<uint64_t> allocs_;
};

// ---------------------------------------------------------------------------
// Merge workloads: spec -> units -> grid -> trials -> aggregate -> JSON
// export -> shard encode -> shard merge, the path a sweep takes.

struct MergeWorkload {
  std::string name;
  std::string spec_path;  ///< Relative to the source root; empty when generated.
  std::string spec_text;  ///< Generated spec (used when spec_path is empty).
  /// Host seconds of one pass on the reference machine (4-vCPU VM, gcc 12
  /// Release build); with --seconds it fixes the number of timed passes.
  double nominal_pass_s = 1.0;
};

/// The trial seeds of the generated workloads come from --seed; the
/// simulator sees only the resulting spec.
std::string GeneratedSpec(const std::string& name, const std::string& body, int trials,
                          uint64_t seed) {
  uint64_t base = 1 + SplitMix64(seed) % 1'000'000'000ULL;
  return StrFormat("[%s]\n%strials = %d\nseed = %llu\n", name.c_str(), body.c_str(), trials,
                   static_cast<unsigned long long>(base));
}

std::optional<MergeWorkload> FindMergeWorkload(const std::string& name, uint64_t seed) {
  if (name == "paper_grid") {
    return MergeWorkload{name, "tools/sweep/specs/paper_full.ini", "", 0.8};
  }
  if (name == "wide_array") {
    return MergeWorkload{
        name, "",
        GeneratedSpec(name,
                      "runs = 400\ndisks = 100\nblocks = 200\nstrategy = all-disks-one-run\n"
                      "n = 1\nsync = unsync\n",
                      4, seed),
        0.6};
  }
  if (name == "demand_writes") {
    return MergeWorkload{
        name, "",
        GeneratedSpec(name,
                      "runs = 25\ndisks = 5\nblocks = 1000\nstrategy = demand-run-only\n"
                      "n = 1\nsync = unsync\nwrite_traffic = shared\n",
                      16, seed),
        0.25};
  }
  return std::nullopt;
}

/// Where markov_policy prices the merge-side layers: the paper's default
/// shape (k=25, D=5, N=1, inter-run, unsynchronized), two trials.
MergeWorkload ReferencePipeline() {
  return MergeWorkload{"reference_pipeline", "",
                       "[paper-default]\nruns = 25\ndisks = 5\nstrategy = all-disks-one-run\n"
                       "n = 1\nsync = unsync\ntrials = 2\n",
                       1.0};
}

Result<std::vector<workload::ExperimentSpec>> LoadSpecs(const MergeWorkload& w,
                                                        const Options& opt) {
  if (!w.spec_path.empty()) {
    return workload::LoadExperimentSpec(opt.root + "/" + w.spec_path);
  }
  return workload::ParseExperimentSpec(w.spec_text, w.name);
}

struct Grid {
  std::vector<core::SweepUnit> units;
  core::SweepGrid grid;
};

Grid BuildGrid(const std::vector<workload::ExperimentSpec>& specs) {
  Grid g;
  g.units = sweep::UnitsFromSpecs(specs);
  g.grid = core::SweepGrid(g.units);
  return g;
}

/// The seed picks the shard count of the round trip; the merged export must
/// not depend on it.
int ShardCount(uint64_t seed) { return 2 + static_cast<int>(seed % 3); }

std::string ExportJson(const Grid& g, const std::vector<core::ExperimentResult>& aggregates) {
  std::vector<core::NamedExperiment> named;
  for (size_t u = 0; u < g.units.size(); ++u) {
    named.push_back(core::NamedExperiment{g.units[u].name, g.units[u].config, &aggregates[u]});
  }
  return core::ExperimentSetToJson(named);
}

/// Everything one pass produced and what each stage cost.
struct MergePass {
  double wall_ns = 0;
  uint64_t allocs = 0;
  std::vector<double> trial_ms;
  std::vector<core::MergeResult> results;  ///< Per global task.
  std::vector<int> failed_tasks;
  std::string first_error;
  std::vector<core::ExperimentResult> aggregates;
  std::string export_json;
  std::vector<std::string> artifacts;
  Result<std::vector<core::ExperimentResult>> merged = Status::Internal("not merged");
  double trials_ns = 0, aggregate_ns = 0, export_ns = 0, encode_ns = 0, merge_ns = 0;
};

MergePass RunMergePass(const Grid& g, int shards, Tracer* tracer) {
  MergePass p;
  const int total = g.grid.total_tasks();
  p.results.resize(static_cast<size_t>(total));
  p.trial_ms.reserve(static_cast<size_t>(total));
  ScopedSpan pass_span(tracer, "pass");
  uint64_t allocs0 = HeapAllocs();
  int64_t t0 = NowNs();
  for (int t = 0; t < total; ++t) {
    ScopedSpan span(tracer, "core.trial", t);
    int64_t start = NowNs();
    core::SweepRangeOutcome outcome = core::RunSweepRange(g.grid, t, t + 1, 1);
    p.trial_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (outcome.ok()) {
      p.results[static_cast<size_t>(t)] = std::move(outcome.results.front());
    } else {
      p.failed_tasks.push_back(t);
      if (p.first_error.empty()) {
        p.first_error = StrFormat("task %d: %s", t, outcome.status.ToString().c_str());
      }
    }
  }
  int64_t t1 = NowNs();
  p.trials_ns = static_cast<double>(t1 - t0);
  if (p.failed_tasks.empty()) {
    {
      ScopedSpan span(tracer, "core.aggregate");
      for (int u = 0; u < g.grid.num_units(); ++u) {
        auto first = p.results.begin() + g.grid.UnitBegin(u);
        p.aggregates.push_back(core::AggregateTrials(
            std::vector<core::MergeResult>(first, first + g.units[static_cast<size_t>(u)].trials)));
      }
    }
    int64_t t2 = NowNs();
    {
      ScopedSpan span(tracer, "export.json");
      p.export_json = ExportJson(g, p.aggregates);
    }
    int64_t t3 = NowNs();
    {
      ScopedSpan span(tracer, "sweep.encode");
      uint64_t digest = sweep::SpecDigest(g.units);
      for (int s = 0; s < shards; ++s) {
        sweep::ShardArtifact artifact;
        artifact.shard_index = s;
        artifact.shard_count = shards;
        artifact.total_tasks = total;
        artifact.range = sweep::ShardSlice(total, s, shards);
        artifact.spec_digest = digest;
        for (int t = artifact.range.begin; t < artifact.range.end; ++t) {
          artifact.tasks.push_back(
              sweep::ShardTask{t, true, p.results[static_cast<size_t>(t)], Status::OK()});
        }
        p.artifacts.push_back(sweep::EncodeShardArtifact(artifact));
      }
    }
    int64_t t4 = NowNs();
    {
      ScopedSpan span(tracer, "sweep.merge");
      p.merged = sweep::MergeShardArtifacts(g.units, p.artifacts);
    }
    int64_t t5 = NowNs();
    p.aggregate_ns = static_cast<double>(t2 - t1);
    p.export_ns = static_cast<double>(t3 - t2);
    p.encode_ns = static_cast<double>(t4 - t3);
    p.merge_ns = static_cast<double>(t5 - t4);
  }
  p.wall_ns = static_cast<double>(NowNs() - t0);
  p.allocs = HeapAllocs() - allocs0;
  return p;
}

std::vector<uint64_t> ParseHexList(const std::string& text) {
  std::vector<uint64_t> out;
  for (const std::string& item : StrSplit(text, ',')) {
    out.push_back(std::strtoull(item.c_str(), nullptr, 16));
  }
  return out;
}

/// The output check of one merge pass: every task succeeded and satisfies
/// the model invariants; per-trial digests equal the committed reference
/// for this seed (or, for a seed without one, the first pass); the export
/// equals the committed digest (or the first pass); and the shard round
/// trip re-aggregates to the identical export.
class MergeChecker {
 public:
  MergeChecker(const MergeWorkload& w, const Grid& g, const References& refs, uint64_t seed)
      : w_(w), g_(g) {
    auto trials = refs.Find(w.name, seed, "trials");
    if (!trials.empty() && !trials.front().values.empty()) {
      expected_trials_ = ParseHexList(trials.front().values.front());
      reference_seed_ = true;
    }
    auto exports = refs.Find(w.name, seed, "export_fnv1a");
    if (!exports.empty() && !exports.front().values.empty()) {
      expected_export_ = std::strtoull(exports.front().values.front().c_str(), nullptr, 16);
    }
  }

  bool reference_seed() const { return reference_seed_; }

  void Check(const MergePass& p, Report& report) {
    const int total = g_.grid.total_tasks();
    report.Attempt(total);
    if (!p.failed_tasks.empty()) {
      report.Fail(static_cast<int64_t>(p.failed_tasks.size()),
                  w_.name + ": trial failed: " + p.first_error);
      return;
    }
    std::vector<bool> bad(static_cast<size_t>(total), false);
    for (int t = 0; t < total; ++t) {
      Status ok =
          CheckTrialInvariants(g_.grid.TaskConfig(t, {}), p.results[static_cast<size_t>(t)]);
      if (!ok.ok()) {
        bad[static_cast<size_t>(t)] = true;
        report.Error(StrFormat("%s task %d: %s", w_.name.c_str(), t, ok.ToString().c_str()));
      }
    }
    if (expected_trials_.empty()) {
      for (const core::MergeResult& r : p.results) {
        expected_trials_.push_back(TrialDigest(r));
      }
    }
    std::vector<int> mismatched = MismatchedTrials(expected_trials_, p.results);
    for (int t : mismatched) {
      bad[static_cast<size_t>(t)] = true;
    }
    if (!mismatched.empty()) {
      report.Error(StrFormat("%s: %zu trial result(s) differ from the %s, first task %d",
                             w_.name.c_str(), mismatched.size(),
                             reference_seed_ ? "committed reference" : "first pass",
                             mismatched.front()));
    }
    uint64_t export_digest = sweep::Fnv1aDigest(p.export_json);
    if (!expected_export_.has_value()) {
      expected_export_ = export_digest;
    }
    bool pass_ok = export_digest == *expected_export_;
    if (!pass_ok) {
      report.Error(w_.name + ": export digest " + HexDigest(export_digest) + " != expected " +
                   HexDigest(*expected_export_));
    }
    if (!p.merged.ok()) {
      pass_ok = false;
      report.Error(w_.name + ": shard merge failed: " + p.merged.status().ToString());
    } else if (ExportJson(g_, *p.merged) != p.export_json) {
      pass_ok = false;
      report.Error(w_.name + ": shard round trip does not reproduce the export");
    }
    // A whole-output mismatch taints every trial of the pass.
    report.Fail(pass_ok ? std::count(bad.begin(), bad.end(), true) : total, "");
  }

 private:
  const MergeWorkload& w_;
  const Grid& g_;
  std::vector<uint64_t> expected_trials_;
  std::optional<uint64_t> expected_export_;
  bool reference_seed_ = false;
};

struct SetupCost {
  double spec_load_s = 0;
  double grid_build_s = 0;
};

SetupCost MeasureSetup(const MergeWorkload& w, const Options& opt) {
  SetupCost cost;
  cost.spec_load_s = SecondsPerCall([&] {
    auto specs = LoadSpecs(w, opt);
    EMSIM_CHECK(specs.ok());
  });
  auto specs = LoadSpecs(w, opt);
  EMSIM_CHECK(specs.ok());
  cost.grid_build_s = SecondsPerCall([&] { BuildGrid(*specs); });
  return cost;
}

/// What a merge pipeline's traced run keeps: its traced passes and set-up cost.
struct MergeLayers {
  std::vector<MergePass> traced;
  SetupCost setup;
};

double MedianOf(const std::vector<MergePass>& passes, double MergePass::*field) {
  std::vector<double> v;
  for (const MergePass& p : passes) {
    v.push_back(p.*field);
  }
  return Median(v);
}

/// Weighted mean of probe prices; the plain mean when no operation of that
/// kind ran (e.g. RunsOf under the demand-only planner).
class Price {
 public:
  void Add(double ns, double weight) {
    weighted_ += ns * weight;
    weight_ += weight;
    plain_ += ns;
    ++n_;
  }
  double Value() const {
    return weight_ > 0 ? weighted_ / weight_ : (n_ > 0 ? plain_ / n_ : 0.0);
  }

 private:
  double weighted_ = 0, weight_ = 0, plain_ = 0;
  int n_ = 0;
};

/// Reports the merge-side per-layer metrics from the traced passes, the layer
/// probes (priced per sweep unit) and the ledger; writes the ledger file when
/// `write_ledger` is set.
void ReportMergeLayers(const Options& opt, const Grid& g, const MergeLayers& layers,
                       Tracer* tracer, Report& report, bool write_ledger) {
  const MergePass& last = layers.traced.back();
  ProbeCost hop = ProbeHop(tracer);
  std::vector<double> trial_ns;
  for (const MergePass& p : layers.traced) {
    trial_ns.push_back(p.trials_ns);
  }
  const double tasks = static_cast<double>(g.grid.total_tasks());
  Ledger ledger(Median(trial_ns), tasks);
  Price plan, plan_allocs, runs_of, spans, serve, hold, cycle;
  double blocks = 0, plans = 0, full = 0, requests = 0, events = 0, hits = 0;
  for (int u = 0; u < g.grid.num_units(); ++u) {
    const core::SweepUnit& unit = g.units[static_cast<size_t>(u)];
    ShapeProbes probe = ProbeShape(unit.config, tracer);
    if (!probe.plan.allocs_repeat) {
      report.Error(unit.name + ": io.allocs_per_plan differs between probe repetitions");
    }
    const bool inter_run = unit.config.strategy == core::Strategy::kAllDisksOneRun;
    for (int t = g.grid.UnitBegin(u); t < g.grid.UnitBegin(u) + unit.trials; ++t) {
      const core::MergeResult& r = last.results[static_cast<size_t>(t)];
      // Shared-disk writes are among the read array's requests; separate-disk
      // writes are served by a second array.
      const core::WriteTraffic traffic = unit.config.write_traffic;
      const double writes = static_cast<double>(r.write_requests);
      const double requests_here = static_cast<double>(r.disk_totals.requests);
      const double reads =
          requests_here - (traffic == core::WriteTraffic::kSharedDisks ? writes : 0);
      const double served =
          requests_here + (traffic == core::WriteTraffic::kSeparateDisks ? writes : 0);
      const double ops = static_cast<double>(r.io_operations);
      const double runs_of_calls = inter_run ? ops * (unit.config.num_disks - 1) : 0.0;
      ledger.Add("io.plan", "", probe.plan.ns_per_op, ops);
      ledger.Add("disk.layout.runs_of", "io.plan", probe.runs_of.ns_per_op, runs_of_calls);
      ledger.Add("disk.layout.spans", "", probe.spans.ns_per_op, reads);
      // The serve probe's own Delay hops are priced by the sim rows.
      ledger.Add("disk.serve", "",
                 probe.serve.ns_per_op - probe.serve.events_per_op * hop.ns_per_op, served);
      ledger.Add("sim.calendar", "", probe.hold.ns_per_op, static_cast<double>(r.sim_events));
      ledger.Add("cache.block_cycle", "", probe.block_cycle.ns_per_op,
                 static_cast<double>(r.blocks_merged));
      plan.Add(probe.plan.ns_per_op, ops);
      plan_allocs.Add(probe.plan.allocs_per_op, ops);
      runs_of.Add(probe.runs_of.ns_per_op, runs_of_calls);
      spans.Add(probe.spans.ns_per_op, reads);
      serve.Add(probe.serve.ns_per_op, served);
      hold.Add(probe.hold.ns_per_op, static_cast<double>(r.sim_events));
      cycle.Add(probe.block_cycle.ns_per_op, static_cast<double>(r.blocks_merged));
      blocks += static_cast<double>(r.blocks_merged);
      plans += ops;
      full += static_cast<double>(r.full_admissions);
      requests += served;
      events += static_cast<double>(r.sim_events);
      hits += static_cast<double>(r.cache_hits);
    }
  }
  report.Add("io.plan_ns", plan.Value(), "ns", "per PrefetchPlanner::Plan");
  report.Add("io.allocs_per_plan", plan_allocs.Value(), "count");
  report.Add("io.plans_per_block", plans / blocks, "count");
  report.Add("io.full_admission_frac", plans > 0 ? full / plans : 0.0, "frac");
  report.Add("disk.layout.runs_of_ns", runs_of.Value(), "ns");
  report.Add("disk.layout.spans_ns", spans.Value(), "ns");
  report.Add("disk.serve_ns_per_request", serve.Value(), "ns", "incl. its own Delay hops");
  report.Add("disk.requests_per_block", requests / blocks, "count");
  report.Add("sim.hold_ns_per_event", hold.Value(), "ns", "at each shape's pending population");
  report.Add("sim.hop_ns", hop.ns_per_op, "ns");
  report.Add("sim.events_per_block", events / blocks, "count");
  report.Add("cache.block_cycle_ns", cycle.Value(), "ns");
  report.Add("cache.hit_frac", hits / blocks, "frac", "depletions served from the cache");
  report.Add("core.trial_ms", ledger.TrialMs(), "ms", "mean host time per trial");
  report.Add("core.aggregate_ms", MedianOf(layers.traced, &MergePass::aggregate_ns) / 1e6, "ms");
  report.Add("core.unattributed_frac", ledger.UnattributedFrac(), "frac");
  report.Add("export.json_ms", MedianOf(layers.traced, &MergePass::export_ns) / 1e6, "ms");
  report.Add("export.bytes", static_cast<double>(last.export_json.size()), "bytes");
  report.Add("sweep.encode_ms", MedianOf(layers.traced, &MergePass::encode_ns) / 1e6, "ms");
  report.Add("sweep.merge_ms", MedianOf(layers.traced, &MergePass::merge_ns) / 1e6, "ms");
  double artifact_bytes = 0;
  for (const std::string& a : last.artifacts) {
    artifact_bytes += static_cast<double>(a.size());
  }
  report.Add("sweep.artifact_bytes", artifact_bytes, "bytes");
  report.Add("workload.spec_load_ms", layers.setup.spec_load_s * 1e3, "ms");
  report.Add("workload.grid_build_ms", layers.setup.grid_build_s * 1e3, "ms");
  std::printf("\nper-trial host-time ledger (%s, %d trials per pass):\n%s\n",
              g.units.size() == 1 ? g.units.front().name.c_str() : opt.workload.c_str(),
              g.grid.total_tasks(), ledger.ToTable().c_str());
  if (write_ledger) {
    WriteOutput(opt, ".ledger.json", ledger.ToJson(), report);
  }
}

/// Runs a merge pipeline's traced run: warm-up, then passes alternating
/// untraced and traced. Returns the traced passes; `untraced_wall` and
/// `traced_wall` collect pass wall times for the tracing-overhead figure.
MergeLayers TraceMergePipeline(const MergeWorkload& w, const Options& opt, int passes,
                               const References& refs, Tracer* tracer, Report& report,
                               std::vector<double>* untraced_wall,
                               std::vector<double>* traced_wall, Grid* grid_out) {
  MergeLayers layers;
  Result<std::vector<workload::ExperimentSpec>> specs = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "workload.load");
    specs = LoadSpecs(w, opt);
    EMSIM_CHECK(specs.ok());
    *grid_out = BuildGrid(*specs);
  }
  const Grid& g = *grid_out;
  const int shards = ShardCount(opt.seed);
  MergeChecker checker(w, g, refs, opt.seed);
  checker.Check(RunMergePass(g, shards, nullptr), report);  // Warm-up.
  layers.setup = MeasureSetup(w, opt);
  for (int i = 0; i < std::max(passes, 4); ++i) {
    const bool traced = i % 2 == 1;
    MergePass p = RunMergePass(g, shards, traced ? tracer : nullptr);
    checker.Check(p, report);
    (traced ? traced_wall : untraced_wall)->push_back(p.wall_ns);
    if (traced) {
      layers.traced.push_back(std::move(p));
    }
  }
  return layers;
}

int RunMergeWorkload(const MergeWorkload& w, const Options& opt, const References& refs) {
  Report report;
  auto specs = LoadSpecs(w, opt);
  if (!specs.ok()) {
    std::fprintf(stderr, "%s\n", specs.status().ToString().c_str());
    return 2;
  }
  const int passes = PassCount(opt.seconds, w.nominal_pass_s);
  const int shards = ShardCount(opt.seed);

  if (opt.record_references) {
    Grid g = BuildGrid(*specs);
    MergePass p = RunMergePass(g, shards, nullptr);
    if (!p.failed_tasks.empty()) {
      std::fprintf(stderr, "%s\n", p.first_error.c_str());
      return 1;
    }
    std::string seed = w.spec_path.empty() ? std::to_string(opt.seed) : "*";
    std::string digests;
    for (const core::MergeResult& r : p.results) {
      digests += (digests.empty() ? "" : ",") + HexDigest(TrialDigest(r));
    }
    std::printf("%s %s export_fnv1a %s\n", w.name.c_str(), seed.c_str(),
                HexDigest(sweep::Fnv1aDigest(p.export_json)).c_str());
    std::printf("%s %s trials %s\n", w.name.c_str(), seed.c_str(), digests.c_str());
    return 0;
  }

  if (opt.trace) {
    Tracer tracer(1 << 16);
    std::vector<double> untraced_wall, traced_wall;
    Grid g;
    std::printf("%s (traced run), seed %llu, %d passes alternating untraced/traced\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed), std::max(passes, 4));
    MergeLayers layers = TraceMergePipeline(w, opt, passes, refs, &tracer, report,
                                            &untraced_wall, &traced_wall, &g);
    ReportMergeLayers(opt, g, layers, &tracer, report, /*write_ledger=*/true);
    ProbeCost solve = ProbeMarkovSolve(5, 8, Policy::kGreedy, &tracer);
    if (!solve.allocs_repeat) {
      report.Error("analysis.allocs_per_solve differs between probe repetitions");
    }
    report.Add("analysis.markov_solve_ms", solve.ns_per_op / 1e6, "ms",
               "probe: D=5 C=8 greedy (no Markov solve in this workload)");
    report.Add("analysis.allocs_per_solve", solve.allocs_per_op, "count", "probe");
    report.Add("bench.trace_overhead_frac", Median(traced_wall) / Median(untraced_wall) - 1.0,
               "frac", "traced vs untraced pass wall time");
    WriteOutput(opt, ".spans.json", SpansToJson(tracer.spans()), report);
  } else {
    Grid g = BuildGrid(*specs);
    std::printf("%s, seed %llu: %d timed passes of %d trials after one warm-up pass, "
                "%d-shard round trip\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed), passes,
                g.grid.total_tasks(), shards);
    MergeChecker checker(w, g, refs, opt.seed);
    checker.Check(RunMergePass(g, shards, nullptr), report);  // Warm-up: pools, page faults.
    SetupCost setup = MeasureSetup(w, opt);
    TimedPasses timed;
    MergePass last;
    for (int i = 0; i < passes; ++i) {
      MergePass p = RunMergePass(g, shards, nullptr);
      checker.Check(p, report);
      timed.Add(p.wall_ns, p.trial_ms, p.allocs, report);
      last = std::move(p);
    }
    double blocks_per_pass = 0;
    for (const core::MergeResult& r : last.results) {
      blocks_per_pass += static_cast<double>(r.blocks_merged);
    }
    timed.ReportEndToEnd(report, setup.spec_load_s + setup.grid_build_s,
                         "spec load + grid build, median of 7", blocks_per_pass,
                         {"merged block", "blocks_per_s", "trials"});
    Report::Note("reference_seed", checker.reference_seed() ? 1 : 0, "bool",
                 "per-trial results compared with committed digests");
    // Accuracy beside the speed: the paper's printed values.
    double err = 0;
    int compared = 0;
    for (const auto& rec : refs.Find(w.name, opt.seed, "paper_s")) {
      if (rec.values.size() != 2) {
        report.Error("malformed paper_s reference");
        continue;
      }
      auto it = std::find_if(g.units.begin(), g.units.end(),
                             [&](const core::SweepUnit& u) { return u.name == rec.values[0]; });
      if (it == g.units.end() || last.aggregates.empty()) {
        report.Error("paper reference unit not in the grid: " + rec.values[0]);
        continue;
      }
      double paper = std::strtod(rec.values[1].c_str(), nullptr);
      double sim = last.aggregates[static_cast<size_t>(it - g.units.begin())].MeanTotalSeconds();
      err = std::max(err, std::fabs(sim - paper) / paper * 100.0);
      ++compared;
    }
    if (compared > 0) {
      Report::Note("paper_err_pct", err, "%",
                   StrFormat("max over %d units with a printed paper value", compared));
    }
  }
  report.ValidateMetrics();
  std::printf("%s\n", report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// markov_policy: the analysis layer's steady-state solver.

struct Solve {
  int cache_blocks;
  Policy policy;
};

const std::vector<Solve>& MarkovSolves() {
  static const std::vector<Solve> solves = [] {
    std::vector<Solve> s;
    for (int c : {5, 8, 12, 20}) {
      s.push_back({c, Policy::kConservative});
      s.push_back({c, Policy::kGreedy});
    }
    return s;
  }();
  return solves;
}

constexpr int kMarkovDisks = 5;
constexpr double kMarkovNominalPassS = 1.15;  // As MergeWorkload::nominal_pass_s.
const char* PolicyName(Policy p) { return p == Policy::kConservative ? "conservative" : "greedy"; }

std::vector<analysis::MarkovPrefetchModel> MakeModels() {
  std::vector<analysis::MarkovPrefetchModel> models;
  for (int c : {5, 8, 12, 20}) {
    models.emplace_back(kMarkovDisks, c);
  }
  return models;
}

struct MarkovPass {
  double wall_ns = 0;
  uint64_t allocs = 0;
  std::vector<double> solve_ms;
  std::vector<std::string> values;  ///< "<parallelism> <success>" per solve, all digits.
};

MarkovPass RunMarkovPass(Tracer* tracer) {
  MarkovPass p;
  ScopedSpan pass_span(tracer, "pass");
  uint64_t allocs0 = HeapAllocs();
  int64_t t0 = NowNs();
  std::vector<analysis::MarkovPrefetchModel> models = MakeModels();
  std::vector<std::pair<double, double>> out;
  out.reserve(MarkovSolves().size());
  p.solve_ms.reserve(MarkovSolves().size());
  for (size_t i = 0; i < MarkovSolves().size(); ++i) {
    const Solve& s = MarkovSolves()[i];
    analysis::MarkovPrefetchModel& model = models[i / 2];
    ScopedSpan span(tracer, "analysis.solve", static_cast<int64_t>(i));
    int64_t start = NowNs();
    double parallelism = model.AverageParallelism(s.policy);
    double success = model.SuccessRatio(s.policy);
    p.solve_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    out.emplace_back(parallelism, success);
  }
  p.wall_ns = static_cast<double>(NowNs() - t0);
  p.allocs = HeapAllocs() - allocs0;
  for (auto [parallelism, success] : out) {
    p.values.push_back(StrFormat("%.17g %.17g", parallelism, success));
  }
  return p;
}

class MarkovChecker {
 public:
  explicit MarkovChecker(const References& refs) {
    for (const auto& rec : refs.Find("markov_policy", 0, "solve")) {
      if (rec.values.size() == 4) {
        expected_[rec.values[0] + " " + rec.values[1]] = rec.values[2] + " " + rec.values[3];
      }
    }
  }

  void Check(const MarkovPass& p, Report& report) {
    report.Attempt(static_cast<int64_t>(p.values.size()));
    for (size_t i = 0; i < p.values.size(); ++i) {
      const Solve& s = MarkovSolves()[i];
      std::string key = StrFormat("%d %s", s.cache_blocks, PolicyName(s.policy));
      auto it = expected_.find(key);
      if (it == expected_.end()) {
        it = expected_.emplace(key, p.values[i]).first;  // No reference: first pass.
      }
      if (it->second != p.values[i]) {
        report.Fail(1, "markov_policy C=" + key + ": got " + p.values[i] + ", expected " +
                           it->second);
      }
    }
  }

 private:
  std::map<std::string, std::string> expected_;
};

int RunMarkovWorkload(const Options& opt, const References& refs) {
  Report report;
  const int passes = PassCount(opt.seconds, kMarkovNominalPassS);
  const double solves = static_cast<double>(MarkovSolves().size());
  MarkovChecker checker(refs);

  if (opt.record_references) {
    MarkovPass p = RunMarkovPass(nullptr);
    for (size_t i = 0; i < p.values.size(); ++i) {
      std::printf("markov_policy * solve %d %s %s\n", MarkovSolves()[i].cache_blocks,
                  PolicyName(MarkovSolves()[i].policy), p.values[i].c_str());
    }
    return 0;
  }

  if (opt.trace) {
    Tracer tracer(1 << 16);
    std::printf("markov_policy (traced run): %d passes alternating untraced/traced\n",
                std::max(passes, 4));
    checker.Check(RunMarkovPass(nullptr), report);
    std::vector<double> untraced_wall, traced_wall, solve_ms;
    std::optional<uint64_t> allocs;
    for (int i = 0; i < std::max(passes, 4); ++i) {
      const bool traced = i % 2 == 1;
      MarkovPass p = RunMarkovPass(traced ? &tracer : nullptr);
      checker.Check(p, report);
      (traced ? traced_wall : untraced_wall).push_back(p.wall_ns);
      if (traced) {
        solve_ms.insert(solve_ms.end(), p.solve_ms.begin(), p.solve_ms.end());
      } else {
        if (allocs.has_value() && *allocs != p.allocs) {
          report.Error("analysis.allocs_per_solve differs between passes");
        }
        allocs = p.allocs;
      }
    }
    // The merge-side layers are priced on the paper's default shape so every
    // per-layer metric has a value; they do not move with this workload.
    std::printf("merge-side layers: reference pipeline at the paper's default shape\n");
    MergeWorkload ref = ReferencePipeline();
    std::vector<double> ref_untraced, ref_traced;
    Grid g;
    MergeLayers layers =
        TraceMergePipeline(ref, opt, 4, refs, &tracer, report, &ref_untraced, &ref_traced, &g);
    ReportMergeLayers(opt, g, layers, &tracer, report, /*write_ledger=*/false);
    double total_ms = 0;
    for (double ms : solve_ms) {
      total_ms += ms;
    }
    report.Add("analysis.markov_solve_ms", total_ms / static_cast<double>(solve_ms.size()), "ms",
               "mean per (C, policy) solve");
    report.Add("analysis.allocs_per_solve", static_cast<double>(allocs.value_or(0)) / solves,
               "count");
    report.Add("bench.trace_overhead_frac", Median(traced_wall) / Median(untraced_wall) - 1.0,
               "frac", "traced vs untraced pass wall time");
    WriteOutput(opt, ".spans.json", SpansToJson(tracer.spans()), report);
  } else {
    std::printf("markov_policy: D=%d, C in {5, 8, 12, 20}, both policies; %d timed passes "
                "after one warm-up pass\n",
                kMarkovDisks, passes);
    checker.Check(RunMarkovPass(nullptr), report);  // Warm-up.
    double setup_s = SecondsPerCall([] { MakeModels(); });
    TimedPasses timed;
    for (int i = 0; i < passes; ++i) {
      MarkovPass p = RunMarkovPass(nullptr);
      checker.Check(p, report);
      timed.Add(p.wall_ns, p.solve_ms, p.allocs, report);
    }
    timed.ReportEndToEnd(report, setup_s, "model construction, median of 7", solves,
                         {"(C, policy) solve", "solves_per_s", "solves"});
  }
  report.ValidateMetrics();
  std::printf("%s\n", report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--record-references") {
      opt->record_references = true;
    } else if (!value(&v)) {
      return false;
    } else if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = v == "1";
    } else if (arg == "--root") {
      opt->root = v;
    } else if (arg == "--refs") {
      opt->refs = v;
    } else if (arg == "--out") {
      opt->out_dir = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

}  // namespace
}  // namespace emsim::perfbench

int main(int argc, char** argv) {
  using namespace emsim::perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_grid|wide_array|demand_writes|"
                 "markov_policy> [--seed N] [--seconds S] [--trace 0|1] [--root DIR] "
                 "[--refs FILE] [--out DIR] [--record-references]\n");
    return 2;
  }
  References refs;
  if (!opt.refs.empty()) {
    auto loaded = References::Load(opt.refs);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    refs = *std::move(loaded);
  }
  if (opt.workload == "markov_policy") {
    return RunMarkovWorkload(opt, refs);
  }
  std::optional<MergeWorkload> w = FindMergeWorkload(opt.workload, opt.seed);
  if (!w.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  return RunMergeWorkload(*w, opt, refs);
}
