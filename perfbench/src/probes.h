#ifndef EMSIM_PERFBENCH_PROBES_H_
#define EMSIM_PERFBENCH_PROBES_H_

#include "analysis/markov.h"
#include "core/config.h"
#include "trace.h"

namespace emsim::perfbench {

/// Host cost of one layer operation, priced by a small probe that calls the
/// layer directly at a workload's shape. ns_per_op is the median over
/// repetitions; allocs_per_op and events_per_op come from one whole
/// repetition, and allocs_repeat says whether every repetition made the
/// same number of allocations per operation.
struct ProbeCost {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
  double events_per_op = 0.0;
  bool allocs_repeat = true;
};

/// Probe costs at one merge configuration's shape (k, D, run length, N,
/// strategy, cache size, disk parameters).
struct ShapeProbes {
  ProbeCost plan;         ///< io: PrefetchPlanner::Plan for the config's strategy.
  ProbeCost runs_of;      ///< disk.layout: RunLayout::RunsOf.
  ProbeCost spans;        ///< disk.layout: RunLayout::Spans of one N-block read.
  ProbeCost serve;        ///< disk: Submit + serve of one N-block request, incl. its hops.
  ProbeCost hold;         ///< sim: calendar hold at the trial's pending-event population.
  ProbeCost block_cycle;  ///< cache: TryReserve + Deposit + ConsumeLeading of one block.
  int population = 1;     ///< Time-averaged calendar depth of one instrumented trial.
};

/// Runs every probe at `config`'s shape, each inside a probe.<layer> span.
ShapeProbes ProbeShape(const core::MergeConfig& config, Tracer* tracer);

/// sim: one lone process's Delay hop (the inline resume path).
ProbeCost ProbeHop(Tracer* tracer);

/// analysis: one cold MarkovPrefetchModel solve; ns_per_op is per solve.
ProbeCost ProbeMarkovSolve(int disks, int cache_blocks,
                           analysis::MarkovPrefetchModel::Policy policy, Tracer* tracer);

}  // namespace emsim::perfbench

#endif  // EMSIM_PERFBENCH_PROBES_H_
