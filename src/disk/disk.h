#ifndef EMSIM_DISK_DISK_H_
#define EMSIM_DISK_DISK_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "disk/disk_params.h"
#include "disk/mechanism.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/calendar.h"
#include "sim/event.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "stats/time_weighted.h"
#include "util/rng.h"

namespace emsim::disk {

/// Why a request was issued; used for statistics and tracing.
enum class RequestKind {
  kDemand,    ///< The merge is stalled waiting for this block.
  kPrefetch,  ///< Speculative read issued by a prefetching policy.
  kWrite,     ///< Merged output written behind the merge (extension).
};

/// Where a request stands in the disk's pipeline; written by the disk,
/// polled by issuers that retry on timeout (io::FetchRetryDriver).
enum class RequestPhase {
  kQueued,   ///< Submitted; not yet picked by the server.
  kServing,  ///< Non-preemptively in service.
  kDone,     ///< All blocks delivered, on_complete fired.
  kFailed,   ///< Injected media error; on_error fired, no blocks delivered.
};

/// Shared progress cell for one request attempt. The issuer keeps a
/// reference so its timeout watchdog can see how far the attempt got; it
/// sets `abandoned` to disown an attempt that is still queued (the disk
/// drops it unserved — there is no preemption of an attempt in service).
struct RequestProgress {
  RequestPhase phase = RequestPhase::kQueued;
  bool abandoned = false;
};

/// One read request for `nblocks` contiguous disk-local blocks. The disk
/// delivers blocks one at a time: `on_block(i)` fires when the i-th block's
/// transfer completes (this is how unsynchronized prefetching lets the CPU
/// resume after the first block), and `on_complete` fires after the last.
/// Callbacks run in the disk server's process context; they must not block.
///
/// Fault-aware issuers may attach `progress` (attempt tracking) and
/// `on_error` (invoked instead of on_block/on_complete when an injected
/// media error fails the request). Requests without an `on_error` handler
/// are never failed by the injector — their issuer could not observe it —
/// though timing faults (fail-slow, spikes, fail-stop) still apply.
struct DiskRequest {
  int64_t start_block = 0;
  int nblocks = 1;
  RequestKind kind = RequestKind::kDemand;
  std::function<void(int)> on_block;
  std::function<void()> on_complete;
  std::function<void()> on_error;
  std::shared_ptr<RequestProgress> progress;

  // Filled in by Disk::Submit.
  uint64_t id = 0;
  sim::SimTime enqueue_time = 0;
};

/// Cumulative per-disk statistics.
struct DiskStats {
  uint64_t requests = 0;
  uint64_t demand_requests = 0;
  uint64_t blocks_transferred = 0;
  uint64_t seeks = 0;             ///< Requests with nonzero arm travel.
  int64_t seek_cylinders = 0;     ///< Total arm travel.
  double seek_ms = 0;
  double rotation_ms = 0;
  double transfer_ms = 0;
  double queue_wait_ms = 0;       ///< Sum over requests of (service start - enqueue).
  size_t max_queue_length = 0;

  // Fault-path counters; all stay zero when no FaultPlan is attached.
  uint64_t media_errors = 0;      ///< Requests failed by injected media errors.
  uint64_t latency_spikes = 0;    ///< Requests that paid a latency spike.
  uint64_t dropped_requests = 0;  ///< Abandoned attempts dropped unserved.
  double fail_stop_ms = 0;        ///< Time parked by a finite fail-stop window.
  double fault_extra_ms = 0;      ///< Extra service time from fail-slow/spikes.

  double BusyMs() const { return seek_ms + rotation_ms + transfer_ms; }
};

/// End-of-run utilization snapshot of one disk: the time-weighted view the
/// cumulative DiskStats cannot express (busy fraction of elapsed time, mean
/// queue length) plus the cumulative counters. This is what the JSON
/// exporters emit per disk.
struct DiskUtilization {
  int id = 0;
  double busy_fraction = 0.0;      ///< Fraction of elapsed time in service.
  double mean_queue_length = 0.0;  ///< Time-averaged waiting requests.
  DiskStats stats;
};

/// A single disk unit: a FIFO (or SSTF) queue served by one simulation
/// process that prices each request with the Mechanism and delivers blocks
/// at transfer-time granularity. Matches the paper's model where every
/// block request is queued at the disk and serviced independently,
/// non-preemptively.
class Disk {
 public:
  /// `seed` derives the disk's private rotational-latency RNG stream.
  Disk(sim::Simulation* sim, const DiskParams& params, int id, uint64_t seed);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Spawns the server process. Call once before the simulation runs.
  void Start();

  /// Stops the server once the queue drains (used for clean teardown).
  void Stop();

  /// Enqueues a request. May be called from any process at any time.
  void Submit(DiskRequest request);

  int id() const { return id_; }
  bool busy() const { return busy_; }
  size_t QueueLength() const { return queue_.size(); }
  const DiskStats& stats() const { return stats_; }
  const Mechanism& mechanism() const { return mechanism_; }

  /// Fraction of elapsed simulated time this disk spent servicing requests
  /// (integrates to the last update; call FlushLocalStats first for an
  /// end-of-run figure).
  double BusyFraction() const { return busy_timeline_.Average(); }

  /// Time-averaged number of requests waiting in this disk's queue.
  double MeanQueueLength() const { return queue_timeline_.Average(); }

  /// Closes the busy/queue timelines at the current simulated time.
  void FlushLocalStats();

  /// Utilization snapshot (flush first for end-of-run accuracy).
  DiskUtilization Utilization() const;

  /// Registers this disk's timelines ("disk<i>.busy", "disk<i>.queue_len")
  /// and request counters with `metrics`. Call before the simulation runs.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  /// Attaches a fault plan consulted on every request (nullptr — the
  /// default — keeps the fault-free hot path untouched). The plan must
  /// outlive the disk. Call before the simulation runs.
  void SetFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }

  /// Observer invoked on busy-state transitions; wired by DiskArray to
  /// maintain the cross-disk concurrency statistic.
  std::function<void(int disk_id, bool busy)> on_busy_changed;

  std::string ToString() const;

 private:
  sim::Process Serve();

  /// Removes and returns the next request per the scheduling policy.
  DiskRequest PopNext();

  // Inline: both run on every request transition (twice per request for the
  // busy flag), bracketing every block of simulated I/O.
  void SetBusy(bool busy) {
    if (busy_ == busy) {
      return;
    }
    busy_ = busy;
    busy_timeline_.Update(sim_->Now(), busy ? 1.0 : 0.0);
    if (metric_busy_ != nullptr) {
      metric_busy_->Update(sim_->Now(), busy ? 1.0 : 0.0);
    }
    if (on_busy_changed) {
      on_busy_changed(id_, busy);
    }
  }

  void NoteQueueLength() {
    queue_timeline_.Update(sim_->Now(), static_cast<double>(queue_.size()));
    if (metric_queue_ != nullptr) {
      metric_queue_->Update(sim_->Now(), static_cast<double>(queue_.size()));
    }
  }

  sim::Simulation* sim_;
  int id_;
  Mechanism mechanism_;
  fault::FaultPlan* faults_ = nullptr;
  Rng rng_;
  std::deque<DiskRequest> queue_;
  sim::Signal work_;
  DiskStats stats_;
  uint64_t next_request_id_ = 0;
  bool busy_ = false;
  bool started_ = false;
  bool stopping_ = false;

  // Always-on utilization timelines (a few arithmetic ops per transition).
  stats::TimeWeighted busy_timeline_;
  stats::TimeWeighted queue_timeline_;

  // Optional registry mirrors (null unless AttachMetrics was called).
  obs::Timeline* metric_busy_ = nullptr;
  obs::Timeline* metric_queue_ = nullptr;
  obs::Counter* metric_requests_ = nullptr;
  obs::Counter* metric_blocks_ = nullptr;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_DISK_H_
