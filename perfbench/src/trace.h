#ifndef EMSIM_PERFBENCH_TRACE_H_
#define EMSIM_PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace emsim::perfbench {

/// One timed interval recorded around a call into a layer. `parent` is the
/// index of the enclosing open span (-1 at the root); `id` distinguishes
/// repeated spans of one name (the global task index for core.trial).
struct Span {
  const char* name = "";
  int64_t id = -1;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder. Spans are appended to a pre-reserved vector and
/// written out only when the run ends, so recording neither allocates nor
/// does I/O inside the measured section (names are string literals).
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(const char* name, int64_t id = -1);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that records only when a tracer is attached, so the untraced
/// metric run pays one null test per boundary.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t id = -1)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// The span file: one JSON object per span with its self time.
std::string SpansToJson(const std::vector<Span>& spans);

/// Per-trial host-time ledger of a merge workload. Each row prices one layer
/// as (probe cost per operation) x (operations the trials performed). Rows
/// with a parent are shares of that row and are not added again; the
/// top-level rows plus the unattributed remainder make up the trial time.
class Ledger {
 public:
  struct Row {
    std::string name;
    std::string parent;  ///< Empty for a top-level row.
    double total_ns = 0.0;
    double count = 0.0;
    double NsPerOp() const { return count > 0 ? total_ns / count : 0.0; }
  };

  /// `trial_ns` is the measured host time of the trials the counts cover;
  /// `trials` how many there were.
  Ledger(double trial_ns, double trials) : trial_ns_(trial_ns), trials_(trials) {}

  /// Adds `count` operations at `ns_per_op` to row `name` (created on first
  /// use; later calls accumulate, e.g. one call per sweep unit).
  void Add(const std::string& name, const std::string& parent, double ns_per_op, double count);

  const std::vector<Row>& rows() const { return rows_; }
  double TrialMs() const { return trial_ns_ / trials_ / 1e6; }
  double RowMs(const Row& row) const { return row.total_ns / trials_ / 1e6; }
  double AttributedMs() const;
  double UnattributedMs() const { return TrialMs() - AttributedMs(); }
  double UnattributedFrac() const;

  std::string ToJson() const;
  std::string ToTable() const;

 private:
  double trial_ns_;
  double trials_;
  std::vector<Row> rows_;
};

}  // namespace emsim::perfbench

#endif  // EMSIM_PERFBENCH_TRACE_H_
