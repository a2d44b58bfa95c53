#include "trace.h"

#include <algorithm>
#include <utility>

#include "measure.h"
#include "stats/json_writer.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::perfbench {

int Tracer::Begin(const char* name, int64_t id) {
  int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, id, open_.empty() ? -1 : open_.back(), NowNs(), 0});
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  EMSIM_CHECK(!open_.empty() && open_.back() == index);
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  stats::JsonWriter w;
  w.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("id", s.id);
    w.Field("parent", s.parent);
    w.Field("start_ns", s.start_ns - epoch);
    w.Field("duration_ns", s.duration_ns());
    w.Field("self_ns", self[i]);
    w.EndObject();
  }
  w.EndArray();
  return w.Take();
}

void Ledger::Add(const std::string& name, const std::string& parent, double ns_per_op,
                 double count) {
  auto it = std::find_if(rows_.begin(), rows_.end(),
                         [&name](const Row& row) { return row.name == name; });
  if (it == rows_.end()) {
    rows_.push_back(Row{name, parent, 0.0, 0.0});
    it = rows_.end() - 1;
  }
  EMSIM_CHECK(it->parent == parent);
  it->total_ns += ns_per_op * count;
  it->count += count;
}

double Ledger::AttributedMs() const {
  double ms = 0.0;
  for (const Row& row : rows_) {
    if (row.parent.empty()) {
      ms += RowMs(row);
    }
  }
  return ms;
}

double Ledger::UnattributedFrac() const {
  return TrialMs() > 0 ? UnattributedMs() / TrialMs() : 0.0;
}

std::string Ledger::ToJson() const {
  stats::JsonWriter w;
  w.BeginObject();
  w.Field("trial_ms", TrialMs());
  w.Key("rows");
  w.BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject();
    w.Field("name", row.name);
    w.Field("parent", row.parent);
    w.Field("ns_per_op", row.NsPerOp());
    w.Field("ops_per_trial", row.count / trials_);
    w.Field("ms_per_trial", RowMs(row));
    w.EndObject();
  }
  w.EndArray();
  w.Field("attributed_ms", AttributedMs());
  w.Field("unattributed_ms", UnattributedMs());
  w.Field("unattributed_frac", UnattributedFrac());
  w.EndObject();
  return w.Take();
}

std::string Ledger::ToTable() const {
  std::string out = StrFormat("  %-24s %12s %14s %12s %7s\n", "layer", "ns/op", "ops/trial",
                              "ms/trial", "share");
  auto line = [&](const std::string& name, double ns, double ops, double ms) {
    out += StrFormat("  %-24s %12.1f %14.1f %12.3f %6.1f%%\n", name.c_str(), ns, ops, ms,
                     TrialMs() > 0 ? 100.0 * ms / TrialMs() : 0.0);
  };
  for (const Row& row : rows_) {
    line(row.parent.empty() ? row.name : "  of which " + row.name, row.NsPerOp(),
         row.count / trials_, RowMs(row));
  }
  line("unattributed", 0.0, 0.0, UnattributedMs());
  out += StrFormat("  %-24s %12s %14s %12.3f\n", "core.trial (measured)", "", "", TrialMs());
  return out;
}

}  // namespace emsim::perfbench
