#include "check.h"

#include <fstream>
#include <sstream>

#include "sweep/shard.h"
#include "util/str.h"

namespace emsim::perfbench {

uint64_t TrialDigest(const core::MergeResult& result) {
  sweep::ShardArtifact artifact;
  artifact.shard_count = 1;
  artifact.total_tasks = 1;
  artifact.range = sweep::ShardRange{0, 1};
  artifact.tasks.push_back(sweep::ShardTask{0, true, result, Status::OK()});
  return sweep::Fnv1aDigest(sweep::EncodeShardArtifact(artifact));
}

Status CheckTrialInvariants(const core::MergeConfig& config, const core::MergeResult& r) {
  auto fail = [&config](const char* what) {
    return Status::Internal(StrFormat("invariant violated: %s (config: %s)", what,
                                      config.ToString().c_str()));
  };
  const auto blocks = static_cast<uint64_t>(config.TotalBlocks());
  if (static_cast<uint64_t>(r.blocks_merged) != blocks) {
    return fail("blocks_merged != total blocks");
  }
  if (r.cache_stats.deposits != blocks || r.cache_stats.consumptions != blocks) {
    return fail("cache deposits/consumptions != total blocks");
  }
  if (r.full_admissions > r.io_operations) {
    return fail("full_admissions > io_operations");
  }
  if (!(r.total_ms > 0.0) || r.sim_events == 0) {
    return fail("no simulated time or events");
  }
  if (config.write_traffic != core::WriteTraffic::kNone && r.write_blocks != blocks) {
    return fail("write_blocks != total blocks");
  }
  if (!config.fault.InjectionEnabled()) {
    uint64_t expected_reads =
        blocks + (config.write_traffic == core::WriteTraffic::kSharedDisks ? r.write_blocks : 0);
    if (r.disk_totals.blocks_transferred != expected_reads) {
      return fail("disk blocks transferred != blocks read (+ shared writes)");
    }
  }
  return Status::OK();
}

std::vector<int> MismatchedTrials(const std::vector<uint64_t>& expected,
                                  const std::vector<core::MergeResult>& results) {
  std::vector<int> bad;
  for (size_t i = 0; i < results.size(); ++i) {
    if (expected.size() != results.size() || TrialDigest(results[i]) != expected[i]) {
      bad.push_back(static_cast<int>(i));
    }
  }
  return bad;
}

Result<References> References::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot read references file " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  return Parse(text.str(), path);
}

Result<References> References::Parse(const std::string& text, const std::string& source) {
  References refs;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    line = line.substr(0, line.find('#'));
    std::istringstream fields(line);
    Record record;
    if (!(fields >> record.workload)) {
      continue;  // Blank or comment-only line.
    }
    if (!(fields >> record.seed >> record.key)) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: expected <workload> <seed|*> <key> <values...>", source.c_str(),
                    lineno));
    }
    for (std::string value; fields >> value;) {
      record.values.push_back(value);
    }
    refs.records_.push_back(std::move(record));
  }
  return refs;
}

std::vector<References::Record> References::Find(const std::string& workload, uint64_t seed,
                                                  const std::string& key) const {
  std::vector<Record> own;
  std::vector<Record> any;
  const std::string seed_text = std::to_string(seed);
  for (const Record& r : records_) {
    if (r.workload == workload && r.key == key) {
      if (r.seed == seed_text) {
        own.push_back(r);
      } else if (r.seed == "*") {
        any.push_back(r);
      }
    }
  }
  return own.empty() ? any : own;
}

std::string HexDigest(uint64_t digest) {
  return StrFormat("%016llx", static_cast<unsigned long long>(digest));
}

}  // namespace emsim::perfbench
