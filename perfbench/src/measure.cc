#include "measure.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace emsim::perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  tail.percentile = 50.0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Compare in integer thousandths so 0.1% of 10000 counts as exactly 10.
    if (std::llround(n * (100.0 - p) * 10.0) >= 10 * 1000) {
      tail.percentile = p;
    }
  }
  if (tail.percentile == 50.0) {
    tail.value = Median(samples);  // Agrees with trial_ms_p50 when no tail qualifies.
    return tail;
  }
  auto rank = static_cast<size_t>(std::ceil(tail.percentile / 100.0 * n - 1e-9));
  tail.value = samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
  return tail;
}

namespace {
bool AllOf(std::string_view s, bool (*ok)(char)) {
  return std::all_of(s.begin(), s.end(), ok);
}
bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0; }
}  // namespace

bool ValidMetricName(std::string_view name) {
  return !name.empty() && name.size() <= 64 && IsAlnum(name.front()) &&
         AllOf(name, [](char c) { return IsAlnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool ValidUnit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

}  // namespace emsim::perfbench
