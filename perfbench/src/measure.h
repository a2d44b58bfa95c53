#ifndef EMSIM_PERFBENCH_MEASURE_H_
#define EMSIM_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace emsim::perfbench {

/// Host time in nanoseconds on the monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median; the mean of the two middle samples for an even count. 0 when empty.
double Median(std::vector<double> samples);

/// A tail timing: the highest percentile of the fixed ladder
/// {50, 75, 90, 95, 99, 99.9} that leaves at least ten samples beyond it
/// (n * (1 - p/100) >= 10), read by nearest rank; p50 is the Median above.
/// Fewer than 20 samples leave no qualifying percentile; the median is
/// reported with p = 50.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

/// Result-object charsets: a metric name starts with a letter or digit and
/// has at most 64 of [A-Za-z0-9_.-]; a unit has 1..16 of [A-Za-z0-9_/%.-].
bool ValidMetricName(std::string_view name);
bool ValidUnit(std::string_view unit);

}  // namespace emsim::perfbench

#endif  // EMSIM_PERFBENCH_MEASURE_H_
