// Shared types of the benchmark binary: run options, sample sets and the
// ordered metric list every workload fills.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Fixed by the benchmark definition: the default backend at 4 GLT threads.
inline constexpr int kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< trace JSON path (traced run only)
};

/// Timing samples of one quantity; order statistics on demand.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double percentile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    // Nearest-rank: the smallest sample with at least p% at or below it.
    const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return s[std::min(i, s.size() - 1)];
  }
  [[nodiscard]] double median() const { return percentile(50.0); }
  /// Interquartile mean: the mean of the middle half of the samples.
  /// Unlike the median it does not snap to one sample, so it stays
  /// continuous over coarsely quantized samples.
  [[nodiscard]] double interquartile_mean() const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const std::size_t lo = s.size() / 4, hi = s.size() - s.size() / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += s[i];
    return sum / static_cast<double>(hi - lo);
  }
  /// The highest of p99/p95/p90/p75 with at least ten samples beyond it
  /// (p50 when there are fewer than 40 samples).
  [[nodiscard]] double tail_pct() const {
    for (double p : {99.0, 95.0, 90.0, 75.0}) {
      if (static_cast<double>(v_.size()) * (100.0 - p) / 100.0 >= 10.0) {
        return p;
      }
    }
    return 50.0;
  }

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(): output-check tallies, the
/// end-to-end metrics (untraced run) or per-layer metrics (traced run),
/// and human-readable lines printed before the result.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

[[nodiscard]] inline double safe_div(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

}  // namespace perfbench
