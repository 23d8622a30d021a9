// In-memory span recorder for the traced run.
//
// Spans are opened and closed by the benchmark's own code, around each
// call it makes into a layer's public functions; nothing inside the
// library is instrumented. At both ends of a span the recorder takes a
// counter snapshot (the metrics registry plus the active omp runtime's
// task counters), so each span carries the counter deltas accrued while
// it was open. Spans live in memory until write_json() at exit.
//
// Single-threaded by design: only the benchmark's main thread opens
// spans (the workers run library code, which is what is being measured).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/metrics.hpp"

namespace perfbench {

/// Registry snapshot plus omp::runtime().counters() when a runtime is
/// selected (entries "omp.tasks_queued" / "omp.tasks_immediate").
[[nodiscard]] glto::sched::MetricsSnapshot counter_snapshot();

/// Counter delta cur - base (counters only; gauges are skipped).
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const glto::sched::MetricsSnapshot& cur,
    const glto::sched::MetricsSnapshot& base);

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< deltas
};

class Tracer {
 public:
  /// Spans are recorded only while enabled; open() returns 0 otherwise.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a child of the innermost open span.
  std::uint32_t open(const char* name, const char* layer);
  /// Closes span @p id (must be the innermost open one; 0 is a no-op).
  void close(std::uint32_t id);

  /// Sum of counter @p name over closed spans called @p span_name.
  [[nodiscard]] std::uint64_t sum(const std::string& span_name,
                                  const std::string& counter) const;

  /// Writes {"workload", "seed", "spans": [...]} to @p path.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  struct Open {
    std::size_t index;
    glto::sched::MetricsSnapshot base;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, const char* layer)
      : t_(t), id_(t.open(name, layer)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace perfbench
