#include "tracer.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/time.hpp"
#include "omp/omp.hpp"

namespace perfbench {

namespace gs = glto::sched;

gs::MetricsSnapshot counter_snapshot() {
  gs::MetricsSnapshot s = gs::metrics_snapshot();
  if (glto::omp::selected()) {
    const glto::omp::Counters c = glto::omp::runtime().counters();
    s.add("omp.tasks_queued", c.tasks_queued);
    s.add("omp.tasks_immediate", c.tasks_immediate);
  }
  return s;
}

std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const gs::MetricsSnapshot& cur, const gs::MetricsSnapshot& base) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& e : cur.entries) {
    if (!e.counter) continue;
    const std::uint64_t prev = base.value(e.name);
    if (e.value > prev) out.emplace_back(e.name, e.value - prev);
  }
  return out;
}

std::uint32_t Tracer::open(const char* name, const char* layer) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : spans_[stack_.back().index].id;
  s.name = name;
  s.layer = layer;
  // Snapshot first, stamp second: the snapshot's own cost lands in the
  // parent, not in this span.
  Open o{spans_.size(), counter_snapshot()};
  s.start_ns = glto::common::now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(std::move(o));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t end = glto::common::now_ns();
  if (stack_.empty() || spans_[stack_.back().index].id != id) {
    std::fprintf(stderr, "perfbench: span %u closed out of order\n", id);
    std::abort();
  }
  Span& s = spans_[stack_.back().index];
  s.end_ns = end;
  s.counters = counter_delta(counter_snapshot(), stack_.back().base);
  stack_.pop_back();
}

std::uint64_t Tracer::sum(const std::string& span_name,
                          const std::string& counter) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name != span_name || s.end_ns == 0) continue;
    for (const auto& [k, v] : s.counters) {
      if (k == counter) total += v;
    }
  }
  return total;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"layer\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"counters\": {",
                 i == 0 ? "" : ",", s.id, s.parent, s.name.c_str(),
                 s.layer.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (std::size_t k = 0; k < s.counters.size(); ++k) {
      std::fprintf(f, "%s\"%s\": %llu", k == 0 ? "" : ", ",
                   s.counters[k].first.c_str(),
                   static_cast<unsigned long long>(s.counters[k].second));
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
