// Table III — percentage of *queued* (deferred) tasks in the Intel-like
// runtime for the CG workload, per granularity × thread count.
//
// A task is queued when the producer's bounded deque accepts it; when the
// deque is full (cut-off, capacity 256) the task executes immediately.
// Paper: fine granularities at mid thread counts leave the queue partially
// drained (80–97% queued); coarse granularity and high thread counts stay
// at 100%.
// A second section runs the same CG cells over GLTO(ABT), GLTO(QTH), and
// GLTO(MTH) and reports the scheduler-behaviour counters (steals / failed
// steals / stack-cache hits) — every backend dispatches through the shared
// work-stealing core since the parity PR, so one run compares *how* each
// runtime moved the tasks, not just how many were deferred.
#include <cstdio>

#include "apps/cg.hpp"
#include "bench_common.hpp"
#include "sched/metrics.hpp"

namespace g = glto::apps::cg;
namespace o = glto::omp;
namespace b = glto::bench;

int main() {
  const int n = static_cast<int>(glto::common::env_i64(
      "GLTO_CG_ROWS", static_cast<std::int64_t>(g::kPaperRows)));
  const int iters = static_cast<int>(2 * b::scale());
  const auto a = g::make_spd_pentadiagonal(n);
  const std::vector<double> rhs(static_cast<std::size_t>(n), 1.0);
  std::printf("Table III: %% queued tasks in the Intel runtime "
              "(CG, n=%d, cut-off 256)\n",
              n);
  std::printf("%8s | %8s %8s %8s %8s   (granularity: rows/task)\n",
              "threads", "10", "20", "50", "100");
  for (int nth : b::thread_sweep()) {
    std::printf("%8d |", nth);
    for (int gran : {10, 20, 50, 100}) {
      b::select_runtime(o::RuntimeKind::intel, nth, /*active_wait=*/false);
      auto& rt = o::runtime();
      rt.reset_counters();
      std::vector<double> x;
      (void)g::solve_tasks(a, rhs, x, iters, 0.0, gran);
      const auto c = rt.counters();
      const auto total = c.tasks_queued + c.tasks_immediate;
      const double pct =
          total == 0 ? 100.0
                     : 100.0 * static_cast<double>(c.tasks_queued) /
                           static_cast<double>(total);
      std::printf(" %7.1f%%", pct);
      o::shutdown();
    }
    std::printf("\n");
  }
  std::printf("\npaper shape: dips below 100%% at fine granularities / few "
              "threads (cut-off triggered); 100%% elsewhere\n");

  for (auto kind : {o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                    o::RuntimeKind::glto_mth}) {
    std::printf("\n%s scheduler behaviour on the same cells "
                "(steals / failed steals / stack-cache hits)\n",
                o::kind_name(kind));
    std::printf("%8s | %-22s %-22s %-22s %-22s\n", "threads", "gran=10",
                "gran=20", "gran=50", "gran=100");
    for (int nth : b::thread_sweep()) {
      std::printf("%8d |", nth);
      for (int gran : {10, 20, 50, 100}) {
        b::select_runtime(kind, nth, /*active_wait=*/false);
        auto& rt = o::runtime();
        rt.reset_counters();
        glto::sched::MetricsSnapshot base = glto::sched::metrics_snapshot();
        std::vector<double> x;
        (void)g::solve_tasks(a, rhs, x, iters, 0.0, gran);
        const auto d = glto::sched::metrics_delta_since(base);
        std::printf(
            " %7llu/%-7llu%6llu",
            static_cast<unsigned long long>(d.value("sched.steals")),
            static_cast<unsigned long long>(d.value("sched.failed_steals")),
            static_cast<unsigned long long>(d.value("sched.stack_cache_hits")));
        o::shutdown();
      }
      std::printf("\n");
    }
  }
  return 0;
}
