// Quickstart — the 90-second tour of the OpenMP facade and runtime
// selection.
//
//   $ ./quickstart                 # defaults to the GLTO/Argobots runtime
//   $ OMP_RUNTIME=intel ./quickstart
//   $ OMP_RUNTIME=glto-mth OMP_NUM_THREADS=8 ./quickstart
//
// The same code runs over all five runtime configurations — that is the
// point of the paper: OpenMP semantics on top, swappable threading
// underneath.
#include <atomic>
#include <cstdio>
#include <vector>

#include "omp/omp.hpp"
#include "sched/metrics.hpp"

namespace o = glto::omp;

int main() {
  // Pick a runtime from $OMP_RUNTIME (default glto-abt) and $OMP_NESTED.
  o::select_from_env();
  std::printf("runtime: %s, max threads: %d\n",
              o::kind_name(o::current_kind()), o::max_threads());

  // 1. A parallel region: the lambda body runs once per team member.
  o::parallel([](int tid, int nth) {
    std::printf("  hello from thread %d of %d\n", tid, nth);
  });

  // 2. A work-shared loop with a reduction.
  const double pi_ish = o::reduce_sum(0, 1'000'000, [](std::int64_t i) {
    const double x = (double(i) + 0.5) / 1'000'000.0;
    return 4.0 / (1.0 + x * x) / 1'000'000.0;
  });
  std::printf("pi = %.6f (integrated with a parallel reduction)\n", pi_ish);

  // 3. Tasks: one producer, everyone consumes. Small captures live
  //    inline in the task descriptor — spawning allocates nothing.
  std::atomic<int> done{0};
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 0; i < 100; ++i) {
        o::task([&done] { done.fetch_add(1); });
      }
      o::taskwait();
    });
  });
  const auto ms = glto::sched::metrics_snapshot();
  std::printf("tasks executed: %d (descriptors inline=%llu spilled=%llu)\n",
              done.load(),
              static_cast<unsigned long long>(ms.value("omp.task_inline")),
              static_cast<unsigned long long>(ms.value("omp.task_alloc")));

  // 3b. A value-returning task: omp::future<T> carries the result (and
  //     any exception) back to the creator.
  o::parallel([](int, int) {
    o::single([] {
      auto f = o::task_ret([](int a, int b) { return a * b; }, 6, 7);
      std::printf("task_ret answered: %d\n", f.get());
    });
  });

  // 3c. A grain-controlled parallel loop: schedule, chunk grain, and a
  //     serial cutoff in one call (small trip counts skip the fork).
  std::atomic<std::int64_t> evens{0};
  o::par_for(0, 1000, {o::Schedule::Dynamic, /*grain=*/64, /*cutoff=*/32},
             [&](std::int64_t i) {
               if (i % 2 == 0) evens.fetch_add(1);
             });
  std::printf("par_for counted %lld evens\n",
              static_cast<long long>(evens.load()));

  // 4. Nested parallelism — cheap over GLTO (ULTs only, §IV-E).
  std::atomic<int> inner{0};
  o::parallel(2, [&](int, int) {
    o::parallel(2, [&](int, int) { inner.fetch_add(1); });
  });
  std::printf("nested leaf regions: %d\n", inner.load());

  o::shutdown();
  return 0;
}
