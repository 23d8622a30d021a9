// Ablation — QP-as-a-service latency + blocking-primitive wake latency
// (ULT-native sync PR).
//
// Three sections:
//  * qpserver — the apps/qpserver driver (a producer streams box-QP solve
//    requests through a bounded sched::Channel into a flock of worker
//    ULTs) swept over ≥3 concurrency levels per backend. Rows report
//    enqueue→solved p50/p95/p99/max latency and throughput — the metric
//    real-time MPC solvers are judged on under multi-user traffic, and
//    the end-to-end check that Channel park/wake handoff holds up under
//    sustained load. Every service row also carries solve_us, the median
//    sequential solve at the request shape (measured once per run), and
//    the closed-loop rows its service floor floor_rps =
//    min(concurrency, GLT threads) × 10⁶ / solve_us: the req/s the flock
//    would reach if queueing and handoff cost nothing.
//  * barrier wake — K rounds of omp::barrier inside one parallel region.
//    Under the old WaitBackoff a member that went idle between rounds
//    woke from a micro-sleep (≤200 µs quantum) after the last arrival;
//    with sched::Barrier the last arriver re-deposits the flock through
//    the core's targeted-wake path, so the per-round cost must sit far
//    below the old sleep floor. The suspensions/wakes_direct deltas in
//    the JSONL prove the rounds actually parked instead of spinning.
//  * taskgroup wake — taskgroup{ task } in a loop: the group end parks on
//    the scope's CompletionLatch and the task's completion wakes it
//    directly. Same floor argument, task-completion edition.
//
// Emits JSONL per row via $GLTO_BENCH_JSON (schema v2); the qpserver rows
// splice in p50/p95/p99/max_us + throughput, the wake rows ns/op and the
// suspension counters.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/bqp.hpp"
#include "apps/qpserver.hpp"
#include "bench_common.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/sync.hpp"

namespace b = glto::bench;
namespace c = glto::common;
namespace o = glto::omp;
namespace gg = glto::glt;
namespace qp = glto::apps::qpserver;
namespace bqp = glto::apps::bqp;

namespace {

/// Backend sweep for the service rows.
struct Backend {
  gg::Impl impl;
  const char* name;
};
constexpr Backend kBackends[] = {{gg::Impl::abt, "qpserver-abt"},
                                 {gg::Impl::qth, "qpserver-qth"},
                                 {gg::Impl::mth, "qpserver-mth"}};

/// Concurrency levels (worker-ULT flock sizes) per backend — the
/// acceptance sweep. The channel bound stays at the config default, so
/// higher concurrency shifts the latency distribution, not the backlog.
constexpr int kConcs[] = {1, 4, 16};

/// Median wall time (µs) of one Mode::sequential solve of the problem
/// qpserver::run builds for @p cfg: one worker's service time per request.
double median_solve_us(const qp::Config& cfg) {
  const bqp::Problem p = bqp::make_problem(cfg.n, cfg.n, cfg.rank, cfg.seed);
  constexpr int kSolves = 101;
  std::vector<double> us;
  for (int i = 0; i < kSolves; ++i) {
    const std::int64_t t0 = c::now_ns();
    (void)bqp::solve(p, bqp::Mode::sequential, cfg.max_iters);
    us.push_back(static_cast<double>(c::now_ns() - t0) * 1e-3);
  }
  std::sort(us.begin(), us.end());
  return us[kSolves / 2];
}

std::string qp_row_fields(const qp::Report& r, const qp::Config& cfg,
                          double solve_us, double floor_rps) {
  char buf[400];
  std::snprintf(
      buf, sizeof buf,
      "\"requests\": %d, \"queue_depth\": %d, \"completed\": %llu, "
      "\"throughput_rps\": %.1f, \"p50_us\": %llu, \"p95_us\": %llu, "
      "\"p99_us\": %llu, \"max_us\": %llu, \"solve_us\": %.1f, "
      "\"floor_rps\": %.1f",
      cfg.requests, cfg.queue_depth,
      static_cast<unsigned long long>(r.completed), r.throughput_rps,
      static_cast<unsigned long long>(r.p50_us),
      static_cast<unsigned long long>(r.p95_us),
      static_cast<unsigned long long>(r.p99_us),
      static_cast<unsigned long long>(r.max_us), solve_us, floor_rps);
  return std::string(buf);
}

std::string over_row_fields(const qp::Report& r, const qp::Config& cfg,
                            double solve_us) {
  char buf[416];
  std::snprintf(
      buf, sizeof buf,
      "\"offered\": %llu, \"completed\": %llu, \"shed\": %llu, "
      "\"deadline_missed\": %llu, \"retried\": %llu, \"degraded\": %llu, "
      "\"goodput_rps\": %.1f, \"deadline_ms\": %d, \"rate_rps\": %.1f, "
      "\"p99_us\": %llu, \"solve_us\": %.1f",
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.deadline_missed),
      static_cast<unsigned long long>(r.retried),
      static_cast<unsigned long long>(r.degraded), r.goodput_rps,
      cfg.deadline_ms, cfg.arrival_rps,
      static_cast<unsigned long long>(r.p99_us), solve_us);
  return std::string(buf);
}

std::string wake_row_fields(std::int64_t ops, double mean_s,
                            std::uint64_t susp, std::uint64_t direct) {
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "\"ops\": %lld, \"ns_per_op\": %.0f, \"suspensions\": %llu, "
                "\"wakes_direct\": %llu",
                static_cast<long long>(ops),
                ops > 0 ? mean_s * 1e9 / static_cast<double>(ops) : 0.0,
                static_cast<unsigned long long>(susp),
                static_cast<unsigned long long>(direct));
  return std::string(buf);
}

}  // namespace

int main() {
  const int reps = b::reps(3);
  const int threads =
      static_cast<int>(c::env_i64("GLTO_QPSERVER_THREADS", 4));
  qp::Config base = qp::config_from_env();

  std::printf("Ablation: QP-as-a-service latency over blocking ULT sync\n");
  std::printf("requests=%d queue=%d n=%d iters=%d threads=%d, %d reps/cell\n",
              base.requests, base.queue_depth, base.n, base.max_iters,
              threads, reps);
  const double solve_us = median_solve_us(base);
  std::printf("sequential solve at the request shape: %.1f us (median)\n",
              solve_us);

  b::print_header("qpserver: streamed solves, enqueue→solved latency (s)");
  for (const Backend& be : kBackends) {
    for (int conc : kConcs) {
      gg::Config gcfg;
      gcfg.impl = be.impl;
      gcfg.num_threads = threads;
      gcfg.bind_threads = false;  // container cores < paper cores
      gg::init(gcfg);
      qp::Config cfg = base;
      cfg.concurrency = conc;
      qp::Report last;
      (void)qp::run(cfg);  // warm freelists, stacks, problem caches
      auto st = b::time_runs(reps, [&] { last = qp::run(cfg); });
      const double floor_rps = std::min(conc, threads) * 1e6 / solve_us;
      b::print_row_json(be.name, conc, st,
                        qp_row_fields(last, cfg, solve_us, floor_rps));
      std::printf(
          "    p50=%lluus p95=%lluus p99=%lluus max=%lluus  %.0f req/s "
          "(floor %.0f; completed=%llu, not_converged=%llu)\n",
          static_cast<unsigned long long>(last.p50_us),
          static_cast<unsigned long long>(last.p95_us),
          static_cast<unsigned long long>(last.p99_us),
          static_cast<unsigned long long>(last.max_us), last.throughput_rps,
          floor_rps,
          static_cast<unsigned long long>(last.completed),
          static_cast<unsigned long long>(last.not_converged));
      gg::finalize();
    }
  }

  // ---- overload: paced open-loop arrivals against measured capacity,
  // deadlines armed. Rows record the shed/miss/retry/goodput accounting;
  // crash-fail only — nothing here asserts on timing.
  b::print_header("qpserver overload: paced arrivals vs capacity (abt)");
  {
    gg::Config gcfg;
    gcfg.impl = gg::Impl::abt;
    gcfg.num_threads = threads;
    gcfg.bind_threads = false;
    gg::init(gcfg);
    qp::Config cfg = base;
    cfg.concurrency = 4;
    (void)qp::run(cfg);  // warm
    // Capacity probe: median of kProbeRuns closed-loop runs (no deadline).
    // One outlier run would otherwise move every paced rate below with it;
    // min and max are printed beside the median to show the spread.
    constexpr int kProbeRuns = 5;
    std::vector<double> probe_rps;
    for (int i = 0; i < kProbeRuns; ++i) {
      probe_rps.push_back(qp::run(cfg).goodput_rps);
    }
    std::sort(probe_rps.begin(), probe_rps.end());
    const double med_rps = probe_rps[kProbeRuns / 2];
    const double cap_rps = med_rps > 1.0 ? med_rps : 1.0;
    std::printf(
        "  measured capacity: %.0f req/s (median of %d closed-loop runs, "
        "min %.0f, max %.0f)\n",
        cap_rps, kProbeRuns, probe_rps.front(), probe_rps.back());
    constexpr double kMults[] = {0.5, 1.0, 2.0};
    const char* kNames[] = {"qpserver-over-0.5x", "qpserver-over-1x",
                            "qpserver-over-2x"};
    for (std::size_t mi = 0; mi < 3; ++mi) {
      qp::Config ocfg = cfg;
      ocfg.arrival_rps = cap_rps * kMults[mi];
      ocfg.deadline_ms = ocfg.deadline_ms > 0 ? ocfg.deadline_ms : 50;
      ocfg.degrade = true;
      qp::Report last;
      // One run per rate: the row's payload is the Report accounting,
      // not the wall time (a paced run's duration is fixed by the rate).
      auto st = b::time_runs(1, [&] { last = qp::run(ocfg); });
      b::print_row_json(kNames[mi], cfg.concurrency, st,
                        over_row_fields(last, ocfg, solve_us));
      std::printf(
          "    offered=%llu completed=%llu shed=%llu missed=%llu "
          "retried=%llu degraded=%llu  goodput=%.0f req/s p99=%lluus\n",
          static_cast<unsigned long long>(last.offered),
          static_cast<unsigned long long>(last.completed),
          static_cast<unsigned long long>(last.shed),
          static_cast<unsigned long long>(last.deadline_missed),
          static_cast<unsigned long long>(last.retried),
          static_cast<unsigned long long>(last.degraded), last.goodput_rps,
          static_cast<unsigned long long>(last.p99_us));
    }
    gg::finalize();
  }

  // ---- wake-latency microcells: the ≤200 µs sleep-quantum floor is gone.
  const int rounds = 512 * static_cast<int>(b::scale());

  b::print_header("sync wake: barrier round-trip (s)");
  for (int nth : {2, 4}) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    auto one = [&] {
      o::parallel(nth, [&](int, int) {
        for (int k = 0; k < rounds; ++k) o::barrier();
      });
    };
    one();  // warm
    const std::uint64_t susp0 = glto::sched::suspensions();
    const std::uint64_t dir0 = glto::sched::wakes_direct();
    auto st = b::time_runs(reps, one);
    b::print_row_json(
        "barrier-abt", nth, st,
        wake_row_fields(rounds, st.mean(), glto::sched::suspensions() - susp0,
                        glto::sched::wakes_direct() - dir0));
    o::shutdown();
  }

  b::print_header("sync wake: taskgroup end (s)");
  {
    const int groups = rounds / 4;
    b::select_runtime(o::RuntimeKind::glto_abt, 2);
    auto one = [&] {
      o::parallel(2, [&](int tid, int) {
        if (tid != 0) return;
        for (int k = 0; k < groups; ++k) {
          o::taskgroup([&] {
            o::task([] {});
          });
        }
      });
    };
    one();  // warm
    const std::uint64_t susp0 = glto::sched::suspensions();
    const std::uint64_t dir0 = glto::sched::wakes_direct();
    auto st = b::time_runs(reps, one);
    b::print_row_json(
        "taskgroup-abt", 2, st,
        wake_row_fields(groups, st.mean(), glto::sched::suspensions() - susp0,
                        glto::sched::wakes_direct() - dir0));
    o::shutdown();
  }

  return 0;
}
