// Ablation — ULT dispatch throughput of the Chase–Lev work-stealing
// scheduler (sched::WsCore) that all three backends run.
//
// Two shapes per thread count on the native abt backend:
//  * burst  — create kBurst unpinned ULTs from the primary, then join them
//             all: the fine-grained spawn storm of Figs. 4–5. The deque
//             path is lock-free end to end (owner push, freelist pop,
//             stack-cache hit) and idle xstreams steal the backlog.
//  * pingpong — create+join one ULT at a time: dispatch latency, the
//             worst case for any scheduler since there is no parallelism
//             to win back.
//
// A third section sweeps the same burst through the GLT facade for ALL
// three backends — the dispatch-parity check: every backend runs the
// shared sched::WsCore. (glt-over-abt doubles as the §III-B "GLT overhead
// is negligible" check against the native abt rows.) Rows keep their
// historical `-ws` suffix so BENCH_dispatch.json stays comparable with
// the frozen `-locked` seed-baseline rows. Emits JSONL per row via
// $GLTO_BENCH_JSON.
//
// Two further sections (task ABI v2 PR):
//  * burst-co — the same facade burst joined in *completion order*: a
//    sinc-style counter signals when every unit's body has run, then the
//    joins only reclaim handles (each can at most overlap a unit's
//    completion epilogue, never an unexecuted body). The creation-order
//    join makes qth's FEB joins bounce main through the word-lock table
//    whenever the thief lags, so this variant isolates pure dispatch
//    cost from join-order artifacts (the ROADMAP open item).
//    glt::ult_is_done is the per-handle form of the same probe; its
//    conformance tests live in tests/test_glt.cpp.
//  * omp-task — kBurst omp::task spawns from a single producer on
//    glto-abt: v2 inline-payload descriptors vs a boxed std::function
//    callable, which spills every payload. The registry's
//    omp.task_inline/omp.task_alloc deltas print the split, proving the
//    inline rate.
//
// glto-region: kRegions empty omp::parallel regions per rep on each GLTO
// backend. The master forks one GLT_ult per non-master member and joins
// them (§IV-C), so the row prices a region fork/join; it carries
// glt.ults_created per region (Table II: team size − 1).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "abt/abt.hpp"
#include "bench_common.hpp"
#include "glt/glt.hpp"
#include "sched/chaos.hpp"
#include "sched/metrics.hpp"

namespace ga = glto::abt;
namespace gg = glto::glt;
namespace gs = glto::sched;
namespace b = glto::bench;
namespace c = glto::common;
namespace o = glto::omp;

namespace {

std::atomic<std::uint64_t> g_sink{0};

void work(void* p) {
  g_sink.fetch_add(reinterpret_cast<std::uintptr_t>(p) + 1,
                   std::memory_order_relaxed);
}

/// Completion-counter variant: the increment is the unit's completion
/// signal (the qthreads "sinc" fan-in shape), so the creator can wait for
/// the whole burst without joining in creation order.
std::atomic<std::uint64_t> g_done{0};

void work_counted(void* p) {
  work(p);
  g_done.fetch_add(1, std::memory_order_release);
}

constexpr int kBurst = 2048;
constexpr int kRegions = 2000;

struct AbtRun {
  explicit AbtRun(int threads) {
    ga::Config cfg;
    cfg.num_xstreams = threads;
    cfg.bind_threads = false;  // container cores < paper cores
    ga::init(cfg);
  }
  ~AbtRun() { ga::finalize(); }
};

double run_burst_abt(int n_units) {
  std::vector<ga::WorkUnit*> us;
  us.reserve(static_cast<std::size_t>(n_units));
  c::Timer t;
  for (int i = 0; i < n_units; ++i) us.push_back(ga::ult_create(work, nullptr));
  for (auto* u : us) ga::join(u);
  return t.elapsed_sec();
}

double run_pingpong_abt(int n_units) {
  c::Timer t;
  for (int i = 0; i < n_units; ++i) {
    ga::join(ga::ult_create(work, nullptr));
  }
  return t.elapsed_sec();
}

}  // namespace

int main() {
  const int reps = b::reps(10);
  const int scale = static_cast<int>(b::scale());
  const int burst = kBurst * scale;

  std::printf("Ablation: ULT dispatch — Chase–Lev work stealing\n");
  std::printf("burst=%d ULTs, pingpong=%d create+join pairs, %d reps/cell\n",
              burst, burst / 4, reps);

  b::print_header("abt dispatch: burst spawn+join (s)");
  for (int nth : b::thread_sweep()) {
    AbtRun rt(nth);
    (void)run_burst_abt(burst);  // warm freelists / stack caches
    auto st = b::time_runs(reps, [&] { (void)run_burst_abt(burst); });
    b::print_row("abt-ws", nth, st);
  }

  b::print_header("abt dispatch: create+join pingpong (s)");
  for (int nth : b::thread_sweep()) {
    AbtRun rt(nth);
    (void)run_pingpong_abt(burst / 4);
    auto st = b::time_runs(reps, [&] { (void)run_pingpong_abt(burst / 4); });
    b::print_row("abt-ws", nth, st);
  }

  // Dispatch-parity sweep: the same burst through the GLT facade over all
  // three backends. One run covers what used to need three GLT_IMPL
  // invocations; glt-over-abt additionally measures the runtime-dispatch
  // layer the paper claims is negligible (§III-B).
  const gg::Impl backends[] = {gg::Impl::abt, gg::Impl::qth, gg::Impl::mth};

  b::print_header("glt backend dispatch parity: burst spawn+join (s)");
  for (gg::Impl impl : backends) {
    for (int nth : b::thread_sweep()) {
      gg::Config cfg;
      cfg.impl = impl;
      cfg.num_threads = nth;
      cfg.bind_threads = false;
      gg::init(cfg);
      gs::MetricsSnapshot base = gs::metrics_snapshot();
      auto run_glt = [&] {
        std::vector<gg::Ult*> us;
        us.reserve(static_cast<std::size_t>(burst));
        for (int i = 0; i < burst; ++i) {
          us.push_back(gg::ult_create(work, nullptr));
        }
        for (auto* u : us) gg::ult_join(u);
      };
      run_glt();  // warm freelists / stack caches
      auto st = b::time_runs(reps, run_glt);
      char row[64];
      std::snprintf(row, sizeof row, "%s-ws", gg::impl_name(impl));
      b::print_row(row, nth, st);
      const auto d = gs::metrics_delta_since(base);
      std::printf(
          "    steals=%llu failed_steals=%llu stack_cache_hits=%llu "
          "parks=%llu\n",
          static_cast<unsigned long long>(d.value("sched.steals")),
          static_cast<unsigned long long>(d.value("sched.failed_steals")),
          static_cast<unsigned long long>(d.value("sched.stack_cache_hits")),
          static_cast<unsigned long long>(d.value("sched.parks")));
      gg::finalize();
    }
  }

  // Completion-order burst: identical spawn storm, but main waits on a
  // sinc-style completion counter (each ULT's body ends with one atomic
  // increment) and only joins the handles once every body has run, in
  // whatever order the units actually executed. No join can stall on a
  // not-yet-stolen ULT while completed ones wait behind it (the
  // artifact that bounced qth's FEB joins through the word-lock table),
  // so the cell measures pure dispatch throughput.
  b::print_header("glt dispatch parity: burst, completion-order join (s)");
  for (gg::Impl impl : backends) {
    for (int nth : b::thread_sweep()) {
      gg::Config cfg;
      cfg.impl = impl;
      cfg.num_threads = nth;
      cfg.bind_threads = false;
      gg::init(cfg);
      auto run_co = [&] {
        const std::uint64_t base = g_done.load(std::memory_order_relaxed);
        std::vector<gg::Ult*> us;
        us.reserve(static_cast<std::size_t>(burst));
        for (int i = 0; i < burst; ++i) {
          us.push_back(gg::ult_create(work_counted, nullptr));
        }
        while (g_done.load(std::memory_order_acquire) - base <
               static_cast<std::uint64_t>(burst)) {
          gg::yield();  // run/steal the backlog instead of blocking
        }
        // Every unit has run its body; joins only reclaim handles (a unit
        // may still be in its completion epilogue — ult_is_done can lag
        // the counter by a few instructions — so the join, not the probe,
        // is the reclaim step).
        for (auto* u : us) gg::ult_join(u);
      };
      run_co();  // warm freelists / stack caches
      auto st = b::time_runs(reps, run_co);
      char row[64];
      std::snprintf(row, sizeof row, "%s-ws-co", gg::impl_name(impl));
      b::print_row(row, nth, st);
      gg::finalize();
    }
  }

  b::print_header("glto empty parallel region: fork+join (s)");
  const struct {
    o::RuntimeKind kind;
    const char* row;
  } region_cells[] = {{o::RuntimeKind::glto_abt, "glto-region-abt"},
                      {o::RuntimeKind::glto_qth, "glto-region-qth"},
                      {o::RuntimeKind::glto_mth, "glto-region-mth"}};
  for (const auto& cell : region_cells) {
    for (int nth : b::thread_sweep()) {
      b::select_runtime(cell.kind, nth);
      const auto run_regions = [] {
        for (int k = 0; k < kRegions; ++k) o::parallel([](int, int) {});
      };
      run_regions();  // warm freelists / stack caches
      gs::MetricsSnapshot base = gs::metrics_snapshot();
      auto st = b::time_runs(reps, run_regions);
      const double ults_per_region =
          static_cast<double>(
              gs::metrics_delta_since(base).value("glt.ults_created")) /
          (static_cast<double>(reps) * kRegions);
      char kv[64];
      std::snprintf(kv, sizeof kv, "\"ults_per_region\": %.3f",
                    ults_per_region);
      b::print_row_json(cell.row, nth, st, kv);
      o::shutdown();
    }
  }

  // omp::task descriptor ablation (task ABI v2): the fig14-shaped single
  // producer, kBurst tasks per run, over glto-abt. "v2" spawns tasks with
  // a capture-free callable (inline descriptor payload, freelist-recycled
  // TaskArg — zero heap allocations after warm-up); "boxed" spawns the
  // same work as a std::function (type-erased callable + spilled payload
  // on every spawn).
  //
  // JSONL rows carry park/wake counter deltas so BENCH_dispatch.json can
  // attribute wins to the wakeup protocol (one targeted wake per deposit)
  // rather than container noise. The `-one` row suffix is historical: it
  // keeps the rows comparable with the frozen threshold/all wake-policy
  // rows.
  const auto count = [](const gs::MetricsSnapshot& d, const char* name) {
    return static_cast<unsigned long long>(d.value(name));
  };
  const auto wake_kv = [&](const gs::MetricsSnapshot& d) {
    char kv[256];
    std::snprintf(kv, sizeof kv,
                  "\"parks\": %llu, \"wakes_issued\": %llu, "
                  "\"wakes_spurious\": %llu, \"bulk_deposits\": %llu",
                  count(d, "sched.parks"), count(d, "sched.wakes_issued"),
                  count(d, "sched.wakes_spurious"),
                  count(d, "sched.bulk_deposits"));
    return std::string(kv);
  };

  b::print_header("omp task burst on glto-abt: single producer (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const auto run_v2 = [&] {
      o::parallel([&](int, int) {
        o::single([&] {
          for (int i = 0; i < burst; ++i) {
            o::task([] { g_sink.fetch_add(1, std::memory_order_relaxed); });
          }
          o::taskwait();
        });
      });
    };
    run_v2();  // warm the record freelists
    gs::MetricsSnapshot base = gs::metrics_snapshot();
    auto st = b::time_runs(reps, run_v2);
    const auto d = gs::metrics_delta_since(base);
    b::print_row_json("task-v2-one", nth, st, wake_kv(d));
    const unsigned long long inl = count(d, "omp.task_inline");
    const unsigned long long alloc = count(d, "omp.task_alloc");
    std::printf(
        "    task_inline=+%llu task_alloc=+%llu (inline rate %.1f%%) "
        "parks=+%llu wakes=+%llu spurious=+%llu\n",
        inl, alloc,
        100.0 * static_cast<double>(inl) /
            (static_cast<double>(inl + alloc) + 1e-9),
        count(d, "sched.parks"), count(d, "sched.wakes_issued"),
        count(d, "sched.wakes_spurious"));
    o::shutdown();
  }

  // Multi-producer fan-out: every team member is a producer — nth
  // concurrent spawners each burst burst/nth tasks onto their own deques
  // and taskwait. Broadcast wakes would compound worst here (every
  // producer storming every parked worker); targeted wakes + stealing
  // should hold the line as nth grows.
  b::print_header("omp task fan-out on glto-abt: multi-producer (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const int per_member = burst / (nth > 0 ? nth : 1);
    const auto run_mp = [&] {
      o::parallel([&](int, int) {
        for (int i = 0; i < per_member; ++i) {
          o::task([] { g_sink.fetch_add(1, std::memory_order_relaxed); });
        }
        o::taskwait();
      });
    };
    run_mp();  // warm the record freelists
    gs::MetricsSnapshot base = gs::metrics_snapshot();
    auto st = b::time_runs(reps, run_mp);
    b::print_row_json("task-mp-one", nth, st,
                      wake_kv(gs::metrics_delta_since(base)));
    o::shutdown();
  }

  // Producer taskloop: the same 2048 indices as the single-producer cell,
  // but carved into grain-64 chunks that cross the runtime as ONE bulk
  // deposit (omp::taskloop → task_bulk → WsCore::submit_bulk) — the
  // batch-spawn half of the fan-out PR, measured beside the per-task path.
  b::print_header("omp taskloop burst on glto-abt: bulk grain chunks (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const auto run_tl = [&] {
      o::parallel([&](int, int) {
        o::single([&] {
          o::taskloop(0, burst, 64, [](std::int64_t) {
            g_sink.fetch_add(1, std::memory_order_relaxed);
          });
        });
      });
    };
    run_tl();
    gs::MetricsSnapshot base = gs::metrics_snapshot();
    auto st = b::time_runs(reps, run_tl);
    b::print_row_json("taskloop-g64", nth, st,
                      wake_kv(gs::metrics_delta_since(base)));
    o::shutdown();
  }
  // Chaos-harness overhead: the same single-producer burst with the
  // fault-injection hooks (a) disarmed — the shipping default, where every
  // hook is one relaxed load of g_chaos_on and a predicted branch — and
  // (b) armed at the CI chaos leg's probabilities. The off row must sit
  // within noise of the task-v2 cells above (the hardening layer is free
  // when unused); the on row prices what the chaos CI leg actually pays.
  b::print_header("omp task burst on glto-abt: chaos harness overhead (s)");
  {
    struct ChaosMode {
      const char* name;
      glto::sched::ChaosConfig cfg;  // default-constructed = off
    };
    ChaosMode chaos_modes[2];
    chaos_modes[0].name = "task-chaos-off";
    chaos_modes[1].name = "task-chaos-on";
    chaos_modes[1].cfg.enabled = true;
    chaos_modes[1].cfg.spawn_p = 0.02;
    chaos_modes[1].cfg.alloc_p = 0.05;
    chaos_modes[1].cfg.delay_p = 0.01;
    chaos_modes[1].cfg.seed = 42;
    for (const ChaosMode& cm : chaos_modes) {
      for (int nth : b::thread_sweep()) {
        b::select_runtime(o::RuntimeKind::glto_abt, nth);
        glto::sched::chaos_set_for_testing(cm.cfg);
        const auto run_chaos = [&] {
          o::parallel([&](int, int) {
            o::single([&] {
              for (int i = 0; i < burst; ++i) {
                o::task(
                    [] { g_sink.fetch_add(1, std::memory_order_relaxed); });
              }
              o::taskwait();
            });
          });
        };
        run_chaos();  // warm the record freelists
        const auto f0 = glto::sched::chaos_faults_injected();
        auto st = b::time_runs(reps, run_chaos);
        const auto f1 = glto::sched::chaos_faults_injected();
        char kv[96];
        std::snprintf(kv, sizeof kv,
                      "\"chaos\": %s, \"faults_injected\": %llu",
                      cm.cfg.enabled ? "true" : "false",
                      static_cast<unsigned long long>(f1 - f0));
        b::print_row_json(cm.name, nth, st, kv);
        glto::sched::chaos_set_for_testing({});
        o::shutdown();
      }
    }
  }

  b::print_header("omp task burst on glto-abt: boxed std::function (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const auto run_boxed = [&] {
      o::parallel([&](int, int) {
        o::single([&] {
          for (int i = 0; i < burst; ++i) {
            std::function<void()> fn = [] {
              g_sink.fetch_add(1, std::memory_order_relaxed);
            };
            o::task(std::move(fn));  // boxed callable, measured on purpose
          }
          o::taskwait();
        });
      });
    };
    run_boxed();
    gs::MetricsSnapshot base = gs::metrics_snapshot();
    auto st = b::time_runs(reps, run_boxed);
    const auto d = gs::metrics_delta_since(base);
    b::print_row("task-boxed", nth, st);
    std::printf("    task_inline=+%llu task_alloc=+%llu\n",
                count(d, "omp.task_inline"), count(d, "omp.task_alloc"));
    o::shutdown();
  }

  std::printf("\nsink=%llu\n",
              static_cast<unsigned long long>(g_sink.load()));
  return 0;
}
