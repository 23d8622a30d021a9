#include "ladder.hpp"

#include <atomic>
#include <thread>

#include "apps/bqp.hpp"
#include "apps/cg.hpp"
#include "common/parker.hpp"
#include "common/time.hpp"
#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/chase_lev.hpp"
#include "sched/sync.hpp"

namespace perfbench {

namespace {

namespace gc = glto::common;
namespace go = glto::omp;

constexpr int kReps = 5;

/// Median over kReps of (@p fn() wall ns) / @p ops.
template <class Fn>
double ns_per_op(std::int64_t ops, Fn&& fn) {
  Samples s;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = gc::now_ns();
    fn();
    s.add(static_cast<double>(gc::now_ns() - t0) / static_cast<double>(ops));
  }
  return s.median();
}

// ---- fctx: jump_fcontext round trip ------------------------------------

void bounce_entry(glto::fctx::transfer_t t) {
  for (;;) t = glto::fctx::jump_fcontext(t.from, nullptr);
}

double fctx_switch_ns() {
  glto::fctx::StackPool pool;
  glto::fctx::Stack st = pool.acquire();
  glto::fctx::fcontext_t ctx =
      glto::fctx::make_fcontext(st.top, st.size, bounce_entry);
  constexpr std::int64_t kOps = 200000;
  const double ns = ns_per_op(kOps, [&] {
    for (std::int64_t i = 0; i < kOps; ++i) {
      ctx = glto::fctx::jump_fcontext(ctx, nullptr).from;
    }
  });
  // The bounce context stays suspended forever; its stack goes back to the
  // pool unused again.
  pool.release(st);
  return ns;
}

// ---- sched: Chase–Lev deque and Parker ---------------------------------

double deque_push_pop_ns(bool* ok) {
  glto::sched::ChaseLevDeque<void*> dq(1024);
  constexpr std::int64_t kOps = 200000;
  std::uintptr_t sum = 0;
  const double ns = ns_per_op(kOps, [&] {
    void* v = nullptr;
    for (std::int64_t i = 0; i < kOps; ++i) {
      dq.push(reinterpret_cast<void*>(i + 1));
      if (dq.pop(&v)) sum += reinterpret_cast<std::uintptr_t>(v);
    }
  });
  if (sum != kReps * static_cast<std::uintptr_t>(kOps * (kOps + 1) / 2)) {
    *ok = false;
  }
  return ns;
}

/// Uncontended steal: the owner fills the deque, then steals it empty.
double deque_steal_ns(bool* ok) {
  glto::sched::ChaseLevDeque<void*> dq(1024);
  constexpr std::int64_t kOps = 1024;
  constexpr int kRounds = 100;
  std::uintptr_t sum = 0;
  Samples s;
  for (int r = 0; r < kRounds; ++r) {
    for (std::int64_t i = 0; i < kOps; ++i) {
      dq.push(reinterpret_cast<void*>(i + 1));
    }
    void* v = nullptr;
    const std::int64_t t0 = gc::now_ns();
    while (dq.steal(&v)) sum += reinterpret_cast<std::uintptr_t>(v);
    s.add(static_cast<double>(gc::now_ns() - t0) / kOps);
  }
  if (sum != kRounds * static_cast<std::uintptr_t>(kOps * (kOps + 1) / 2)) {
    *ok = false;
  }
  return s.median();
}

/// Park→unpark ping-pong between two OS threads; ns per round trip.
double park_unpark_ns() {
  gc::Parker ping, pong;
  constexpr std::int64_t kOps = 2000;
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (ping.park_for_us(100000)) pong.unpark();
    }
  });
  const double ns = ns_per_op(kOps, [&] {
    for (std::int64_t i = 0; i < kOps; ++i) {
      ping.unpark();
      (void)pong.park_for_us(100000);
    }
  });
  stop.store(true, std::memory_order_release);
  ping.unpark();
  peer.join();
  return ns;
}

// ---- glt + sync (a glt runtime is live: omp::select initialised it) ----

struct HandoffArg {
  glto::sched::Channel<std::int64_t>* chan;
  std::int64_t n;
  std::int64_t sum;
};

void handoff_producer(void* p) {
  auto* a = static_cast<HandoffArg*>(p);
  for (std::int64_t i = 1; i <= a->n; ++i) (void)a->chan->send(i);
  a->chan->close();
}

void handoff_consumer(void* p) {
  auto* a = static_cast<HandoffArg*>(p);
  std::int64_t v = 0;
  while (a->chan->recv(v)) a->sum += v;
}

/// Channel send→recv between two ULTs through a capacity-1 channel.
double channel_handoff_ns(bool* ok) {
  constexpr std::int64_t kOps = 20000;
  return ns_per_op(kOps, [&] {
    glto::sched::Channel<std::int64_t> chan(1);
    HandoffArg a{&chan, kOps, 0};
    glto::glt::Ult* c = glto::glt::ult_create(handoff_consumer, &a);
    glto::glt::Ult* p = glto::glt::ult_create(handoff_producer, &a);
    glto::glt::ult_join(p);
    glto::glt::ult_join(c);
    if (a.sum != kOps * (kOps + 1) / 2) *ok = false;
  });
}

void noop(void*) {}

double ult_create_join_ns() {
  constexpr std::int64_t kOps = 20000;
  return ns_per_op(kOps, [&] {
    for (std::int64_t i = 0; i < kOps; ++i) {
      glto::glt::ult_join(glto::glt::ult_create(noop, nullptr));
    }
  });
}

// ---- glto / omp / taskdep ----------------------------------------------

double barrier_round_ns() {
  constexpr std::int64_t kOps = 5000;
  return ns_per_op(kOps, [&] {
    go::parallel(kThreads, [&](int, int) {
      for (std::int64_t k = 0; k < kOps; ++k) go::barrier();
    });
  });
}

/// taskgroup { task {} }: the group end parks on the scope's
/// CompletionLatch and the task's completion wakes it.
double latch_wake_ns() {
  constexpr std::int64_t kOps = 5000;
  return ns_per_op(kOps, [&] {
    go::parallel(2, [&](int tid, int) {
      if (tid != 0) return;
      for (std::int64_t k = 0; k < kOps; ++k) {
        go::taskgroup([] { go::task([] {}); });
      }
    });
  });
}

double parallel_region_ns() {
  constexpr std::int64_t kOps = 5000;
  return ns_per_op(kOps, [&] {
    for (std::int64_t k = 0; k < kOps; ++k) {
      go::parallel(kThreads, [](int, int) {});
    }
  });
}

/// Empty tasks from a single producer, one taskwait at the end.
double task_ns(bool* ok) {
  constexpr std::int64_t kOps = 20000;
  return ns_per_op(kOps, [&] {
    std::atomic<std::int64_t> ran{0};
    go::parallel(kThreads, [&](int, int) {
      go::single([&] {
        for (std::int64_t k = 0; k < kOps; ++k) {
          go::task([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
        go::taskwait();
      });
    });
    if (ran.load() != kOps) *ok = false;
  });
}

double par_for_ns(bool* ok) {
  constexpr std::int64_t kOps = 5000;
  constexpr std::int64_t kTrip = 1024;
  std::vector<std::int64_t> v(kTrip, 0);
  const double ns = ns_per_op(kOps, [&] {
    for (std::int64_t k = 0; k < kOps; ++k) {
      go::par_for(0, kTrip,
                  [&](std::int64_t i) { ++v[static_cast<std::size_t>(i)]; });
    }
  });
  for (std::int64_t x : v) {
    if (x != kOps * kReps) *ok = false;
  }
  return ns;
}

/// An inout chain on one address: every task depends on the previous one.
double dep_task_ns(bool* ok) {
  constexpr std::int64_t kOps = 10000;
  return ns_per_op(kOps, [&] {
    std::int64_t cell = 0;
    go::parallel(kThreads, [&](int, int) {
      go::single([&] {
        go::TaskFlags fl;
        fl.depend = {glto::taskdep::Dep{&cell, sizeof cell,
                                        glto::taskdep::DepKind::inout}};
        for (std::int64_t k = 0; k < kOps; ++k) {
          go::task([&cell, k] {
            if (cell == k) ++cell;  // in order only if the chain holds
          }, fl);
        }
        go::taskwait();
      });
    });
    if (cell != kOps) *ok = false;
  });
}

}  // namespace

bool run_ladder(Tracer& tr, std::uint64_t seed, std::vector<Metric>& out) {
  bool ok = true;
  auto cell = [&](const char* name, const char* layer, const char* unit,
                  auto&& fn) {
    SpanScope s(tr, name, layer);
    out.push_back(Metric{name, fn(), unit});
  };
  SpanScope root(tr, "ladder", "bench");

  cell("fctx.switch_ns", "fctx", "ns", fctx_switch_ns);
  cell("sched.deque_push_pop_ns", "sched", "ns",
       [&] { return deque_push_pop_ns(&ok); });
  cell("sched.deque_steal_ns", "sched", "ns",
       [&] { return deque_steal_ns(&ok); });
  cell("sched.park_unpark_ns", "sched", "ns", park_unpark_ns);

  go::SelectOptions opts;
  opts.num_threads = kThreads;
  opts.bind_threads = false;
  opts.active_wait = false;
  go::select(go::RuntimeKind::glto_abt, opts);
  cell("sync.channel_handoff_ns", "sched/sync", "ns",
       [&] { return channel_handoff_ns(&ok); });
  cell("sync.barrier_round_ns", "sched/sync", "ns", barrier_round_ns);
  cell("sync.latch_wake_ns", "sched/sync", "ns", latch_wake_ns);
  cell("glt.ult_create_join_ns", "glt", "ns", ult_create_join_ns);
  cell("glto.parallel_region_ns", "glto", "ns", parallel_region_ns);
  cell("omp.task_ns", "omp", "ns", [&] { return task_ns(&ok); });
  cell("omp.par_for_ns", "omp", "ns", [&] { return par_for_ns(&ok); });
  cell("taskdep.dep_task_ns", "taskdep", "ns",
       [&] { return dep_task_ns(&ok); });
  go::shutdown();

  // apps: the sequential IPM at the qps request shape (the service-time
  // floor of one qps worker) and one SpMV at the CG shape.
  {
    namespace bqp = glto::apps::bqp;
    const bqp::Problem p = bqp::make_problem(48, 16, 4, seed);
    Samples us;
    int iters = 0;
    {
      SpanScope s(tr, "bqp.solve_seq_us", "apps");
      for (int r = 0; r < 50; ++r) {
        const std::int64_t t0 = gc::now_ns();
        const bqp::Result res = bqp::solve(p, bqp::Mode::sequential, 40);
        us.add(static_cast<double>(gc::now_ns() - t0) * 1e-3);
        if (!res.converged) ok = false;
        iters = res.iters;
      }
    }
    out.push_back(Metric{"bqp.solve_seq_us", us.median(), "us"});
    out.push_back(
        Metric{"bqp.iters_per_solve", static_cast<double>(iters), "count"});
  }
  {
    namespace cg = glto::apps::cg;
    const cg::Csr a = cg::make_spd_pentadiagonal(cg::kPaperRows);
    std::vector<double> x(static_cast<std::size_t>(a.n), 1.0), y(x.size());
    SpanScope s(tr, "cg.spmv_us", "apps");
    out.push_back(Metric{"cg.spmv_us",
                         ns_per_op(50, [&] {
                           for (int r = 0; r < 50; ++r) cg::spmv_seq(a, x, y);
                         }) * 1e-3,
                         "us"});
  }
  return ok;
}

}  // namespace perfbench
