// GLT conformance suite, parameterized over the three backends.
//
// The GLT promise (paper §III-B): a program written against the GLT API
// runs unmodified over any backend with identical *results* (performance
// may differ). Every test here therefore runs 3×: abt, qth, mth.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "fctx/stack_pool.hpp"
#include "glt/glt.hpp"

namespace gg = glto::glt;
namespace gs = glto::sched;

class GltBackend : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void SetUp() override {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 3;
    cfg.bind_threads = false;
    gg::init(cfg);
  }
  void TearDown() override { gg::finalize(); }
};

TEST_P(GltBackend, InitReportsBackendAndThreads) {
  EXPECT_TRUE(gg::initialized());
  EXPECT_EQ(gg::current_impl(), GetParam());
  EXPECT_EQ(gg::num_threads(), 3);
  EXPECT_GE(gg::thread_num(), 0);
}

TEST_P(GltBackend, UltCreateJoin) {
  std::atomic<int> x{0};
  auto* u = gg::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(11); }, &x);
  gg::ult_join(u);
  EXPECT_EQ(x.load(), 11);
}

TEST_P(GltBackend, ManyUltsAllRun) {
  constexpr int kN = 300;
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), kN);
}

TEST_P(GltBackend, UltCreateBulkRunsEveryUnit) {
  // Bulk spawn conformance: one deposit publishes the whole batch; every
  // unit runs exactly once; handles join normally. Both distribution
  // hints, odd batch sizes, and a size larger than the internal wave.
  for (const bool spread : {false, true}) {
    for (const int n : {1, 7, 300}) {
      std::atomic<int> count{0};
      std::vector<void*> args(static_cast<std::size_t>(n), &count);
      std::vector<gg::Ult*> us(static_cast<std::size_t>(n));
      gg::ult_create_bulk(
          [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
          args.data(), n, us.data(), spread);
      for (auto* u : us) gg::ult_join(u);
      EXPECT_EQ(count.load(), n) << "spread=" << spread << " n=" << n;
    }
  }
  EXPECT_GT(gs::metrics_snapshot().value("sched.bulk_deposits"), 0u)
      << "bulk creates must go through the core's bulk-deposit path";
}

TEST_P(GltBackend, UltCreateBulkFromInsideUlt) {
  // A producer ULT fans a batch out mid-flight (the DAG ready-burst
  // shape); the creator joins its batch before finishing.
  struct Ctx {
    std::atomic<int> count{0};
  } ctx;
  auto* outer = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        constexpr int kN = 32;
        std::vector<void*> args(kN, &c->count);
        std::vector<gg::Ult*> us(kN);
        gg::ult_create_bulk(
            [](void* q) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
            args.data(), kN, us.data(), /*spread=*/false);
        for (auto* u : us) gg::ult_join(u);
      },
      &ctx);
  gg::ult_join(outer);
  EXPECT_EQ(ctx.count.load(), 32);
}

TEST_P(GltBackend, UltIsDoneTracksCompletion) {
  // The non-destructive completion probe behind the completion-order
  // burst join: false until the body ran, true after, join still works.
  std::atomic<int> count{0};
  constexpr int kN = 100;
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  // Completion-order reclaim: join whatever finished first.
  std::size_t remaining = us.size();
  while (remaining > 0) {
    bool progressed = false;
    for (auto& u : us) {
      if (u != nullptr && gg::ult_is_done(u)) {
        gg::ult_join(u);
        u = nullptr;
        --remaining;
        progressed = true;
      }
    }
    if (!progressed) gg::yield();
  }
  EXPECT_EQ(count.load(), kN);
}

TEST_P(GltBackend, UltCreateToAllThreads) {
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  for (int t = 0; t < gg::num_threads(); ++t) {
    for (int i = 0; i < 20; ++i) {
      us.push_back(gg::ult_create_to(
          t, [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
          &count));
    }
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), gg::num_threads() * 20);
}

TEST_P(GltBackend, PlacementIsExactWithoutStealing) {
  if (gg::supports_stealing()) {
    GTEST_SKIP() << "mth: placement is advisory under work stealing";
  }
  for (int t = 0; t < gg::num_threads(); ++t) {
    std::atomic<int> ran_on{-1};
    auto* u = gg::ult_create_to(
        t,
        [](void* p) {
          static_cast<std::atomic<int>*>(p)->store(gg::thread_num());
        },
        &ran_on);
    gg::ult_join(u);
    EXPECT_EQ(ran_on.load(), t);
  }
}

TEST_P(GltBackend, TaskletCreateJoin) {
  std::atomic<int> x{0};
  auto* t = gg::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(21); }, &x);
  gg::tasklet_join(t);
  EXPECT_EQ(x.load(), 21);
}

TEST_P(GltBackend, TaskletsToSpecificThreads) {
  std::atomic<int> count{0};
  std::vector<gg::Tasklet*> ts;
  for (int t = 0; t < gg::num_threads(); ++t) {
    ts.push_back(gg::tasklet_create_to(
        t, [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* t : ts) gg::tasklet_join(t);
  EXPECT_EQ(count.load(), gg::num_threads());
}

TEST_P(GltBackend, YieldFromMainIsSafe) {
  for (int i = 0; i < 5; ++i) gg::yield();
  SUCCEED();
}

TEST_P(GltBackend, NestedCreateJoinInsideUlt) {
  std::atomic<int> total{0};
  auto* u = gg::ult_create(
      [](void* p) {
        std::vector<gg::Ult*> kids;
        for (int i = 0; i < 16; ++i) {
          kids.push_back(gg::ult_create(
              [](void* q) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
              p));
        }
        for (auto* k : kids) gg::ult_join(k);
        static_cast<std::atomic<int>*>(p)->fetch_add(100);
      },
      &total);
  gg::ult_join(u);
  EXPECT_EQ(total.load(), 116);
}

TEST_P(GltBackend, UltsCanYieldAndFinish) {
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  for (int i = 0; i < 20; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          for (int k = 0; k < 5; ++k) gg::yield();
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), 20);
}

TEST_P(GltBackend, StatsTrackCreations) {
  gs::MetricsSnapshot base = gs::metrics_snapshot();
  std::atomic<int> x{0};
  auto* u = gg::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  auto* t = gg::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  gg::ult_join(u);
  gg::tasklet_join(t);
  const auto d = gs::metrics_delta_since(base);
  EXPECT_EQ(d.value("glt.ults_created"), 1u);
  EXPECT_EQ(d.value("glt.tasklets_created"), 1u);
}

TEST_P(GltBackend, CapabilitiesMatchBackend) {
  switch (GetParam()) {
    case gg::Impl::abt:
      EXPECT_FALSE(gg::supports_stealing());
      EXPECT_TRUE(gg::supports_native_tasklets());
      break;
    case gg::Impl::qth:
      EXPECT_FALSE(gg::supports_stealing());
      EXPECT_FALSE(gg::supports_native_tasklets());
      break;
    case gg::Impl::mth:
      EXPECT_TRUE(gg::supports_stealing());
      EXPECT_FALSE(gg::supports_native_tasklets());
      break;
  }
}

TEST_P(GltBackend, FanOutFanInPattern) {
  // Map-reduce shape: N ULTs write disjoint slots; main reduces after join.
  constexpr int kN = 128;
  static std::vector<long long> slots;
  slots.assign(kN, 0);
  struct Arg {
    int idx;
  };
  static Arg args[kN];
  std::vector<gg::Ult*> us;
  for (int i = 0; i < kN; ++i) {
    args[i].idx = i;
    us.push_back(gg::ult_create(
        [](void* p) {
          const int i = static_cast<Arg*>(p)->idx;
          slots[static_cast<std::size_t>(i)] = 1LL * i * i;
        },
        &args[i]));
  }
  for (auto* u : us) gg::ult_join(u);
  long long sum = 0;
  for (auto v : slots) sum += v;
  long long expect = 0;
  for (int i = 0; i < kN; ++i) expect += 1LL * i * i;
  EXPECT_EQ(sum, expect);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltBackend,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

// One GLT_thread: nothing a test creates runs until main suspends, so the
// stack-pool counters show exactly when a ULT takes its stack.
class GltOneThread : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void SetUp() override {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 1;
    cfg.bind_threads = false;
    gg::init(cfg);
  }
  void TearDown() override { gg::finalize(); }
};

TEST_P(GltOneThread, QueuedUltHoldsNoStack) {
  // A queued ULT takes its stack at first dispatch, so creating a burst
  // maps and reuses no stacks. mth's ult_create runs the child at once
  // (work-first); its queued path is the help-first bulk create.
  constexpr int kN = 256;
  auto bump = [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); };
  std::atomic<int> ran{0};
  std::vector<void*> args(kN, &ran);
  std::vector<gg::Ult*> us(kN);
  auto& pool = glto::fctx::StackPool::global();
  const auto hits_before = pool.cache_hits();
  const auto mapped_before = pool.total_mapped();
  if (GetParam() == gg::Impl::mth) {
    gg::ult_create_bulk(bump, args.data(), kN, us.data(), /*spread=*/false);
  } else {
    for (int i = 0; i < kN; ++i) us[i] = gg::ult_create(bump, &ran);
  }
  EXPECT_EQ(ran.load(), 0) << "nothing runs before main suspends";
  EXPECT_EQ(pool.cache_hits(), hits_before) << "a queued ULT took a stack";
  EXPECT_EQ(pool.total_mapped(), mapped_before)
      << "a queued ULT mapped a stack";
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(ran.load(), kN);
  EXPECT_GT(pool.cache_hits(), hits_before)
      << "dispatched ULTs take recycled stacks from the worker's cache";
}

TEST_P(GltOneThread, JoinRunsTheUltItWaitsOn) {
  // Main joins A; A waits on an event that B, created after A, sets. The
  // join must give the only GLT_thread to A and B instead of polling.
  struct Ctx {
    gg::event ready;
    std::atomic<int> a_done{0};
    std::atomic<int> b_done{0};
  } ctx;
  gg::Ult* a = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->ready.wait();
        c->a_done.fetch_add(1);
      },
      &ctx);
  gg::Ult* b = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->b_done.fetch_add(1);
        c->ready.set();
      },
      &ctx);
  gg::ult_join(a);
  EXPECT_EQ(ctx.a_done.load(), 1);
  EXPECT_EQ(ctx.b_done.load(), 1);
  gg::ult_join(b);
  EXPECT_EQ(ctx.b_done.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltOneThread,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

// GLT_SHARED_QUEUES=1 conformance: the §IV-F shared-pool ablation must
// produce identical results on every backend now that qth and mth honour
// it through the shared scheduling core (previously abt-only).
class GltSharedQueues : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void SetUp() override {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 3;
    cfg.bind_threads = false;
    cfg.shared_queues = true;
    gg::init(cfg);
  }
  void TearDown() override { gg::finalize(); }
};

TEST_P(GltSharedQueues, ManyUltsAllRun) {
  constexpr int kN = 200;
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), kN);
}

TEST_P(GltSharedQueues, NestedCreateJoinInsideUlt) {
  std::atomic<int> total{0};
  auto* u = gg::ult_create(
      [](void* p) {
        std::vector<gg::Ult*> kids;
        for (int i = 0; i < 16; ++i) {
          kids.push_back(gg::ult_create(
              [](void* q) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
              p));
        }
        for (auto* k : kids) gg::ult_join(k);
        static_cast<std::atomic<int>*>(p)->fetch_add(100);
      },
      &total);
  gg::ult_join(u);
  EXPECT_EQ(total.load(), 116);
}

TEST_P(GltSharedQueues, UltsCanYieldAndFinish) {
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  for (int i = 0; i < 20; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          for (int k = 0; k < 5; ++k) gg::yield();
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), 20);
}

TEST_P(GltSharedQueues, TaskletsRunToo) {
  std::atomic<int> x{0};
  auto* t = gg::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  gg::tasklet_join(t);
  EXPECT_EQ(x.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltSharedQueues,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

// Worker placement: affinity-mask invariants only, no timing. An unbound
// runtime may move its threads once at start but must hand every thread
// back the mask it inherited, and finalize must leave the caller as init
// found it (a pinned caller would start every later runtime's workers
// inside one CPU).
namespace {

cpu_set_t self_mask() {
  cpu_set_t s;
  CPU_ZERO(&s);
  (void)pthread_getaffinity_np(pthread_self(), sizeof(s), &s);
  return s;
}

bool mask_eq(const cpu_set_t& a, const cpu_set_t& b) {
  return CPU_EQUAL(&a, &b) != 0;
}

}  // namespace

class GltAffinity : public ::testing::TestWithParam<gg::Impl> {
 protected:
  static constexpr int kThreads = 4;

  void SetUp() override {
    original_ = self_mask();
    if (CPU_COUNT(&original_) < 2) GTEST_SKIP() << "needs two CPUs";
  }
  void TearDown() override {
    if (gg::initialized()) gg::finalize();
    (void)pthread_setaffinity_np(pthread_self(), sizeof(original_),
                                 &original_);
  }

  void init(bool bind) {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = kThreads;
    cfg.bind_threads = bind;
    gg::init(cfg);
  }

  /// The mask each rank's OS thread holds, read by a ULT created on that
  /// rank (mth has no placement: its probes run wherever work-first and
  /// stealing put them, still one mask per running thread).
  static std::vector<cpu_set_t> probe_ranks() {
    struct Probe {
      cpu_set_t mask;
      int rank = -1;
    };
    std::vector<Probe> probes(kThreads);
    std::vector<gg::Ult*> us;
    for (int r = 0; r < kThreads; ++r) {
      us.push_back(gg::ult_create_to(
          r,
          [](void* p) {
            auto* pr = static_cast<Probe*>(p);
            pr->mask = self_mask();
            pr->rank = gg::thread_num();
          },
          &probes[static_cast<std::size_t>(r)]));
    }
    for (auto* u : us) gg::ult_join(u);
    std::vector<cpu_set_t> masks;
    for (int r = 0; r < kThreads; ++r) {
      const Probe& pr = probes[static_cast<std::size_t>(r)];
      if (!gg::supports_stealing()) {
        EXPECT_EQ(pr.rank, r);
      }
      masks.push_back(pr.mask);
    }
    return masks;
  }

  cpu_set_t original_;
};

TEST_P(GltAffinity, FinalizeRestoresCallerMask) {
  for (const bool bind : {false, true}) {
    const cpu_set_t before = self_mask();
    init(bind);
    (void)probe_ranks();
    gg::finalize();
    EXPECT_TRUE(mask_eq(self_mask(), before)) << "bind_threads=" << bind;
  }
}

TEST_P(GltAffinity, UnboundWorkersKeepInheritedMask) {
  init(/*bind=*/false);
  for (const cpu_set_t& m : probe_ranks()) {
    EXPECT_TRUE(mask_eq(m, original_));
  }
}

TEST_P(GltAffinity, UnboundWorkersStayInsideRestrictedMask) {
  // Drop the lowest CPU: ranks 0 and (kThreads mod count) would otherwise
  // land on it, and a mask widened to 0..ncpu-1 would include it again.
  cpu_set_t subset = original_;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &subset)) {
      CPU_CLR(cpu, &subset);
      break;
    }
  }
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(subset), &subset),
            0);
  init(/*bind=*/false);
  for (const cpu_set_t& m : probe_ranks()) {
    cpu_set_t inside;
    CPU_AND(&inside, &m, &subset);
    EXPECT_TRUE(mask_eq(inside, m)) << "worker mask escaped the subset";
    EXPECT_TRUE(mask_eq(m, subset));
  }
  gg::finalize();
  EXPECT_TRUE(mask_eq(self_mask(), subset));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltAffinity,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

TEST(GltConfig, ImplNameRoundTrip) {
  for (auto impl : {gg::Impl::abt, gg::Impl::qth, gg::Impl::mth}) {
    auto parsed = gg::impl_from_string(gg::impl_name(impl));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, impl);
  }
  EXPECT_FALSE(gg::impl_from_string("pthreads").has_value());
}

TEST(GltConfig, LongNamesAccepted) {
  EXPECT_EQ(*gg::impl_from_string("argobots"), gg::Impl::abt);
  EXPECT_EQ(*gg::impl_from_string("qthreads"), gg::Impl::qth);
  EXPECT_EQ(*gg::impl_from_string("massivethreads"), gg::Impl::mth);
}

TEST(GltConfig, EnvConfigParsing) {
  namespace env = glto::common;
  env::env_set("GLT_IMPL", "mth");
  env::env_set("GLT_NUM_THREADS", "5");
  env::env_set("GLT_SHARED_QUEUES", "1");
  auto cfg = gg::config_from_env();
  EXPECT_EQ(cfg.impl, gg::Impl::mth);
  EXPECT_EQ(cfg.num_threads, 5);
  EXPECT_TRUE(cfg.shared_queues);
  env::env_set("GLT_IMPL", nullptr);
  env::env_set("GLT_NUM_THREADS", nullptr);
  env::env_set("GLT_SHARED_QUEUES", nullptr);
  auto cfg2 = gg::config_from_env();
  EXPECT_EQ(cfg2.impl, gg::Impl::abt) << "abt is the default backend";
  EXPECT_EQ(cfg2.num_threads, 0);
  EXPECT_FALSE(cfg2.shared_queues);
}
