// Observability-layer tests: trace rings (overwrite-oldest, re-registration,
// concurrent emit from migrating ULTs), the Chrome trace-event exporter,
// latency-histogram percentile math, and the unified metrics registry.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/metrics.hpp"
#include "sched/trace.hpp"

namespace gs = glto::sched;
namespace gg = glto::glt;
namespace o = glto::omp;

namespace {

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// exporter writes well-formed JSON without pulling in a parser dependency
/// (CI additionally round-trips the file through python's json module).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return p_ == end_;
  }

 private:
  const char* p_;
  const char* end_;

  void ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end_ - p_) < n || std::strncmp(p_, s, n) != 0) return false;
    p_ += n;
    return true;
  }
  bool string() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') ++p_;
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    return p_ > start;
  }
  bool value() {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    ws();
    if (p_ < end_ && *p_ == '}') { ++p_; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (p_ >= end_ || *p_ != ':') return false;
      ++p_;
      ws();
      if (!value()) return false;
      ws();
      if (p_ < end_ && *p_ == ',') { ++p_; continue; }
      break;
    }
    if (p_ >= end_ || *p_ != '}') return false;
    ++p_;
    return true;
  }
  bool array() {
    ++p_;  // '['
    ws();
    if (p_ < end_ && *p_ == ']') { ++p_; return true; }
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (p_ < end_ && *p_ == ',') { ++p_; continue; }
      break;
    }
    if (p_ >= end_ || *p_ != ']') return false;
    ++p_;
    return true;
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Every trace test starts from a clean, disarmed global registry and
/// leaves it that way: the suite shares one process with backend tests.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { gs::trace_reset_for_testing(); }
  void TearDown() override {
    gs::trace_set_for_testing(false, nullptr, 0);
    gs::metrics_set_for_testing(false);
    gs::trace_reset_for_testing();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// TraceRing unit

TEST(TraceRing, OverwriteOldestKeepsNewestWindow) {
  gs::TraceRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.emit(gs::TraceKind::wake, /*ts_ns=*/i, /*arg=*/i * 10,
              /*aux=*/static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ring.head(), 20u);
  EXPECT_EQ(ring.capacity(), 8u);
  // The retained window is exactly the last `capacity` emits, in order.
  for (std::uint64_t i = 12; i < 20; ++i) {
    const gs::TraceEvent& e = ring.at(i);
    EXPECT_EQ(e.ts_ns, i);
    EXPECT_EQ(e.arg, i * 10);
    EXPECT_EQ(e.aux, i);
    EXPECT_EQ(e.kind, static_cast<std::uint16_t>(gs::TraceKind::wake));
  }
}

TEST(TraceRing, HeadStaysMonotonicAcrossWrap) {
  gs::TraceRing ring(16);
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t i = 0; i < 16; ++i) ring.emit(gs::TraceKind::park, i, i, 0);
  }
  EXPECT_EQ(ring.head(), 80u);
}

// ---------------------------------------------------------------------------
// Global emit path

TEST_F(TraceTest, GlobalPathCountsRecordedAndDropped) {
  gs::trace_set_for_testing(true, nullptr, /*ring_events=*/16);
  for (std::uint64_t i = 0; i < 40; ++i) {
    gs::trace_emit(gs::TraceKind::steal_success, i);
  }
  const gs::TraceRing* ring = gs::trace_current_ring();
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->head(), 40u);
  EXPECT_EQ(ring->capacity(), 16u);
  EXPECT_GE(gs::trace_events_recorded(), 40u);
  EXPECT_GE(gs::trace_events_dropped(), 24u);
  // Overwrite-oldest through the global path too: the window holds the
  // last 16 args.
  for (std::uint64_t i = 24; i < 40; ++i) EXPECT_EQ(ring->at(i).arg, i);
}

TEST_F(TraceTest, EmitWhileDisarmedRecordsNothing) {
  gs::trace_set_for_testing(false, nullptr, 16);
  gs::trace_emit(gs::TraceKind::wake, 1);
  EXPECT_EQ(gs::trace_current_ring(), nullptr);
  EXPECT_EQ(gs::trace_events_recorded(), 0u);
}

TEST_F(TraceTest, ThreadReregistersAfterReset) {
  gs::trace_set_for_testing(true, nullptr, 64);
  gs::trace_emit(gs::TraceKind::wake, 1);
  const gs::TraceRing* before = gs::trace_current_ring();
  ASSERT_NE(before, nullptr);

  gs::trace_reset_for_testing();
  EXPECT_EQ(gs::trace_current_ring(), nullptr);  // this thread's slot cleared
  gs::trace_set_for_testing(true, nullptr, 64);
  // A stale thread_local pointer must re-register, not dangle. (No pointer
  // comparison against `before`: the freed ring's storage may be reused.)
  gs::trace_emit(gs::TraceKind::wake, 2);
  const gs::TraceRing* after = gs::trace_current_ring();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->head(), 1u);
  EXPECT_EQ(gs::trace_events_recorded(), 1u);  // old ring's count discarded
  (void)before;
}

// ---------------------------------------------------------------------------
// Exporter

TEST_F(TraceTest, ExporterWritesParseableChromeJson) {
  const std::string path = "trace_test_export.json";
  gs::trace_set_for_testing(true, path.c_str(), 256);
  gs::trace_thread_label("test", 7);

  gs::trace_emit(gs::TraceKind::task_submit, 42, 1);
  gs::trace_emit(gs::TraceKind::task_start, 42);
  gs::trace_emit(gs::TraceKind::task_complete, 42, /*service us=*/5);
  gs::trace_emit(gs::TraceKind::park, 0, 200);
  gs::trace_emit(gs::TraceKind::unpark, 0, 1);
  gs::trace_emit(gs::TraceKind::steal_success, 2);
  gs::trace_emit(gs::TraceKind::chaos_fault, 0, 3);

  ASSERT_TRUE(gs::trace_flush());
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test-w7\""), std::string::npos);       // track label
  EXPECT_NE(json.find("\"task_submit\""), std::string::npos);   // instant
  EXPECT_NE(json.find("\"steal_success\""), std::string::npos);
  // park/unpark fuse into one "X" slice named park; task_complete renders
  // as an "X" slice named task carrying its service time as dur.
  EXPECT_NE(json.find("\"name\":\"park\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"task\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FlushWithoutPathReportsFailure) {
  gs::trace_set_for_testing(true, nullptr, 64);
  gs::trace_emit(gs::TraceKind::wake, 1);
  EXPECT_FALSE(gs::trace_flush());
}

TEST_F(TraceTest, DumpTailPrintsNewestEvents) {
  gs::trace_set_for_testing(true, nullptr, 32);
  for (std::uint64_t i = 0; i < 10; ++i) gs::trace_emit(gs::TraceKind::wake, i);
  const std::string path = "trace_test_tail.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  gs::trace_dump_tail(f, 4);
  std::fclose(f);
  const std::string out = slurp(path);
  EXPECT_NE(out.find("last 4 of 10"), std::string::npos) << out;
  EXPECT_EQ(count_occurrences(out, "wake"), 4u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Latency histogram math

TEST(LatencyHistogram, SmallValuesAreExact) {
  gs::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_ns(), 5u);
  EXPECT_EQ(h.percentile_ns(50), 5u);
  EXPECT_EQ(h.percentile_ns(99), 5u);
}

TEST(LatencyHistogram, PercentilesConservativeWithinOctaveError) {
  gs::LatencyHistogram h;
  // 1µs .. 1ms uniform: true p50 = 500µs, p99 = 990µs.
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i * 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max_ns(), 1000000u);

  const double p50 = static_cast<double>(h.percentile_ns(50));
  const double p99 = static_cast<double>(h.percentile_ns(99));
  // Estimates report bucket upper bounds: never below the true value,
  // never more than one sub-bucket (12.5%) above it.
  EXPECT_GE(p50, 500000.0);
  EXPECT_LE(p50, 500000.0 * 1.13);
  EXPECT_GE(p99, 990000.0);
  EXPECT_LE(p99, 990000.0 * 1.13);
  // p100 is the exact max, not a bucket bound.
  EXPECT_EQ(h.percentile_ns(100), 1000000u);
}

TEST(LatencyHistogram, HugeValuesClampWithoutCrashing) {
  gs::LatencyHistogram h;
  h.record(~std::uint64_t{0});  // way past the top octave
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile_ns(100), ~std::uint64_t{0});
}

TEST(LatencyHistogram, ResetClears) {
  gs::LatencyHistogram h;
  h.record(123456);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
}

// ---------------------------------------------------------------------------
// Profile hooks feed the global histograms

TEST_F(TraceTest, ProfileHooksRecordQueueAndServiceTime) {
  gs::metrics_set_for_testing(true);
  const std::uint64_t q0 = gs::queue_delay_hist().count();
  const std::uint64_t s0 = gs::service_time_hist().count();
  const std::uint64_t submit = gs::profile_task_submit(1);
  ASSERT_NE(submit, 0u);
  const std::uint64_t start = gs::profile_task_start(submit, 1);
  ASSERT_NE(start, 0u);
  gs::profile_task_complete(start, 1);
  EXPECT_EQ(gs::queue_delay_hist().count(), q0 + 1);
  EXPECT_EQ(gs::service_time_hist().count(), s0 + 1);
}

TEST_F(TraceTest, ProfileHooksNoOpWhenOff) {
  gs::metrics_set_for_testing(false);
  EXPECT_EQ(gs::profile_task_submit(1), 0u);
  EXPECT_EQ(gs::profile_task_start(0, 1), 0u);  // 0 propagates as no-op
  gs::profile_task_complete(0, 1);              // must not record
}

// ---------------------------------------------------------------------------
// Metrics registry

namespace {

struct FakeSubsystem {
  std::atomic<std::uint64_t> ctr{0};
  std::atomic<std::uint64_t> gauge{0};
};

void fake_provider(void* arg, gs::MetricsSnapshot& out) {
  auto* s = static_cast<FakeSubsystem*>(arg);
  out.add("test.ctr", s->ctr.load());
  out.add("test.gauge", s->gauge.load(), /*counter=*/false);
}

}  // namespace

TEST(Metrics, SnapshotDeltaAndClamp) {
  FakeSubsystem sub;
  const std::uint64_t token = gs::metrics_register_provider(fake_provider, &sub);

  sub.ctr = 10;
  sub.gauge = 42;
  gs::MetricsSnapshot base;
  gs::MetricsSnapshot d = gs::metrics_delta_since(base);
  EXPECT_EQ(d.value("test.ctr"), 10u);   // first delta = totals
  EXPECT_EQ(d.value("test.gauge"), 42u); // gauges pass through

  sub.ctr = 17;
  sub.gauge = 5;
  d = gs::metrics_delta_since(base);
  EXPECT_EQ(d.value("test.ctr"), 7u);
  EXPECT_EQ(d.value("test.gauge"), 5u);

  // A counter that goes backwards (runtime re-init) clamps to 0 instead of
  // wrapping to 2^64-ish garbage.
  sub.ctr = 2;
  d = gs::metrics_delta_since(base);
  EXPECT_EQ(d.value("test.ctr"), 0u);

  gs::metrics_unregister_provider(token);
  EXPECT_FALSE(gs::metrics_snapshot().has("test.ctr"));
}

TEST(Metrics, SameNamedCountersMergeAdd) {
  FakeSubsystem a, b;
  a.ctr = 3;
  b.ctr = 4;
  const std::uint64_t ta = gs::metrics_register_provider(fake_provider, &a);
  const std::uint64_t tb = gs::metrics_register_provider(fake_provider, &b);
  // Two providers reporting under one name (several DepEngines) accumulate.
  EXPECT_EQ(gs::metrics_snapshot().value("test.ctr"), 7u);
  gs::metrics_unregister_provider(ta);
  gs::metrics_unregister_provider(tb);
}

TEST(Metrics, BuiltinEntriesAlwaysPresent) {
  const gs::MetricsSnapshot s = gs::metrics_snapshot();
  EXPECT_TRUE(s.has("lat.queue_count"));
  EXPECT_TRUE(s.has("lat.service_p95_ns"));
  EXPECT_TRUE(s.has("trace.events_recorded"));
  EXPECT_TRUE(s.has("chaos.faults_injected"));
}

TEST(Metrics, DumpWritesOneLinePerEntry) {
  const std::string path = "metrics_test_dump.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  gs::metrics_dump(f);
  std::fclose(f);
  const std::string out = slurp(path);
  EXPECT_NE(out.find("lat.queue_count"), std::string::npos);
  EXPECT_NE(out.find("(gauge)"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Backend integration: metrics + concurrent emit from migrating ULTs,
// identical across the three GLT backends.

class TraceBackend : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void TearDown() override {
    if (o::selected()) o::shutdown();
    if (gg::initialized()) gg::finalize();
    gs::trace_set_for_testing(false, nullptr, 0);
    gs::metrics_set_for_testing(false);
    gs::trace_reset_for_testing();
  }

  void init_backend() {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 3;
    cfg.bind_threads = false;
    gg::init(cfg);
  }
};

// Every registry name docs/API.md lists, by owner. A misspelt name reads
// 0 in a perfbench per-layer table instead of failing, so presence is
// asserted here for each backend.
namespace {

constexpr const char* kSharedNames[] = {
    // sched::WsCore
    "sched.steals", "sched.failed_steals", "sched.parks", "sched.parked_us",
    "sched.wakes_issued", "sched.wakes_spurious", "sched.bulk_deposits",
    // fctx::StackPool
    "sched.stack_cache_hits",
    // glt facade
    "glt.ults_created", "glt.tasklets_created", "sched.suspensions",
    "sched.wakes_direct", "sched.timed_waits", "sched.timed_wait_timeouts",
    // taskdep::DepEngine
    "deps.registered", "deps.deferred", "deps.ready_hits",
    // omp facade
    "omp.task_inline", "omp.task_alloc",
    // registry built-ins
    "lat.queue_count", "lat.queue_p50_ns", "lat.queue_p95_ns",
    "lat.queue_p99_ns", "lat.queue_max_ns", "lat.service_count",
    "lat.service_p50_ns", "lat.service_p95_ns", "lat.service_p99_ns",
    "lat.service_max_ns", "trace.events_recorded", "trace.events_dropped",
    "chaos.faults_injected", "qos.completed", "qos.shed",
    "qos.deadline_missed", "qos.retried", "qos.degraded"};

std::vector<const char*> backend_names(gg::Impl impl) {
  switch (impl) {
    case gg::Impl::abt:
      return {"abt.ults_created", "abt.tasklets_created", "abt.yields"};
    case gg::Impl::qth:
      return {"qth.threads_created", "qth.feb_ops", "qth.feb_blocks"};
    case gg::Impl::mth:
      return {"mth.strands_created", "mth.main_migrations"};
  }
  return {};
}

}  // namespace

TEST_P(TraceBackend, RegistryPublishesEveryDocumentedName) {
  o::SelectOptions opts;
  opts.num_threads = 3;
  opts.bind_threads = false;
  o::select(GetParam() == gg::Impl::abt   ? o::RuntimeKind::glto_abt
            : GetParam() == gg::Impl::qth ? o::RuntimeKind::glto_qth
                                          : o::RuntimeKind::glto_mth,
            opts);
  std::atomic<int> ran{0};
  gg::ult_join(gg::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
      &ran));
  int v = 0;
  o::parallel([&](int, int) {
    o::single([&] {
      o::TaskFlags f;
      f.depend.push_back(o::dep_inout(&v));
      o::task([&v] { v = 1; }, f);
      o::taskwait();
    });
  });
  ASSERT_EQ(ran.load(), 1);
  ASSERT_EQ(v, 1);

  const gs::MetricsSnapshot s = gs::metrics_snapshot();
  for (const char* n : kSharedNames) EXPECT_TRUE(s.has(n)) << n;
  for (const char* n : backend_names(GetParam())) EXPECT_TRUE(s.has(n)) << n;
  EXPECT_GE(s.value("glt.ults_created"), 1u);
  EXPECT_GE(s.value("deps.registered"), 1u);
}

TEST_P(TraceBackend, ConcurrentEmitFromMigratingUlts) {
  // Arm record-only tracing with rings big enough that nothing drops, then
  // emit from ULTs that yield mid-flight: a ULT resumed on a different OS
  // thread must land its event in THAT thread's ring (the tls_now idiom —
  // the ring is re-resolved inside emit_slow, never cached across a
  // suspension point).
  gs::trace_set_for_testing(true, nullptr, 1u << 15);
  init_backend();

  constexpr int kN = 200;
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          gs::trace_emit(gs::TraceKind::cancel, 1);  // pre-switch
          gg::yield();
          gs::trace_emit(gs::TraceKind::cancel, 2);  // possibly migrated
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  ASSERT_EQ(count.load(), kN);
  gg::finalize();

  // Count conservation: every emit landed in some ring. No other source
  // emits `cancel` here, and the rings are far from wrapping.
  EXPECT_EQ(gs::trace_events_dropped(), 0u);
  const std::string path = "trace_test_migrate.json";
  ASSERT_TRUE(gs::trace_flush(path.c_str()));
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(count_occurrences(json, "\"name\":\"cancel\""),
            static_cast<std::size_t>(2 * kN));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TraceBackend,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const auto& info) {
                           return std::string(gg::impl_name(info.param));
                         });
