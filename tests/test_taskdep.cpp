// Task-dependency engine (`depend` clauses) across all five runtimes:
// in→in parallelism, out→in ordering, inout chains, overlapping ranges,
// deps across taskyield, deps under GLT_SHARED_QUEUES=1, the kmpc ABI
// entry point, the group-scoped taskgroup regression, and a randomized
// 2k-task DAG checked against a sequential replay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "omp/kmp_abi.hpp"
#include "omp/omp.hpp"
#include "sched/chaos.hpp"
#include "sched/metrics.hpp"

namespace o = glto::omp;

namespace {

/// Bounded cross-task handshake: yields through the runtime (so
/// cooperative backends and help-first pthread runtimes progress) until
/// @p flag is set; false on timeout. Never assert-hangs a test.
bool await_flag(const std::atomic<bool>& flag, int ms = 10000) {
  const auto start = std::chrono::steady_clock::now();
  while (!flag.load(std::memory_order_acquire)) {
    o::taskyield();
    if (std::chrono::steady_clock::now() - start >
        std::chrono::milliseconds(ms)) {
      return false;
    }
  }
  return true;
}

/// Runs @p body in a single/producer region — the §IV-D pattern every
/// dependent-task workload here uses.
void producer(const std::function<void()>& body) {
  o::parallel([&](int, int) {
    o::single([&] {
      body();
      o::taskwait();
    });
  });
}

}  // namespace

class TaskDep : public ::testing::TestWithParam<o::RuntimeKind> {
 protected:
  void SetUp() override {
    o::SelectOptions opts;
    opts.num_threads = 4;
    opts.bind_threads = false;
    opts.active_wait = false;
    o::select(GetParam(), opts);
  }
  void TearDown() override { o::shutdown(); }
};

TEST_P(TaskDep, OutThenInOrdering) {
  int x = 0;
  std::atomic<bool> writer_done{false};
  std::atomic<int> readers_ok{0};
  producer([&] {
    o::TaskFlags wf;
    wf.depend.push_back(o::dep_out(&x));
    o::task(
        [&] {
          for (int i = 0; i < 20; ++i) o::taskyield();
          x = 42;
          writer_done.store(true, std::memory_order_release);
        },
        wf);
    for (int r = 0; r < 2; ++r) {
      o::TaskFlags rf;
      rf.depend.push_back(o::dep_in(&x));
      o::task(
          [&] {
            if (writer_done.load(std::memory_order_acquire) && x == 42) {
              readers_ok.fetch_add(1);
            }
          },
          rf);
    }
  });
  EXPECT_EQ(readers_ok.load(), 2) << "a reader started before the writer "
                                     "finished (out→in edge missing)";
}

TEST_P(TaskDep, InInRunConcurrently) {
  if (glto::sched::chaos_enabled()) {
    // Chaos spawn failure runs a ready task INLINE on the producer (the
    // documented degradation): the pair is then legitimately serialized,
    // and the first body's gate on the not-yet-submitted second task
    // would spin out its timeout. Overlap holds only for real spawns.
    GTEST_SKIP() << "concurrency overlap is waived under chaos";
  }
  int x = 7;
  std::atomic<bool> a_started{false}, b_started{false};
  std::atomic<bool> ok{true};
  producer([&] {
    o::TaskFlags rf;
    rf.depend.push_back(o::dep_in(&x));
    o::task(
        [&] {
          a_started.store(true, std::memory_order_release);
          if (!await_flag(b_started)) ok.store(false);
        },
        rf);
    o::task(
        [&] {
          b_started.store(true, std::memory_order_release);
          if (!await_flag(a_started)) ok.store(false);
        },
        rf);
  });
  EXPECT_TRUE(ok.load()) << "two `in` readers were serialized — they must "
                            "be able to overlap";
}

TEST_P(TaskDep, InoutChainRunsInSubmissionOrder) {
  int v = 0;
  std::vector<int> order;  // written under dep-serialization, no lock
  producer([&] {
    for (int t = 0; t < 8; ++t) {
      o::TaskFlags f;
      f.depend.push_back(o::dep_inout(&v));
      o::task([&order, t] { order.push_back(t); }, f);
    }
  });
  ASSERT_EQ(order.size(), 8u);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(order[static_cast<size_t>(t)], t);
}

TEST_P(TaskDep, OverlappingRangesConflict) {
  alignas(64) double buf[16] = {};
  std::atomic<bool> writer_done{false};
  std::atomic<bool> reader_saw{false};
  producer([&] {
    o::TaskFlags wf;
    wf.depend.push_back(o::dep_out(&buf[0], 8 * sizeof(double)));
    o::task(
        [&] {
          for (int i = 0; i < 10; ++i) o::taskyield();
          writer_done.store(true, std::memory_order_release);
        },
        wf);
    // [7, 9) overlaps the writer's [0, 8) byte range — must be ordered
    // even though the base addresses differ.
    o::TaskFlags rf;
    rf.depend.push_back(o::dep_in(&buf[7], 2 * sizeof(double)));
    o::task(
        [&] {
          reader_saw.store(writer_done.load(std::memory_order_acquire));
        },
        rf);
  });
  EXPECT_TRUE(reader_saw.load());
}

TEST_P(TaskDep, DisjointRangesRunConcurrently) {
  if (glto::sched::chaos_enabled()) {
    // Same waiver as InInRunConcurrently: inline-degraded spawns
    // legitimately serialize the would-be-concurrent pair.
    GTEST_SKIP() << "concurrency overlap is waived under chaos";
  }
  alignas(64) double buf[16] = {};
  std::atomic<bool> a_started{false}, b_started{false};
  std::atomic<bool> ok{true};
  producer([&] {
    o::TaskFlags af;
    af.depend.push_back(o::dep_out(&buf[0], 8 * sizeof(double)));
    o::task(
        [&] {
          a_started.store(true, std::memory_order_release);
          if (!await_flag(b_started)) ok.store(false);
        },
        af);
    // Second 64-byte chunk: no overlap, no edge.
    o::TaskFlags bf;
    bf.depend.push_back(o::dep_out(&buf[8], 8 * sizeof(double)));
    o::task(
        [&] {
          b_started.store(true, std::memory_order_release);
          if (!await_flag(a_started)) ok.store(false);
        },
        bf);
  });
  EXPECT_TRUE(ok.load()) << "writers to disjoint ranges were serialized";
}

TEST_P(TaskDep, DepsHoldAcrossTaskyield) {
  int x = 0;
  std::atomic<bool> successor_early{false};
  producer([&] {
    o::TaskFlags wf;
    wf.depend.push_back(o::dep_out(&x));
    o::task(
        [&] {
          x = 1;
          o::taskyield();  // suspension points must not release successors
          o::taskyield();
          x = 7;
        },
        wf);
    o::TaskFlags rf;
    rf.depend.push_back(o::dep_in(&x));
    o::task([&] { successor_early.store(x != 7); }, rf);
  });
  EXPECT_FALSE(successor_early.load())
      << "successor observed the writer mid-execution (released at a "
         "yield instead of completion)";
}

TEST_P(TaskDep, UndeferredTaskWaitsForDeps) {
  int x = 0;
  producer([&] {
    o::TaskFlags wf;
    wf.depend.push_back(o::dep_out(&x));
    o::task(
        [&] {
          for (int i = 0; i < 10; ++i) o::taskyield();
          x = 11;
        },
        wf);
    // if(false): executes inline, but only after the writer completes.
    o::TaskFlags uf;
    uf.if_clause = false;
    uf.depend.push_back(o::dep_in(&x));
    int seen = -1;
    o::task([&] { seen = x; }, uf);
    EXPECT_EQ(seen, 11);
  });
}

TEST_P(TaskDep, UndeferredTaskReleasesDepsBeforeChildJoin) {
  int x = 0;
  std::atomic<bool> child_ran{false};
  producer([&] {
    // Inline (if(false)) depend task whose child reads the parent's own
    // dep object: dependences scope per creating task (dep domains), so
    // the child matches nothing and runs freely — the parent's inline
    // child-join must still terminate with the parent's node open.
    o::TaskFlags uf;
    uf.if_clause = false;
    uf.depend.push_back(o::dep_out(&x));
    o::task(
        [&] {
          o::TaskFlags cf;
          cf.depend.push_back(o::dep_in(&x));
          o::task([&] { child_ran.store(true); }, cf);
        },
        uf);
  });
  EXPECT_TRUE(child_ran.load());
}

TEST_P(TaskDep, CrossScopeChildDepPlusTaskwaitDoesNotDeadlock) {
  // The documented cross-scope hazard, verbatim: a deferred depend task
  // whose body creates a child naming the parent's OWN dep object and then
  // taskwaits. Under a process-global dependence namespace the child is
  // withheld until the parent completes while the parent's taskwait blocks
  // on the child — a hard hang (this test timed out before dep domains).
  // With per-creating-task domains the child has no predecessor and the
  // taskwait joins it normally.
  int anchor = 0;
  std::atomic<bool> child_ran{false};
  std::atomic<bool> child_done_at_taskwait{false};
  producer([&] {
    o::TaskFlags pf;
    pf.depend.push_back(o::dep_inout(&anchor));
    o::task(
        [&] {
          o::TaskFlags cf;
          cf.depend.push_back(o::dep_in(&anchor));
          o::task([&] { child_ran.store(true); }, cf);
          o::taskwait();
          child_done_at_taskwait.store(child_ran.load());
        },
        pf);
  });
  EXPECT_TRUE(child_ran.load());
  EXPECT_TRUE(child_done_at_taskwait.load())
      << "taskwait returned without the dependent child";
}

TEST_P(TaskDep, SiblingDepsStillOrderInsideOneTask) {
  // Domains must not weaken ordering *within* one creating task: an
  // out→in pair created by the same depend-task body keeps its edge.
  int anchor = 0, inner = 0;
  std::atomic<bool> ordered{false};
  producer([&] {
    o::TaskFlags pf;
    pf.depend.push_back(o::dep_inout(&anchor));
    o::task(
        [&] {
          std::atomic<bool> writer_done{false};
          o::TaskFlags wf;
          wf.depend.push_back(o::dep_out(&inner));
          o::task(
              [&] {
                for (int i = 0; i < 10; ++i) o::taskyield();
                writer_done.store(true, std::memory_order_release);
              },
              wf);
          o::TaskFlags rf;
          rf.depend.push_back(o::dep_in(&inner));
          o::task(
              [&] {
                ordered.store(writer_done.load(std::memory_order_acquire));
              },
              rf);
          o::taskwait();
        },
        pf);
  });
  EXPECT_TRUE(ordered.load())
      << "sibling out→in edge lost inside a depend-task body";
}

TEST_P(TaskDep, DepCountersCountDeferAndWakeups) {
  if (glto::sched::chaos_enabled()) {
    // An injected spawn failure runs the chain head INLINE on the
    // producer (the documented degradation), which both breaks the
    // hold-until-submitted handshake below and legitimately skips the
    // defer accounting this test asserts.
    GTEST_SKIP() << "defer accounting is bypassed by chaos inline spawns";
  }
  glto::sched::MetricsSnapshot base = glto::sched::metrics_snapshot();
  int v = 0;
  std::atomic<bool> all_submitted{false};
  std::atomic<bool> submit_seen_late{false};
  producer([&] {
    o::TaskFlags f;
    f.depend.push_back(o::dep_inout(&v));
    o::task(
        [&] {
          // Hold the chain head until the tail is submitted so the
          // successors are provably deferred.
          if (!await_flag(all_submitted)) submit_seen_late.store(true);
        },
        f);
    o::task([] {}, f);
    o::task([] {}, f);
    all_submitted.store(true, std::memory_order_release);
  });
  ASSERT_FALSE(submit_seen_late.load());
  const auto d = glto::sched::metrics_delta_since(base);
  EXPECT_EQ(d.value("deps.registered"), 3u);
  EXPECT_GE(d.value("deps.deferred"), 2u);
  EXPECT_GE(d.value("deps.ready_hits"), 2u);
}

TEST_P(TaskDep, TaskgroupInDependTaskWaitsOnlyItsChildren) {
  // The group-scoped wait must return without waiting for a sibling
  // created before the group: the sibling here blocks on a flag that is
  // only set strictly after taskgroup_end, so a taskwait-shaped taskgroup
  // (join ALL children) deadlocks in this shape (test timeout).
  int anchor = 0;
  std::atomic<bool> release_sibling{false};
  std::atomic<bool> sibling_done{false};
  std::atomic<bool> group_child_done_at_end{false};
  producer([&] {
    o::TaskFlags df;
    df.depend.push_back(o::dep_inout(&anchor));
    o::task(
        [&] {
          o::task([&] {
            await_flag(release_sibling);
            sibling_done.store(true);
          });
          std::atomic<bool> child_done{false};
          o::taskgroup([&] { o::task([&] { child_done.store(true); }); });
          group_child_done_at_end.store(child_done.load());
          release_sibling.store(true, std::memory_order_release);
        },
        df);
  });
  EXPECT_TRUE(group_child_done_at_end.load())
      << "taskgroup returned before its own child finished";
  EXPECT_TRUE(sibling_done.load());
}

// ---- randomized DAG stress vs sequential replay -------------------------

namespace {

struct StressOp {
  int var[3];
  glto::taskdep::DepKind kind[3];
  int ndeps;
};

std::vector<StressOp> make_stress_ops(int ntasks, int nvars,
                                      std::uint64_t seed) {
  std::vector<StressOp> ops(static_cast<size_t>(ntasks));
  glto::common::FastRng rng(seed);
  for (auto& op : ops) {
    op.ndeps = 1 + static_cast<int>(rng.next() % 3);
    for (int d = 0; d < op.ndeps; ++d) {
      op.var[d] = static_cast<int>(rng.next() % static_cast<unsigned>(nvars));
      switch (rng.next() % 3) {
        case 0:
          op.kind[d] = glto::taskdep::DepKind::in;
          break;
        case 1:
          op.kind[d] = glto::taskdep::DepKind::out;
          break;
        default:
          op.kind[d] = glto::taskdep::DepKind::inout;
          break;
      }
    }
  }
  return ops;
}

/// The task body: reads sum (order-independent), writes are an
/// order-sensitive LCG step — any serialization mistake shows up in the
/// final variable values or a read sum.
void stress_body(const StressOp& op, int t, std::uint64_t* vars,
                 std::uint64_t* result) {
  std::uint64_t acc = 0;
  for (int d = 0; d < op.ndeps; ++d) {
    if (op.kind[d] == glto::taskdep::DepKind::in) acc += vars[op.var[d]];
  }
  *result = acc;
  for (int d = 0; d < op.ndeps; ++d) {
    if (op.kind[d] != glto::taskdep::DepKind::in) {
      vars[op.var[d]] = vars[op.var[d]] * 6364136223846793005ULL +
                        static_cast<std::uint64_t>(t + 1);
    }
  }
}

}  // namespace

TEST_P(TaskDep, RandomizedDagMatchesSequentialReplay) {
  constexpr int kTasks = 2000;
  constexpr int kVars = 16;
  const auto ops = make_stress_ops(kTasks, kVars, 0xDA6DA6);

  // Sequential replay: submission order is a legal serialization of the
  // DAG, and reads are order-independent among concurrent readers.
  alignas(64) std::uint64_t ref_vars[kVars] = {};
  std::vector<std::uint64_t> ref_results(kTasks, 0);
  for (int t = 0; t < kTasks; ++t) {
    stress_body(ops[static_cast<size_t>(t)], t, ref_vars,
                &ref_results[static_cast<size_t>(t)]);
  }

  alignas(64) std::uint64_t vars[kVars] = {};
  std::vector<std::uint64_t> results(kTasks, 0);
  producer([&] {
    for (int t = 0; t < kTasks; ++t) {
      const StressOp& op = ops[static_cast<size_t>(t)];
      o::TaskFlags f;
      for (int d = 0; d < op.ndeps; ++d) {
        f.depend.push_back({&vars[op.var[d]], sizeof(std::uint64_t),
                            op.kind[d]});
      }
      std::uint64_t* result = &results[static_cast<size_t>(t)];
      o::task([&op, t, &vars, result] { stress_body(op, t, vars, result); },
              f);
    }
  });

  for (int v = 0; v < kVars; ++v) EXPECT_EQ(vars[v], ref_vars[v]) << v;
  int bad_reads = 0;
  for (int t = 0; t < kTasks; ++t) {
    if (results[static_cast<size_t>(t)] !=
        ref_results[static_cast<size_t>(t)]) {
      ++bad_reads;
    }
  }
  EXPECT_EQ(bad_reads, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, TaskDep,
    ::testing::Values(o::RuntimeKind::gnu, o::RuntimeKind::intel,
                      o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                      o::RuntimeKind::glto_mth),
    [](const ::testing::TestParamInfo<o::RuntimeKind>& info) {
      std::string name = o::kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- GLT_SHARED_QUEUES and the kmpc ABI (not runtime-parameterized) -----

TEST(TaskDepSharedQueues, ChainAndFanoutUnderSharedPool) {
  o::SelectOptions opts;
  opts.num_threads = 4;
  opts.bind_threads = false;
  opts.shared_queues = true;  // GLT_SHARED_QUEUES=1 analog
  o::select(o::RuntimeKind::glto_abt, opts);
  int v = 0;
  std::vector<int> order;
  std::atomic<int> readers_ok{0};
  producer([&] {
    for (int t = 0; t < 6; ++t) {
      o::TaskFlags f;
      f.depend.push_back(o::dep_inout(&v));
      o::task([&order, t] { order.push_back(t); }, f);
    }
    o::TaskFlags rf;
    rf.depend.push_back(o::dep_in(&v));
    for (int r = 0; r < 3; ++r) {
      o::task([&] { readers_ok.fetch_add(order.size() == 6 ? 1 : 0); }, rf);
    }
  });
  ASSERT_EQ(order.size(), 6u);
  for (int t = 0; t < 6; ++t) EXPECT_EQ(order[static_cast<size_t>(t)], t);
  EXPECT_EQ(readers_ok.load(), 3);
  o::shutdown();
}

namespace {

int g_abi_value = 0;
std::atomic<int> g_abi_reader_saw{-1};

void abi_writer(void*) {
  for (int i = 0; i < 10; ++i) glto_kmpc_omp_taskyield();
  g_abi_value = 99;
}

void abi_reader(void*) { g_abi_reader_saw.store(g_abi_value); }

void abi_micro(std::int32_t, std::int32_t, void*) {
  if (glto_kmpc_single() != 0) {
    glto_kmpc_depend_info wd{&g_abi_value, sizeof(g_abi_value), 0x2};
    glto_kmpc_omp_task_with_deps(abi_writer, nullptr, 1, &wd);
    glto_kmpc_depend_info rd{&g_abi_value, sizeof(g_abi_value), 0x1};
    glto_kmpc_taskgroup();
    glto_kmpc_omp_task_with_deps(abi_reader, nullptr, 1, &rd);
    glto_kmpc_end_taskgroup();
    glto_kmpc_end_single();
  }
  glto_kmpc_barrier();
}

}  // namespace

TEST(TaskDepKmpAbi, TaskWithDepsOrdersThroughTheAbi) {
  o::SelectOptions opts;
  opts.num_threads = 4;
  opts.bind_threads = false;
  o::select(o::RuntimeKind::glto_abt, opts);
  g_abi_value = 0;
  g_abi_reader_saw.store(-1);
  glto_kmpc_fork_call(abi_micro, nullptr);
  EXPECT_EQ(g_abi_reader_saw.load(), 99);
  o::shutdown();
}
