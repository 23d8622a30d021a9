#include "workloads.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/bqp.hpp"
#include "apps/cg.hpp"
#include "apps/clover.hpp"
#include "apps/qpserver.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/metrics.hpp"
#include "sched/qos.hpp"

namespace perfbench {

namespace {

namespace gc = glto::common;
namespace go = glto::omp;
namespace gs = glto::sched;
namespace cg = glto::apps::cg;
namespace bqp = glto::apps::bqp;
namespace clv = glto::apps::clover;
namespace qp = glto::apps::qpserver;

// ---- workload shapes (fixed by the benchmark definition) ----------------
constexpr int kCgRowsPerTask = 20;  ///< 744 tasks per op at 14,878 rows
constexpr int kCgIters = 30;        ///< iterations per timed CG solve
constexpr int kCgSolvesPerDag = 4;  ///< CG solves between two DAG solves
constexpr int kTasksCyclesPerTrial = 2;
constexpr int kDagN = 512, kDagTile = 16, kDagRank = 16;

constexpr int kCloverN = 256;
constexpr int kEpisodeSteps = 20;
constexpr int kEpisodesPerTrial = 20;

constexpr int kQpsConcurrency = 4;
constexpr int kQpsQueue = 64;
constexpr int kWarmRequests = 500;
constexpr int kClosedRequests = 2000;
constexpr double kLowRate = 2000.0;   ///< req/s, below capacity
constexpr int kLowRequests = 2000;    ///< one second of arrivals
constexpr double kHighRate = 6000.0;  ///< req/s, overload
constexpr int kHighRequests = 3000;   ///< half a second of arrivals
constexpr int kBudgetMs = 50;

/// Percentile of the per-op samples that tasks and loops report as op_ms
/// and batch_ms. On a host with bursty steal time (a shared KVM guest),
/// every fork/join or task op that overlaps a stolen vCPU stalls, so in a
/// run with 27% steal the median CG iteration read 2.8× its quiet value
/// while p10 read 1.3×. The shorter the op, the likelier a low percentile
/// finds windows with no vCPU stolen, which is why loops times single
/// steps. The median and the tail are printed beside it.
constexpr double kGatePct = 10.0;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(gc::now_ns() - t0) * 1e-9;
}

/// Peak resident set of this process image: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss is not used because Linux carries it across
/// execve, so it would report the launching process's peak whenever that
/// was larger (a Python launcher alone is ~18 MB).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void select_abt(int threads, bool active_wait) {
  go::SelectOptions opts;
  opts.num_threads = threads;
  opts.bind_threads = false;  // shared host: let the OS place the workers
  opts.active_wait = active_wait;
  go::select(go::RuntimeKind::glto_abt, opts);
}

/// Arms or disarms the traced half of a traced run: the span recorder and
/// the GLTO_METRICS latency histograms together.
void set_traced(Tracer& tr, bool on) {
  tr.set_enabled(on);
  gs::metrics_set_for_testing(on);
}

std::string note(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string note(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

/// "name median unit (p10, tail percentile, sample count)" — the
/// human-readable line of a timing metric. A p10 far below the median
/// marks a run disturbed by host interference.
std::string timing_note(const char* name, const Samples& s, const char* unit) {
  return note("%-18s %12.4f %-5s (median; p10 %.4f, p%.0f %.4f, n=%zu)", name,
              s.median(), unit, s.percentile(10), s.tail_pct(),
              s.percentile(s.tail_pct()), s.size());
}

/// Counter sum over every closed span named in @p names.
std::uint64_t span_sum(const Tracer& tr,
                       std::initializer_list<const char*> names,
                       const char* counter) {
  std::uint64_t t = 0;
  for (const char* n : names) t += tr.sum(n, counter);
  return t;
}

/// The per-layer metrics every workload reports from its traced op spans:
/// scheduler, sync-primitive and glt counters per op, the taskdep ratios
/// over the DAG spans, and the latency histograms. Absent layers report 0.
void layer_counter_metrics(const Tracer& tr,
                           std::initializer_list<const char*> op_spans,
                           double ops,
                           std::initializer_list<const char*> dag_spans,
                           std::vector<Metric>& out) {
  auto add = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  auto sum = [&](const char* c) {
    return static_cast<double>(span_sum(tr, op_spans, c));
  };
  auto per_op = [&](const char* c) { return safe_div(sum(c), ops); };
  const double steals = sum("sched.steals");
  const double issued = sum("sched.wakes_issued");
  add("sched.steals_per_op", per_op("sched.steals"), "count");
  add("sched.steal_success",
      safe_div(steals, steals + sum("sched.failed_steals")), "ratio");
  add("sched.parks_per_op", per_op("sched.parks"), "count");
  add("sched.parked_us_per_op", per_op("sched.parked_us"), "us");
  add("sched.wakes_issued_per_op", per_op("sched.wakes_issued"), "count");
  add("sched.wake_useful",
      issued > 0 ? 1.0 - sum("sched.wakes_spurious") / issued : 0.0, "ratio");
  add("sched.bulk_deposits_per_op", per_op("sched.bulk_deposits"), "count");

  add("sync.suspensions_per_op", per_op("sched.suspensions"), "count");
  add("sync.wakes_direct_per_op", per_op("sched.wakes_direct"), "count");
  add("sync.timed_waits_per_op", per_op("sched.timed_waits"), "count");
  add("sync.timed_timeout_ratio",
      safe_div(sum("sched.timed_wait_timeouts"), sum("sched.timed_waits")),
      "ratio");

  const double ults = sum("glt.ults_created");
  add("glt.ults_per_op", safe_div(ults, ops), "count");
  add("glt.stack_cache_hit_ratio",
      safe_div(sum("sched.stack_cache_hits"), ults), "ratio");

  auto dag = [&](const char* c) {
    return static_cast<double>(span_sum(tr, dag_spans, c));
  };
  const double dag_tasks = dag("omp.tasks_queued") + dag("omp.tasks_immediate");
  add("taskdep.registered_per_task",
      safe_div(dag("deps.registered"), dag_tasks), "count");
  add("taskdep.deferred_ratio", safe_div(dag("deps.deferred"), dag_tasks),
      "ratio");
  add("taskdep.ready_hit_ratio",
      safe_div(dag("deps.ready_hits"), dag("deps.deferred")), "ratio");

  const auto& q = gs::queue_delay_hist();
  const auto& sv = gs::service_time_hist();
  add("lat.queue_p50_ns", static_cast<double>(q.percentile_ns(50)), "ns");
  add("lat.queue_p99_ns", static_cast<double>(q.percentile_ns(99)), "ns");
  add("lat.service_p50_ns", static_cast<double>(sv.percentile_ns(50)), "ns");
  add("lat.service_p99_ns", static_cast<double>(sv.percentile_ns(99)), "ns");
}

/// QoS metrics of a workload without an open-loop phase.
void no_qos_metrics(std::vector<Metric>& out) {
  out.push_back({"qos.shed_ratio", 0.0, "ratio"});
  out.push_back({"qos.missed_ratio", 0.0, "ratio"});
  out.push_back({"qos.retries_per_offered", 0.0, "ratio"});
  out.push_back({"qps.gen_lag_ms", 0.0, "ms"});
}

void overhead_metric(const Samples& traced, const Samples& untraced,
                     std::vector<Metric>& out) {
  out.push_back({"trace.overhead_frac",
                 safe_div(traced.median(), untraced.median()) - 1.0, "ratio"});
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

// ---- tasks: CG + bqp DAG -------------------------------------------------

struct CgInput {
  cg::Csr a;
  std::vector<double> b;
  double b_norm = 0.0;
};

CgInput make_cg_input(std::uint64_t seed) {
  CgInput in;
  in.a = cg::make_spd_pentadiagonal(cg::kPaperRows);
  gc::SplitRng rng = gc::SplitRng(seed).split(1);
  in.b.resize(static_cast<std::size_t>(in.a.n));
  double s = 0.0;
  for (double& v : in.b) {
    v = 0.5 + rng.next_double();
    s += v * v;
  }
  in.b_norm = std::sqrt(s);
  return in;
}

/// One timed task-parallel CG solve; returns ms per iteration, or a
/// negative value when the output check fails. The check recomputes the
/// residual with the sequential SpMV: it must match the solver's
/// recurrence residual (a lost or doubled task breaks that; they agree to
/// ~1e-17·‖b‖ otherwise) and show the expected convergence (kCgIters = 30
/// leave about 2e-8·‖b‖ on the seeded inputs).
double cg_solve_checked(const CgInput& in, int iters) {
  std::vector<double> x;
  const std::int64_t t0 = gc::now_ns();
  const cg::Result r =
      cg::solve_tasks(in.a, in.b, x, iters, 0.0, kCgRowsPerTask);
  const double ms = static_cast<double>(gc::now_ns() - t0) * 1e-6;
  std::vector<double> ax(x.size());
  cg::spmv_seq(in.a, x, ax);
  double s = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double d = in.b[i] - ax[i];
    s += d * d;
  }
  const double res = std::sqrt(s);
  const bool ok = r.iterations == iters && res < 1e-6 * in.b_norm &&
                  std::fabs(res - r.residual_norm) < 1e-9 * in.b_norm;
  return ok ? ms / iters : -1.0;
}

/// One timed DAG solve: @p solve_ms gets its wall time; returns ms per IPM
/// iteration (one factor-and-solve DAG), or negative when the result is
/// not converged, has a bqp::kkt_residual of 1e-8 or more, or differs
/// from the sequential reference iterate by 1e-6 or more.
double dag_solve_checked(const bqp::Problem& p, const bqp::Result& ref,
                         double* solve_ms) {
  const std::int64_t t0 = gc::now_ns();
  const bqp::Result r = bqp::solve(p, bqp::Mode::taskdep);
  *solve_ms = static_cast<double>(gc::now_ns() - t0) * 1e-6;
  const bool ok = r.converged && r.iters > 0 &&
                  bqp::kkt_residual(p, r.x, r.zl, r.zu) < 1e-8 &&
                  max_abs_diff(r.x, ref.x) < 1e-6;
  return ok ? *solve_ms / r.iters : -1.0;
}

// ---- loops: CloverLeaf episodes -------------------------------------------

clv::Config clover_config() {
  clv::Config c;
  c.nx = kCloverN;
  c.ny = kCloverN;
  return c;
}

/// One episode from a fresh init_state(); returns ms per step, or negative
/// when mass is not conserved or a field went non-finite. @p regions gets
/// the parallel-for regions the episode issued; @p step_ms, when given,
/// gets each step's own wall time.
double clover_episode_checked(clv::Clover& sim, Tracer& tr,
                              std::int64_t* regions,
                              std::vector<double>* step_ms = nullptr) {
  {
    SpanScope s(tr, "clover.init_state", "apps");
    sim.init_state();
  }
  const double m0 = sim.total_mass();
  double ms = 0.0;
  {
    SpanScope s(tr, "clover.run", "apps");
    for (int k = 0; k < kEpisodeSteps; ++k) {
      const std::int64_t t0 = gc::now_ns();
      sim.step();
      const double one = static_cast<double>(gc::now_ns() - t0) * 1e-6;
      ms += one;
      if (step_ms != nullptr) step_ms->push_back(one);
    }
  }
  *regions = sim.regions_issued();
  const bool ok =
      std::fabs(sim.total_mass() - m0) <= 1e-9 * m0 && sim.all_finite();
  return ok ? ms / kEpisodeSteps : -1.0;
}

/// Drives a run as a sequence of independent trials until the run's time
/// is spent (at least kMinTrials). Every trial starts a fresh runtime
/// instance and times its own set-up, so set-up is sampled once per trial
/// and a runtime that settles into a slow or fast regime is one sample of
/// many, not the whole run. In a traced run every odd trial is traced and
/// the even ones measure the untraced baseline for trace.overhead_frac.
class Trials {
 public:
  static constexpr int kMinTrials = 2;

  Trials(const Options& opt, Tracer& tr)
      : opt_(opt),
        tr_(tr),
        end_ns_(gc::now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9)) {
    gs::queue_delay_hist().reset();
    gs::service_time_hist().reset();
  }

  bool next() {
    if (k_ >= kMinTrials && gc::now_ns() >= end_ns_) {
      if (opt_.trace) set_traced(tr_, true);
      return false;
    }
    traced_ = opt_.trace && k_ % 2 == 1;
    if (opt_.trace) set_traced(tr_, traced_);
    ++k_;
    return true;
  }
  [[nodiscard]] bool traced() const { return traced_; }
  /// Seed of this trial's generated instance: each trial draws a fresh
  /// problem from the run seed, so a run's median spans several instances
  /// (IPM iteration counts differ between instances by up to a third).
  [[nodiscard]] std::uint64_t seed() const {
    return gc::SplitRng(opt_.seed).split(static_cast<std::uint64_t>(k_)).next();
  }

 private:
  const Options& opt_;
  Tracer& tr_;
  std::int64_t end_ns_;
  int k_ = 0;
  bool traced_ = false;
};

/// Tallies one checked op: a negative sample is a failed output check.
void tally(RunReport& rep, double v, Samples& into) {
  ++rep.attempted;
  if (v < 0) {
    ++rep.failed;
  } else {
    into.add(v);
  }
}

/// fail_frac of a workload whose only failures are output checks.
void check_fail_note(RunReport& rep) {
  rep.notes.push_back(note("%-18s %12.4f ratio (%llu failed / %llu checks)",
                           "fail_frac",
                           safe_div(static_cast<double>(rep.failed),
                                    static_cast<double>(rep.attempted)),
                           static_cast<unsigned long long>(rep.failed),
                           static_cast<unsigned long long>(rep.attempted)));
}

void common_metrics(RunReport& rep, const Samples& setup) {
  rep.notes.push_back(timing_note("setup_s", setup, "s"));
  rep.notes.push_back(note("%-18s %12.4f MB", "peak_rss_mb", peak_rss_mb()));
  rep.metrics.push_back({"setup_s", setup.median(), "s"});
  rep.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

}  // namespace

RunReport run_tasks(const Options& opt, Tracer& tr) {
  RunReport rep;
  Samples setup, cg_ms, cg_traced, dag_ms, dag_iter_ms;
  SpanScope root(tr, "workload.tasks", "bench");
  for (Trials t(opt, tr); t.next();) {
    SpanScope trial(tr, "trial", "bench");
    // The sequential reference iterate this trial's DAG results must match
    // (untimed: it is part of the check, not of the set-up).
    bqp::Result ref;
    {
      SpanScope s(tr, "bqp.solve.sequential", "apps");
      ref = bqp::solve(bqp::make_problem(kDagN, kDagTile, kDagRank, t.seed()),
                       bqp::Mode::sequential);
    }
    ++rep.attempted;
    if (!ref.converged) ++rep.failed;
    CgInput in;
    bqp::Problem prob;
    {
      SpanScope s(tr, "setup", "bench");
      const std::int64_t t0 = gc::now_ns();
      select_abt(kThreads, /*active_wait=*/false);
      in = make_cg_input(opt.seed);
      prob = bqp::make_problem(kDagN, kDagTile, kDagRank, t.seed());
      std::vector<double> x;
      (void)cg::solve_tasks(in.a, in.b, x, 3, 0.0, kCgRowsPerTask);
      (void)bqp::solve(prob, bqp::Mode::taskdep);
      setup.add(seconds_since(t0));
    }
    for (int cycle = 0; cycle < kTasksCyclesPerTrial; ++cycle) {
      for (int k = 0; k < kCgSolvesPerDag; ++k) {
        SpanScope s(tr, "cg.solve_tasks", "apps");
        tally(rep, cg_solve_checked(in, kCgIters),
              t.traced() ? cg_traced : cg_ms);
      }
      SpanScope s(tr, "bqp.solve.taskdep", "apps");
      double solve_ms = 0.0;
      const double v = dag_solve_checked(prob, ref, &solve_ms);
      tally(rep, v, dag_iter_ms);
      if (v > 0) dag_ms.add(solve_ms);
    }
    go::shutdown();
  }

  if (opt.trace) {
    const auto ops = {"cg.solve_tasks", "bqp.solve.taskdep"};
    const double tasks =
        static_cast<double>(span_sum(tr, ops, "omp.tasks_queued") +
                            span_sum(tr, ops, "omp.tasks_immediate"));
    layer_counter_metrics(tr, ops, tasks, {"bqp.solve.taskdep"}, rep.metrics);
    no_qos_metrics(rep.metrics);
    overhead_metric(cg_traced, cg_ms, rep.metrics);
    return rep;
  }
  rep.notes.push_back(timing_note("cg_iter_ms", cg_ms, "ms"));
  rep.notes.push_back(timing_note("dag_solve_ms", dag_ms, "ms"));
  rep.notes.push_back(timing_note("dag_iter_ms", dag_iter_ms, "ms"));
  check_fail_note(rep);
  common_metrics(rep, setup);
  rep.metrics.push_back({"op_ms", cg_ms.percentile(kGatePct), "ms"});
  rep.metrics.push_back({"batch_ms", dag_iter_ms.percentile(kGatePct), "ms"});
  return rep;
}

RunReport run_loops(const Options& opt, Tracer& tr) {
  RunReport rep;
  Samples setup, step_ms, step_traced, episode_ms, single_step_ms;
  std::int64_t regions_traced = 0;
  SpanScope root(tr, "workload.loops", "bench");
  for (Trials t(opt, tr); t.next();) {
    SpanScope trial(tr, "trial", "bench");
    std::unique_ptr<clv::Clover> sim;
    {
      SpanScope s(tr, "setup", "bench");
      const std::int64_t t0 = gc::now_ns();
      select_abt(kThreads, /*active_wait=*/true);
      sim = std::make_unique<clv::Clover>(clover_config());
      sim->init_state();
      sim->run(2);
      setup.add(seconds_since(t0));
    }
    for (int ep = 0; ep < kEpisodesPerTrial; ++ep) {
      std::int64_t regions = 0;
      const std::int64_t t0 = gc::now_ns();
      std::vector<double> steps;
      const double v = clover_episode_checked(*sim, tr, &regions, &steps);
      tally(rep, v, t.traced() ? step_traced : step_ms);
      if (v > 0) {
        episode_ms.add(static_cast<double>(gc::now_ns() - t0) * 1e-6);
        for (double one : steps) single_step_ms.add(one);
      }
      if (t.traced()) regions_traced += regions;
    }
    sim.reset();
    go::shutdown();
  }

  if (opt.trace) {
    layer_counter_metrics(tr, {"clover.init_state", "clover.run"},
                          static_cast<double>(regions_traced), {}, rep.metrics);
    no_qos_metrics(rep.metrics);
    overhead_metric(step_traced, step_ms, rep.metrics);
    return rep;
  }
  rep.notes.push_back(timing_note("clover_step_ms", step_ms, "ms"));
  rep.notes.push_back(timing_note("step_ms", single_step_ms, "ms"));
  rep.notes.push_back(timing_note("episode_ms", episode_ms, "ms"));
  check_fail_note(rep);
  common_metrics(rep, setup);
  rep.metrics.push_back({"op_ms", single_step_ms.percentile(kGatePct), "ms"});
  rep.metrics.push_back({"batch_ms", episode_ms.percentile(kGatePct), "ms"});
  return rep;
}

namespace {

qp::Config qps_config(std::uint64_t seed) {
  qp::Config c;  // default request shape: n=48, tile 16, rank 4, 40 iters
  c.concurrency = kQpsConcurrency;
  c.queue_depth = kQpsQueue;
  c.seed = seed;
  return c;
}

/// Accounting identity every qpserver run must satisfy.
bool accounted(const qp::Report& r) {
  return r.completed + r.shed + r.deadline_missed == r.offered;
}

}  // namespace

RunReport run_qps(const Options& opt, Tracer& tr) {
  RunReport rep;
  Samples setup, capacity, batch_ms, batch_traced;
  Samples p50_us, p99_us, goodput, lag_ms;
  std::uint64_t offered_open = 0, failed_open = 0;
  std::uint64_t ops_traced = 0, open_traced = 0;
  std::uint64_t qos_traced[3] = {0, 0, 0};  // shed, missed, retried
  SpanScope root(tr, "workload.qps", "bench");
  for (Trials t(opt, tr); t.next();) {
    SpanScope trial(tr, "trial", "bench");
    const qp::Config base = qps_config(t.seed());
    {
      SpanScope s(tr, "setup", "bench");
      const std::int64_t t0 = gc::now_ns();
      glto::glt::Config g;
      g.impl = glto::glt::Impl::abt;
      g.num_threads = kThreads;
      g.bind_threads = false;
      glto::glt::init(g);
      qp::Config warm = base;
      warm.requests = kWarmRequests;
      (void)qp::run(warm);
      setup.add(seconds_since(t0));
    }
    // Closed loop: capacity.
    qp::Config closed = base;
    closed.requests = kClosedRequests;
    qp::Report c;
    {
      SpanScope s(tr, "qpserver.run.closed", "apps");
      c = qp::run(closed);
    }
    ++rep.attempted;
    if (t.traced()) ops_traced += c.offered;
    if (!accounted(c) || c.not_converged != 0 || c.completed != c.offered) {
      ++rep.failed;
    } else {
      capacity.add(c.goodput_rps);
      (t.traced() ? batch_traced : batch_ms).add(c.elapsed_s * 1e3);
    }
    // Open loops at fixed absolute rates with a 50 ms budget, degrade off.
    const std::uint64_t q0[3] = {gs::qos_shed_total(),
                                 gs::qos_deadline_missed(), gs::qos_retried()};
    for (int phase = 0; phase < 2; ++phase) {
      qp::Config o = base;
      o.arrival_rps = phase == 0 ? kLowRate : kHighRate;
      o.requests = phase == 0 ? kLowRequests : kHighRequests;
      o.deadline_ms = kBudgetMs;
      o.degrade = false;
      qp::Report r;
      {
        SpanScope s(tr,
                    phase == 0 ? "qpserver.run.open_low"
                               : "qpserver.run.open_high",
                    "apps");
        r = qp::run(o);
      }
      ++rep.attempted;
      if (!accounted(r)) {
        ++rep.failed;
        continue;
      }
      offered_open += r.offered;
      failed_open += r.shed + r.deadline_missed;
      if (t.traced()) {
        ops_traced += r.offered;
        open_traced += r.offered;
      }
      if (phase == 0) {
        p50_us.add(static_cast<double>(r.p50_us));
        p99_us.add(static_cast<double>(r.p99_us));
        // The last arrival is due (requests - 1) gaps after the first.
        lag_ms.add((r.elapsed_s - (o.requests - 1) / o.arrival_rps) * 1e3);
      } else {
        goodput.add(r.goodput_rps);
      }
    }
    if (t.traced()) {
      qos_traced[0] += gs::qos_shed_total() - q0[0];
      qos_traced[1] += gs::qos_deadline_missed() - q0[1];
      qos_traced[2] += gs::qos_retried() - q0[2];
    }
    glto::glt::finalize();
  }

  const double fail_frac = safe_div(static_cast<double>(failed_open),
                                    static_cast<double>(offered_open));
  if (opt.trace) {
    layer_counter_metrics(tr,
                          {"qpserver.run.closed", "qpserver.run.open_low",
                           "qpserver.run.open_high"},
                          static_cast<double>(ops_traced), {}, rep.metrics);
    const double ot = static_cast<double>(open_traced);
    auto ratio = [&](const char* name, std::uint64_t n) {
      rep.metrics.push_back(
          {name, safe_div(static_cast<double>(n), ot), "ratio"});
    };
    ratio("qos.shed_ratio", qos_traced[0]);
    ratio("qos.missed_ratio", qos_traced[1]);
    ratio("qos.retries_per_offered", qos_traced[2]);
    rep.metrics.push_back({"qps.gen_lag_ms", lag_ms.median(), "ms"});
    overhead_metric(batch_traced, batch_ms, rep.metrics);
    return rep;
  }
  // Samples are one per trial; the latency samples are each trial's
  // Report percentile over its 2000 requests at 2000 req/s.
  rep.notes.push_back(timing_note("qps_capacity_rps", capacity, "req/s"));
  rep.notes.push_back(timing_note("qps_batch_ms", batch_ms, "ms"));
  rep.notes.push_back(timing_note("qps_p50_us", p50_us, "us"));
  rep.notes.push_back(timing_note("qps_p99_us", p99_us, "us"));
  rep.notes.push_back(timing_note("qps_goodput_rps", goodput, "req/s"));
  rep.notes.push_back(note("%-18s %12.4f ratio (shed+missed %llu / %llu)",
                           "fail_frac", fail_frac,
                           static_cast<unsigned long long>(failed_open),
                           static_cast<unsigned long long>(offered_open)));
  rep.notes.push_back(timing_note("gen_lag_ms", lag_ms, "ms"));
  common_metrics(rep, setup);
  // Each trial's p50 is a histogram bucket bound (steps of about 8% here),
  // so the median over trials repeats exactly from run to run; the
  // interquartile mean keeps the figure continuous.
  rep.metrics.push_back({"op_ms", p50_us.interquartile_mean() * 1e-3, "ms"});
  rep.metrics.push_back({"batch_ms", batch_ms.median(), "ms"});
  return rep;
}

bool run_single_thread_refs(const Options& opt, Tracer& tr,
                            std::vector<Metric>& out) {
  bool ok = true;
  SpanScope root(tr, "ref.single_thread", "bench");
  select_abt(1, /*active_wait=*/false);
  {
    const CgInput in = make_cg_input(opt.seed);
    Samples ms;
    for (int r = 0; r < 5; ++r) {
      SpanScope s(tr, "cg.solve_tasks", "apps");
      const double v = cg_solve_checked(in, kCgIters);
      ok = ok && v > 0;
      ms.add(v);
    }
    out.push_back({"ref.cg_iter_ms_1t", ms.median(), "ms"});
  }
  go::shutdown();
  select_abt(1, /*active_wait=*/true);
  {
    clv::Clover sim(clover_config());
    Samples ms;
    std::int64_t regions = 0;
    for (int r = 0; r < 3; ++r) {
      const double v = clover_episode_checked(sim, tr, &regions);
      ok = ok && v > 0;
      ms.add(v);
    }
    out.push_back({"ref.clover_step_ms_1t", ms.median(), "ms"});
  }
  go::shutdown();
  return ok;
}

}  // namespace perfbench
