// Blocked box-QP IPM (src/apps/bqp): the sequential Woodbury reference
// converges to KKT < 1e-8, the blocked-Cholesky micro-driver is exact,
// and the depend-task and taskwait-barrier tiled-Cholesky schedules
// reproduce the sequential result across all five runtimes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "apps/bqp.hpp"
#include "omp/omp.hpp"
#include "sched/metrics.hpp"

namespace o = glto::omp;
namespace q = glto::apps::bqp;

namespace {

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

struct Shape {
  int n, tile, rank;
};

/// Solve shapes: the qpserver request (48/16/4), a multi-tile DAG with a
/// wider low-rank term, a rank-1 update over eight tiles, and a low-rank
/// term wider than the problem (rank > n) where VᵀV is singular and only
/// the capacitance matrix's identity keeps the Woodbury step definite.
constexpr Shape kShapes[] = {{48, 16, 4}, {64, 16, 8}, {128, 16, 1},
                             {32, 16, 40}};
constexpr int kSeeds = 10;

std::uint64_t seed_of(int s) { return 0xB09 + 0x9E37ull * s; }

}  // namespace

TEST(Bqp, SequentialSolveConverges) {
  for (const Shape& sh : kShapes) {
    for (int s = 0; s < kSeeds; ++s) {
      SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " rank="
                                        << sh.rank << " seed=" << s);
      const q::Problem p = q::make_problem(sh.n, sh.tile, sh.rank, seed_of(s));
      const q::Result r = q::solve(p, q::Mode::sequential);
      EXPECT_TRUE(r.converged) << "iters=" << r.iters << " kkt=" << r.kkt;
      EXPECT_LT(r.kkt, 1e-8);
      // The box was built tight enough that some bounds are active: at an
      // active bound the multiplier is strictly positive.
      int active = 0;
      for (int i = 0; i < p.n; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        if (r.zl[ii] > 1e-4 || r.zu[ii] > 1e-4) ++active;
      }
      EXPECT_GT(active, 0) << "instance degenerated to an unconstrained QP";
    }
  }
}

TEST(Bqp, SequentialCholeskyRoundtripIsExact) {
  std::vector<double> A, b;
  q::make_spd(64, 0x5EED, A, b);
  std::vector<double> Af = A, x(64);
  q::factor_solve_inplace(Af.data(), x.data(), b.data(), 64, 16,
                          q::Mode::sequential);
  EXPECT_LT(q::residual_inf(A, x, b, 64), 1e-8);
}

class BqpSched : public ::testing::TestWithParam<o::RuntimeKind> {
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

TEST_P(BqpSched, TaskdepCholeskyMatchesSequential) {
  std::vector<double> A, b;
  q::make_spd(64, 0xC0DE, A, b);
  std::vector<double> Af = A, x(64);
  q::factor_solve_inplace(Af.data(), x.data(), b.data(), 64, 16,
                          q::Mode::taskdep);
  EXPECT_LT(q::residual_inf(A, x, b, 64), 1e-8);
  EXPECT_GT(glto::sched::metrics_snapshot().value("deps.registered"), 0u);
}

TEST_P(BqpSched, DagScheduledSolveMatchesSequential) {
  // The sequential Woodbury step and the tiled-Cholesky DAG solve the
  // same Newton system, so they take the same path to the same optimum.
  for (const Shape& sh : kShapes) {
    for (int s = 0; s < kSeeds; ++s) {
      SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " rank="
                                        << sh.rank << " seed=" << s);
      const q::Problem p = q::make_problem(sh.n, sh.tile, sh.rank, seed_of(s));
      const q::Result ref = q::solve(p, q::Mode::sequential);
      ASSERT_TRUE(ref.converged);
      EXPECT_LT(ref.kkt, 1e-8);

      for (const q::Mode m : {q::Mode::taskdep, q::Mode::taskwait}) {
        SCOPED_TRACE(q::mode_name(m));
        const q::Result dag = q::solve(p, m);
        EXPECT_TRUE(dag.converged);
        EXPECT_LT(dag.kkt, 1e-8);
        EXPECT_LE(std::abs(ref.iters - dag.iters), 1);
        EXPECT_LT(max_abs_diff(dag.x, ref.x), 1e-6);
        EXPECT_LT(max_abs_diff(dag.zl, ref.zl), 1e-6);
        EXPECT_LT(max_abs_diff(dag.zu, ref.zu), 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, BqpSched,
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
