// Ablation — task-dependency DAG vs taskwait-barrier scheduling (the
// taskdep subsystem's headline measurement).
//
// Workload: the blocked box-QP solver's two kernels (src/apps/bqp):
//  * chol  — one blocked Cholesky factor + forward/backward solve over a
//            seeded SPD matrix. In `dag` mode the whole pipeline is one
//            barrier-free `depend` DAG; in `barrier` mode the identical
//            tile kernels are fenced with taskwait after every step —
//            the only expression the facade allowed before the engine.
//  * bqp   — the full interior-point solve (≈12 factorizations plus
//            vector updates), the end-to-end shape of a real-time QP.
//
// The DAG schedule wins two ways: independent tiles of *different* sweep
// steps overlap (trailing-update tasks of step k run while step k+1's
// panel starts), and the producer never stalls at step boundaries, so
// work-stealing deques stay fed. Rows are emitted as JSONL via
// $GLTO_BENCH_JSON (CI records BENCH_taskdep.json).
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/bqp.hpp"
#include "bench_common.hpp"
#include "sched/metrics.hpp"

namespace o = glto::omp;
namespace b = glto::bench;
namespace q = glto::apps::bqp;

namespace {

struct ModeRow {
  q::Mode mode;
  const char* label;
};

constexpr ModeRow kModes[] = {{q::Mode::taskwait, "glto-barrier"},
                              {q::Mode::taskdep, "glto-dag"}};

}  // namespace

int main() {
  int failures = 0;
  const int reps = b::reps(5);
  const int chol_n = static_cast<int>(256 * b::scale());
  const int chol_tile = 16;
  const int bqp_n = static_cast<int>(128 * b::scale());
  const int bqp_tile = 16;

  std::printf("Ablation: depend-task DAG vs taskwait barriers "
              "(glto-abt, blocked Cholesky %d/%d + box-QP IPM %d/%d)\n",
              chol_n, chol_tile, bqp_n, bqp_tile);

  std::vector<double> A0, rhs;
  q::make_spd(chol_n, 0xC401, A0, rhs);
  std::vector<double> A(A0.size());
  std::vector<double> x(static_cast<std::size_t>(chol_n));

  b::print_header("taskdep: blocked Cholesky factor+solve (s)");
  for (const ModeRow& m : kModes) {
    for (int nth : b::thread_sweep()) {
      b::select_runtime(o::RuntimeKind::glto_abt, nth,
                        /*active_wait=*/false);
      auto run = [&] {
        std::memcpy(A.data(), A0.data(), A0.size() * sizeof(double));
        q::factor_solve_inplace(A.data(), x.data(), rhs.data(), chol_n,
                                chol_tile, m.mode);
      };
      run();  // warm-up (freelists, stack caches, dep-hash buckets)
      const auto st = b::time_runs(reps, run);
      b::print_row(m.label, nth, st);
      // Self-check every cell: a timing row for a wrong answer is worse
      // than no row.
      const double cell_resid = q::residual_inf(A0, x, rhs, chol_n);
      if (!(cell_resid < 1e-8)) {
        std::printf("    FAIL residual_inf=%.3e (%s, %d threads)\n",
                    cell_resid, m.label, nth);
        ++failures;
      }
      if (m.mode == q::Mode::taskdep) {
        const auto ms = glto::sched::metrics_snapshot();
        std::printf("    deps_registered=%llu deps_deferred=%llu "
                    "dag_ready_hits=%llu\n",
                    static_cast<unsigned long long>(ms.value("deps.registered")),
                    static_cast<unsigned long long>(ms.value("deps.deferred")),
                    static_cast<unsigned long long>(ms.value("deps.ready_hits")));
      }
      o::shutdown();
    }
  }

  const q::Problem p = q::make_problem(bqp_n, bqp_tile, 16, 0xB0B);
  b::print_header("taskdep: blocked box-QP IPM solve (s)");
  for (const ModeRow& m : kModes) {
    for (int nth : b::thread_sweep()) {
      b::select_runtime(o::RuntimeKind::glto_abt, nth,
                        /*active_wait=*/false);
      double kkt = 0.0;
      auto run = [&] { kkt = q::solve(p, m.mode).kkt; };
      run();
      const auto st = b::time_runs(reps, run);
      b::print_row(m.label, nth, st);
      std::printf("    kkt=%.3e%s\n", kkt, kkt < 1e-8 ? "" : " FAIL");
      if (!(kkt < 1e-8)) ++failures;
      o::shutdown();
    }
  }

  std::printf("expected: glto-dag ≤ glto-barrier from 2 threads up "
              "(barrier idling eliminated; deps wake successors onto the "
              "work-stealing deques)\n");
  if (failures > 0) {
    std::printf("SELF-CHECK FAILED: %d cell(s) produced wrong answers\n",
                failures);
    return 1;
  }
  return 0;
}
