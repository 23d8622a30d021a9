// The three benchmark workloads. Each runs its set-up, measures for
// opt.seconds, checks every output, and fills a RunReport: end-to-end
// metrics when opt.trace is off, per-layer metrics when it is on.
#pragma once

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Task-parallel CG (744 tasks per op, single producer) and the bqp IPM
/// as one depend DAG, alternated.
RunReport run_tasks(const Options& opt, Tracer& tr);

/// CloverLeaf-mini 256², 114 parallel-for regions per step, in
/// fixed-length episodes from a fresh init_state().
RunReport run_loops(const Options& opt, Tracer& tr);

/// qpserver on abt at concurrency 4: closed loop, then open loops at
/// 2000 and 6000 req/s with a 50 ms budget, repeated in rounds.
RunReport run_qps(const Options& opt, Tracer& tr);

/// 1-thread reference cells of the traced run: ms per CG iteration and
/// per Clover step at one GLT thread (the "4 threads slower than 1" bar).
/// Returns false if a reference run failed its output check.
bool run_single_thread_refs(const Options& opt, Tracer& tr,
                            std::vector<Metric>& out);

}  // namespace perfbench
