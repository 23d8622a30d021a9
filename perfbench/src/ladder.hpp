// The layer ladder: one microbenchmark per layer primitive, each a median
// over a few repetitions, called through the layer's public functions.
// Runs in the traced run only, after the workload, under its own runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Appends the ladder metrics (fctx/sched/sync/glt/glto/omp/taskdep/apps
/// ns- and µs-per-op cells) to @p out; every cell is wrapped in a span.
/// Returns false if a ladder cell's own result check failed.
bool run_ladder(Tracer& tr, std::uint64_t seed, std::vector<Metric>& out);

}  // namespace perfbench
