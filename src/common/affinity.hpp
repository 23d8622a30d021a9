// CPU affinity helpers.
//
// The paper binds OS threads to cores (OMP_PROC_BIND=true, GLT_threads
// "bound to CPU cores"). Binding is best-effort: in constrained containers
// (or when fewer cores exist than threads) failures are silently ignored,
// mirroring the round-robin oversubscribed placement of the original study.
//
// Unbound runtimes (bind_threads = false) are still *placed* once: each
// worker starts on its own CPU of the mask it inherited and then gets that
// mask back. Left alone, the kernel can keep every worker of a fresh
// runtime on one CPU for the runtime's whole life.
#pragma once

#include <sched.h>

namespace glto::common {

/// Number of CPUs available to this process.
int hardware_concurrency();

/// The calling thread's affinity mask, captured so it can be put back.
struct SavedMask {
  cpu_set_t set;
  bool ok = false;  ///< false when the mask could not be read
};

[[nodiscard]] SavedMask save_self_mask();

/// Restores a mask from save_self_mask() (no-op when it was not read).
void restore_self_mask(const SavedMask& m);

/// Places the calling OS thread as worker @p rank. @p pin binds it to
/// core rank % ncpu for good. Otherwise the thread moves to the rank-th
/// CPU (mod count) of its current mask, and that mask is restored: the
/// thread starts on a CPU of its own but stays free to migrate, and a
/// taskset/cpuset restriction is never widened. Best-effort.
void place_self(int rank, bool pin);

}  // namespace glto::common
