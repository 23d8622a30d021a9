// Work-sharing loop bookkeeping shared by the runtime implementations
// (glto_runtime.cpp and pomp_runtime.cpp). Not part of the public facade.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/debug.hpp"
#include "omp/runtime.hpp"

namespace glto::omp::detail {

/// One loop instance shared by a team.
struct LoopSlot {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t chunk = 0;
  Schedule sched = Schedule::Static;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::uint64_t> ready_seq{0};  ///< seq + 1 of the instance here
  /// loop_end calls over every instance this slot has held. Instance k of
  /// the slot is retired by the whole team once it reaches (k + 1) × size.
  std::atomic<std::uint64_t> retired{0};
};

/// One member's position in its team's loop ring: the next loop instance
/// it begins, the active instance's slot, and its static chunk cursor.
struct LoopCursor {
  std::uint64_t seq = 0;
  LoopSlot* slot = nullptr;
  std::int64_t static_k = 0;
};

/// The team's ring of concurrently open loop instances: `nowait` lets a
/// member run up to kSlots loops ahead of the slowest one. Loop `seq`
/// lives in slot `seq % kSlots`; the first member to reach it initialises
/// the slot, but only after every member has left the slot's previous
/// instance — otherwise a member lagging kSlots loops behind would run
/// another loop's range under its own body.
class LoopRing {
 public:
  static constexpr int kSlots = 8;

  /// Enters the caller's next loop over [lo, hi). @p relax is called while
  /// the caller waits (for the slot to be retired, or for another member
  /// to publish the instance) and must let the other members run.
  template <class Relax>
  void begin(LoopCursor& c, int team_size, std::int64_t lo, std::int64_t hi,
             Schedule sched, std::int64_t chunk, Relax&& relax) {
    const std::uint64_t seq = c.seq++;
    LoopSlot& d = slots_[seq % kSlots];
    std::uint64_t expected = seq;
    if (inited_.compare_exchange_strong(expected, seq + 1,
                                        std::memory_order_acq_rel)) {
      const std::uint64_t prior_ends =
          seq / kSlots * static_cast<std::uint64_t>(team_size);
      while (d.retired.load(std::memory_order_acquire) < prior_ends) relax();
      d.lo = lo;
      d.hi = hi;
      d.sched = sched;
      d.chunk = chunk;
      d.next.store(lo, std::memory_order_relaxed);
      d.ready_seq.store(seq + 1, std::memory_order_release);
    } else {
      while (d.ready_seq.load(std::memory_order_acquire) != seq + 1) relax();
    }
    c.slot = &d;
    c.static_k = 0;
  }

  /// Grants member @p tid of a @p team_size team its next chunk of the
  /// active loop as [*lo, *hi); false when the member's share is done.
  static bool next(LoopCursor& c, int tid, int team_size, std::int64_t* lo,
                   std::int64_t* hi) {
    LoopSlot* d = c.slot;
    GLTO_CHECK_MSG(d != nullptr, "loop_next outside a loop construct");
    const std::int64_t n = d->hi - d->lo;
    if (n <= 0) return false;
    const int p = team_size;
    switch (d->sched) {
      case Schedule::Auto:
      case Schedule::Runtime:  // resolved by the facade; fall back safely
      case Schedule::Static: {
        if (d->chunk <= 0) {
          // One balanced block per member.
          if (c.static_k > 0) return false;
          const std::int64_t base = n / p, rem = n % p;
          const std::int64_t b =
              d->lo + tid * base + std::min<std::int64_t>(tid, rem);
          const std::int64_t e = b + base + (tid < rem ? 1 : 0);
          if (b >= e) return false;
          *lo = b;
          *hi = e;
          c.static_k = 1;
          return true;
        }
        // Round-robin chunks: tid, tid+p, tid+2p, ...
        const std::int64_t idx = tid + c.static_k * p;
        const std::int64_t b = d->lo + idx * d->chunk;
        if (b >= d->hi) return false;
        *lo = b;
        *hi = std::min(d->hi, b + d->chunk);
        c.static_k++;
        return true;
      }
      case Schedule::Dynamic: {
        const std::int64_t step = d->chunk > 0 ? d->chunk : 1;
        const std::int64_t b =
            d->next.fetch_add(step, std::memory_order_relaxed);
        if (b >= d->hi) return false;
        *lo = b;
        *hi = std::min(d->hi, b + step);
        return true;
      }
      case Schedule::Guided: {
        const std::int64_t min_chunk = d->chunk > 0 ? d->chunk : 1;
        std::int64_t b = d->next.load(std::memory_order_relaxed);
        for (;;) {
          if (b >= d->hi) return false;
          const std::int64_t remaining = d->hi - b;
          const std::int64_t take =
              std::max<std::int64_t>(min_chunk, remaining / (2 * p));
          if (d->next.compare_exchange_weak(b, b + take,
                                            std::memory_order_relaxed)) {
            *lo = b;
            *hi = std::min(d->hi, b + take);
            return true;
          }
        }
      }
    }
    return false;
  }

  /// Leaves the active loop: the caller's last read of its slot is done.
  static void end(LoopCursor& c) {
    if (c.slot == nullptr) return;
    c.slot->retired.fetch_add(1, std::memory_order_acq_rel);
    c.slot = nullptr;
  }

 private:
  LoopSlot slots_[kSlots];
  std::atomic<std::uint64_t> inited_{0};  ///< loop instances initialised
};

}  // namespace glto::omp::detail
