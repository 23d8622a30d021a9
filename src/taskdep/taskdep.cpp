#include "taskdep/taskdep.hpp"

#include <algorithm>
#include <vector>

#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"
#include "sched/metrics.hpp"
#include "sched/trace.hpp"
#include "sched/watchdog.hpp"

namespace glto::taskdep {

namespace {

/// Dependency cells cover 64-byte chunks of the address space: ranges that
/// overlap share at least one chunk, so overlap is detected without an
/// interval index. 64 bytes matches the cache line — the natural "one
/// object" granularity for dep handles.
constexpr int kChunkShift = 6;

/// Bucket occupancy that triggers the retired-cell sweep.
constexpr std::size_t kGcWatermark = 16;

}  // namespace

/// One registered task. Reference-counted: the creator holds one reference
/// until complete(); each cell naming the node (writer/reader slot) and
/// each predecessor's successor list holds another.
struct TaskNode {
  void* payload = nullptr;
  /// Release counter: predecessor edges + one registration guard. The
  /// transition to zero (guard removal in submit, or a predecessor's
  /// complete) makes the task runnable exactly once.
  std::atomic<std::int64_t> waits{1};
  std::atomic<int> refs{1};
  std::atomic<bool> completed{false};
  common::SpinLock lock;               ///< guards successors + completion
  std::vector<TaskNode*> successors GLTO_GUARDED_BY(lock);  ///< entries hold refs
};

namespace {

/// Access history of one address chunk within one dep domain: the last
/// writer and the readers admitted since. Writer/reader slots hold node
/// references. Identical addresses in different domains occupy distinct
/// cells — sibling scoping falls out of the cell key.
struct Cell {
  std::uintptr_t chunk = 0;
  std::uintptr_t domain = 0;
  TaskNode* last_writer = nullptr;
  std::vector<TaskNode*> readers;
};

bool node_retired(const TaskNode* n) {
  return n == nullptr || n->completed.load(std::memory_order_acquire);
}

}  // namespace

struct DepEngine::Bucket {
  common::SpinLock lock;
  std::vector<Cell> cells GLTO_GUARDED_BY(lock);
  /// Occupancy that triggers the next retired-cell sweep. Re-armed after
  /// every sweep to twice the cells that *survived*, so a bucket full of
  /// live (un-retired) cells — a wide in-flight DAG — doubles before it
  /// pays another scan instead of re-scanning on every registration.
  std::size_t gc_at GLTO_GUARDED_BY(lock) = kGcWatermark;
};

DepEngine::DepEngine(ReadyFn on_ready, int hash_bits) : on_ready_(on_ready) {
  GLTO_CHECK_MSG(on_ready != nullptr, "DepEngine needs a ready callback");
  int bits = hash_bits > 0
                 ? hash_bits
                 : static_cast<int>(
                       common::env_i64("GLTO_TASKDEP_HASH_BITS", 10));
  bits = std::max(4, std::min(bits, 20));
  hash_bits_ = bits;
  nbuckets_ = std::size_t{1} << bits;
  buckets_ = new Bucket[nbuckets_];
  // Every live engine reports under the same names; the registry merges
  // same-named counters by addition (runtimes may hold several engines).
  metrics_token_ = sched::metrics_register_provider(
      [](void* arg, sched::MetricsSnapshot& out) {
        const auto* e = static_cast<const DepEngine*>(arg);
        out.add("deps.registered",
                e->deps_registered_.load(std::memory_order_relaxed));
        out.add("deps.deferred",
                e->deps_deferred_.load(std::memory_order_relaxed));
        out.add("deps.ready_hits",
                e->dag_ready_hits_.load(std::memory_order_relaxed));
      },
      this);
}

DepEngine::~DepEngine() {
  sched::metrics_unregister_provider(metrics_token_);
  for (std::size_t i = 0; i < nbuckets_; ++i) {
    for (Cell& cell : buckets_[i].cells) {
      if (cell.last_writer != nullptr) unref(cell.last_writer);
      for (TaskNode* r : cell.readers) unref(r);
    }
  }
  delete[] buckets_;
}

void DepEngine::ref(TaskNode* n) {
  n->refs.fetch_add(1, std::memory_order_relaxed);
}

void DepEngine::unref(TaskNode* n) {
  if (n->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete n;
}

/// Adds pred → succ. Self-edges are skipped (a task with in+out clauses on
/// one range must not wait for itself); completed predecessors add
/// nothing. Lock order is bucket → node, and complete() takes only the
/// node lock, so there is no cycle.
void DepEngine::add_edge(TaskNode* pred, TaskNode* succ) {
  if (pred == succ) return;
  common::SpinGuard g(pred->lock);
  if (pred->completed.load(std::memory_order_relaxed)) return;
  succ->waits.fetch_add(1, std::memory_order_relaxed);
  ref(succ);
  pred->successors.push_back(succ);
}

DepEngine::Submit DepEngine::submit(void* payload, const Dep* deps,
                                    std::size_t ndeps,
                                    std::uintptr_t domain) {
  auto* node = new TaskNode();
  node->payload = payload;
  deps_registered_.fetch_add(ndeps, std::memory_order_relaxed);
  sched::trace_emit(sched::TraceKind::dep_register,
                    reinterpret_cast<std::uintptr_t>(node),
                    static_cast<std::uint32_t>(ndeps));
  sched::watchdog_add_pending(1);

  // One registration at a time: a task's clauses span several chunks, and
  // two concurrent submitters interleaving per-chunk updates could each
  // become the other's predecessor on different chunks — a cycle neither
  // release ever breaks. Serializing submissions makes every edge point
  // from an earlier-submitted task to a later one (acyclic by
  // construction); complete() never takes this lock, so wake-ups stay
  // concurrent. The producer pattern submits from one context anyway.
  common::SpinGuard submit_guard(submit_lock_);

  for (std::size_t d = 0; d < ndeps; ++d) {
    const Dep& dep = deps[d];
    const auto base = reinterpret_cast<std::uintptr_t>(dep.addr);
    const std::uintptr_t size = dep.size > 0 ? dep.size : 1;
    const std::uintptr_t first = base >> kChunkShift;
    const std::uintptr_t last = (base + size - 1) >> kChunkShift;
    for (std::uintptr_t chunk = first; chunk <= last; ++chunk) {
      // The domain participates in the hash so one domain's wide DAG
      // cannot crowd every other domain out of its buckets.
      Bucket& b =
          buckets_[common::mix64(chunk ^ common::mix64(domain)) &
                   (nbuckets_ - 1)];
      common::SpinGuard g(b.lock);
      // Retire cells whose entire history has completed (keeps buckets
      // from growing without bound across the iterations of a
      // long-running solver), then find or create this chunk's cell. A
      // fully retired cell carries no ordering information: every edge
      // its occupants could induce is already satisfied. The sweep is
      // amortized — it only runs once the bucket has grown past the
      // re-armed watermark (see Bucket::gc_at), so registration stays
      // O(bucket occupancy) instead of paying the reader-scan on every
      // clause even when nothing is retirable.
      if (b.cells.size() >= b.gc_at) {
        for (std::size_t i = 0; i < b.cells.size();) {
          Cell& c = b.cells[i];
          const bool readers_done =
              std::all_of(c.readers.begin(), c.readers.end(), node_retired);
          if (node_retired(c.last_writer) && readers_done) {
            if (c.last_writer != nullptr) unref(c.last_writer);
            for (TaskNode* r : c.readers) unref(r);
            if (&c != &b.cells.back()) c = std::move(b.cells.back());
            b.cells.pop_back();
            continue;  // re-examine the element swapped into slot i
          }
          ++i;
        }
        b.gc_at = std::max(kGcWatermark, b.cells.size() * 2);
      }
      Cell* cell = nullptr;
      for (Cell& c : b.cells) {
        if (c.chunk == chunk && c.domain == domain) {
          cell = &c;
          break;
        }
      }
      if (cell == nullptr) {
        b.cells.push_back(Cell{chunk, domain, nullptr, {}});
        cell = &b.cells.back();
      }
      if (dep.kind == DepKind::in) {
        if (cell->last_writer != nullptr) add_edge(cell->last_writer, node);
        cell->readers.push_back(node);
        ref(node);
      } else {  // out / inout: after the last writer and all its readers
        if (cell->last_writer != nullptr) {
          add_edge(cell->last_writer, node);
          unref(cell->last_writer);
        }
        for (TaskNode* r : cell->readers) {
          add_edge(r, node);
          unref(r);
        }
        cell->readers.clear();
        cell->last_writer = node;
        ref(node);
      }
    }
  }

  // Remove the registration guard; whoever takes the counter to zero —
  // this decrement or a predecessor's complete() — owns the release.
  if (node->waits.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    return Submit{node, true};
  }
  deps_deferred_.fetch_add(1, std::memory_order_relaxed);
  return Submit{node, false};
}

void DepEngine::complete(TaskNode* node) {
  sched::watchdog_add_pending(-1);
  std::vector<TaskNode*> succs;
  {
    common::SpinGuard g(node->lock);
    node->completed.store(true, std::memory_order_release);
    succs.swap(node->successors);
  }
  // Collect every successor this completion releases, then hand the set
  // to the runtime in ONE batch callback when several became ready at
  // once (the DAG ready-burst a finishing tile produces) — the runtime
  // bulk-deposits them with targeted wakes instead of k submit+wake
  // round-trips. Small bursts stay on the stack.
  constexpr std::size_t kInlineReady = 16;
  void* payloads_inline[kInlineReady];
  TaskNode* nodes_inline[kInlineReady];
  std::vector<void*> payloads_spill;
  std::vector<TaskNode*> nodes_spill;
  std::size_t nready = 0;
  for (TaskNode* s : succs) {
    if (s->waits.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      dag_ready_hits_.fetch_add(1, std::memory_order_relaxed);
      if (nready < kInlineReady) {
        payloads_inline[nready] = s->payload;
        nodes_inline[nready] = s;
      } else {
        if (nready == kInlineReady) {
          payloads_spill.assign(payloads_inline,
                                payloads_inline + kInlineReady);
          nodes_spill.assign(nodes_inline, nodes_inline + kInlineReady);
        }
        payloads_spill.push_back(s->payload);
        nodes_spill.push_back(s);
      }
      ++nready;
    }
    // The successor-list reference is dropped only after the callback
    // below has run (ready nodes stay referenced through the batch).
  }
  sched::trace_emit(sched::TraceKind::dep_release,
                    reinterpret_cast<std::uintptr_t>(node),
                    static_cast<std::uint32_t>(nready));
  void* const* payloads =
      nready > kInlineReady ? payloads_spill.data() : payloads_inline;
  TaskNode* const* nodes =
      nready > kInlineReady ? nodes_spill.data() : nodes_inline;
  if (nready > 1 && on_ready_batch_ != nullptr) {
    on_ready_batch_(payloads, nodes, nready);
  } else {
    for (std::size_t i = 0; i < nready; ++i) {
      on_ready_(payloads[i], nodes[i]);
    }
  }
  for (TaskNode* s : succs) unref(s);
  unref(node);  // the creator's reference
}

}  // namespace glto::taskdep
