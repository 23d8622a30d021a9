// taskdep — the task-dependency engine behind OpenMP `depend` clauses.
//
// The paper's tasking story (§IV-D) makes ULTs cheap enough that dataflow
// patterns no longer need barrier-style taskwait forests — but only if the
// runtime can express them. This engine supplies the missing piece: given
// tasks annotated with in/out/inout address ranges, it builds the
// producer→consumer DAG incrementally and tells the runtime the instant a
// task's last predecessor finishes, so the runtime can enqueue it straight
// onto the backend's work-stealing deques (GLTO) or task queues (pthread
// baselines).
//
// Design:
//  * A fixed-size hash table of *dependency cells*, keyed on 64-byte
//    chunks of the address space (1 << $GLTO_TASKDEP_HASH_BITS buckets,
//    default 10) *within a dep domain*. A dep on range [addr, addr+size)
//    registers against every chunk the range covers, so *overlapping*
//    ranges conflict through their shared chunks — stricter than the
//    OpenMP "identical list item" rule, never weaker.
//  * Dep *domains* implement OpenMP's sibling scoping: dependences only
//    order tasks that share a domain (the runtimes pass the generating
//    task's identity, so siblings share one and a task's children get
//    their own). A child naming one of its parent's dep objects therefore
//    no longer takes an edge from the parent's still-incomplete node —
//    the cross-scope ancestor/descendant deadlock an earlier revision
//    documented as a known hazard — and false ordering between unrelated
//    concurrent DAGs (e.g. two solver instances sharing one runtime) is
//    gone with it. Domains are address-keyed: a recycled task record
//    reusing a domain value is harmless, since every cell the retired
//    occupant populated is either swept or edge-free (completed nodes
//    add no edges).
//  * Each cell remembers the last writer and the readers since that
//    writer. Registration applies the classic rules: in → edge from the
//    last writer; out/inout → edges from the last writer and every
//    reader, then the cell's history is reset to the new writer.
//  * Each task node carries an atomic *release counter* (predecessor
//    edges + one registration guard). Completion of a predecessor
//    decrements it; the transition to zero fires the runtime's ready
//    callback exactly once.
//  * Nodes are intrusively reference-counted (cells and successor lists
//    hold references), so a completed task's record stays valid while a
//    cell still names it as writer/reader and is reclaimed as soon as it
//    is displaced.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>

#include "common/spin.hpp"
#include "taskdep/dep.hpp"

namespace glto::taskdep {

struct TaskNode;

/// The dependency engine. One instance per runtime; all methods are
/// thread-safe (per-bucket spinlocks + per-node spinlocks).
class DepEngine {
 public:
  /// @p on_ready fires exactly once per deferred task, from the thread
  /// executing its final predecessor's complete(); it receives the payload
  /// given to submit() plus the task's node (the callback may fire before
  /// the submitter even sees the node from Submit — pass it here so the
  /// wake-up path never reads a not-yet-published field). Never fires for
  /// tasks submit() reported ready.
  using ReadyFn = void (*)(void* payload, TaskNode* node);

  /// Optional batch form of the ready callback: when a completing task
  /// releases SEVERAL successors at once (a tile whose k dependents all
  /// reach zero — the DAG ready-burst), the engine hands the whole set to
  /// one call so the runtime can bulk-deposit them (one scheduler
  /// publication + targeted wakes) instead of paying k submit+wake
  /// round-trips. Single releases, and engines without a batch callback,
  /// keep the per-task on_ready path.
  using ReadyBatchFn = void (*)(void* const* payloads,
                                TaskNode* const* nodes, std::size_t n);

  /// @p hash_bits 0 → $GLTO_TASKDEP_HASH_BITS (default 10 → 1024 buckets).
  explicit DepEngine(ReadyFn on_ready, int hash_bits = 0);
  ~DepEngine();

  /// Installs the batch ready callback (call before any submit()).
  void set_on_ready_batch(ReadyBatchFn fn) { on_ready_batch_ = fn; }

  DepEngine(const DepEngine&) = delete;
  DepEngine& operator=(const DepEngine&) = delete;

  struct Submit {
    TaskNode* node = nullptr;
    bool ready = false;  ///< all predecessors already finished: run it now
  };

  /// Registers a task with its depend clauses. When `ready` is false the
  /// engine owns the wake-up: on_ready(payload) will fire later. Either
  /// way the caller must eventually call complete(node) after the task's
  /// body (and, per this runtime's transitive-join rule, its children)
  /// finish. @p domain scopes matching: only tasks submitted with the
  /// same domain value can exchange edges — runtimes pass the generating
  /// task's identity so dependences bind siblings only, as OpenMP scopes
  /// them (0 is just another domain: the implicit top-level one).
  Submit submit(void* payload, const Dep* deps, std::size_t ndeps,
                std::uintptr_t domain = 0);

  /// Marks the task finished, waking any successor whose release counter
  /// hits zero (on_ready runs inline on this thread — the wake-up path
  /// that feeds ready tasks straight to the caller's scheduler queue).
  void complete(TaskNode* node);

  [[nodiscard]] int hash_bits() const { return hash_bits_; }

 private:
  struct Bucket;

  void add_edge(TaskNode* pred, TaskNode* succ);
  static void ref(TaskNode* n);
  static void unref(TaskNode* n);

  ReadyFn on_ready_;
  ReadyBatchFn on_ready_batch_ = nullptr;
  int hash_bits_;
  std::size_t nbuckets_;
  Bucket* buckets_;
  /// Serializes submit() (see the cycle note there); complete() is free.
  common::SpinLock submit_lock_;

  // Published as deps.registered / deps.deferred / deps.ready_hits.
  std::atomic<std::uint64_t> deps_registered_{0};  ///< clauses processed
  std::atomic<std::uint64_t> deps_deferred_{0};  ///< parked on predecessors
  std::atomic<std::uint64_t> dag_ready_hits_{0};  ///< released by the last
                                                  ///< completing predecessor
  std::uint64_t metrics_token_ = 0;  ///< registry handle (ctor → dtor)
};

}  // namespace glto::taskdep
