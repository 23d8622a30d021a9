// qpserver — QP-as-a-service: sustained concurrent solve traffic through
// one runtime instance.
//
// The real-time-MPC solvers bqp models (EIQP, arXiv 2502.07738; the
// time-certified box-QP IPM of arXiv 2510.04467) are judged on p95/p99
// solve latency under heavy traffic from many users, not on a single
// solve's wall clock. This driver measures exactly that scenario: a
// producer streams thousands of independent box-QP solve requests into a
// bounded sched::Channel, a fixed flock of worker ULTs blocks on recv()
// — truly suspended, not micro-sleeping — and each request's
// enqueue→solved latency lands in a LatencyHistogram.
//
// Overload resilience (deadline_ms > 0 arms the whole layer):
//  - every request carries an absolute deadline; admission sheds a
//    request whose estimated queue wait already exceeds the remaining
//    budget, or whose timed send cannot enqueue within its slice;
//  - shed attempts retry up to `retries` times with deterministic
//    jittered backoff before counting as shed;
//  - a worker drops queue-expired requests without solving, and an
//    in-flight solve polls its QosContext so an expired request abandons
//    work at the next IPM iteration boundary;
//  - degrade mode lowers the IPM iteration cap while the queue sits
//    above a high-water mark, trading accuracy for goodput.
// Accounting is exact: completed + shed + deadline_missed == offered,
// each request landing in exactly one terminal bucket.
//
// Requires an initialized glt:: runtime (any backend). Knobs
// ($GLTO_QPSERVER_*): REQUESTS, CONCURRENCY, QUEUE, N, RANK, ITERS, SEED,
// DEADLINE_MS, RETRIES, BACKOFF_US, DEGRADE.
#pragma once

#include <cstdint>

namespace glto::apps::qpserver {

struct Config {
  int requests = 2000;    ///< total solve requests streamed
  int concurrency = 8;    ///< worker ULTs draining the channel
  int queue_depth = 64;   ///< channel capacity (backpressure bound)
  int n = 48;             ///< QP variables (≥ 8)
  int rank = 4;           ///< low-rank term width
  int max_iters = 40;     ///< IPM iteration cap per solve
  std::uint64_t seed = 42;
  // --- overload / QoS (deadline_ms == 0 disables the whole layer and
  // reproduces the original always-blocking closed-loop behaviour) ---
  int deadline_ms = 0;    ///< per-request budget from arrival, ms
  int retries = 2;        ///< admission retry attempts after a shed
  int backoff_us = 200;   ///< retry backoff step (jittered, per attempt)
  bool degrade = false;   ///< lower IPM cap when the queue runs hot
  /// Open-loop arrival pacing in requests/s; 0 = closed loop (the
  /// producer blocks on backpressure). Set by benches/tests, not env —
  /// overload is a property of the experiment, not the deployment.
  double arrival_rps = 0.0;
};

/// Config with every field overridable via $GLTO_QPSERVER_<KNOB>.
[[nodiscard]] Config config_from_env();

struct Report {
  std::uint64_t offered = 0;          ///< requests presented for admission
  std::uint64_t completed = 0;        ///< solved within budget
  std::uint64_t shed = 0;             ///< dropped at admission (post-retry)
  std::uint64_t deadline_missed = 0;  ///< expired queued/in-flight/late
  std::uint64_t retried = 0;          ///< admission retry attempts taken
  std::uint64_t degraded = 0;         ///< solves run under the lowered cap
  std::uint64_t not_converged = 0;    ///< solves that hit the iteration cap
  double elapsed_s = 0.0;
  double throughput_rps = 0.0;  ///< terminal outcomes per second
  double goodput_rps = 0.0;     ///< completed-within-budget per second
  // enqueue→solved latency of *completed* requests (conservative ≤12.5%
  // percentile estimates, exact max — see sched::LatencyHistogram).
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
};

/// Streams cfg.requests solves through the live glt runtime at
/// cfg.concurrency and reports the latency distribution plus the
/// overload accounting. The caller must have called glt::init. Checks
/// completed + shed + deadline_missed == offered before returning.
[[nodiscard]] Report run(const Config& cfg);

}  // namespace glto::apps::qpserver
