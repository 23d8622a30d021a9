// glto_perfbench — the binary behind the repository benchmark.
//
//   glto_perfbench --workload tasks|loops|qps --seed N --seconds S
//                  --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0): runs the workload for S seconds and reports its
// end-to-end metrics. Traced (--trace 1): runs it with every other trial
// traced (spans + registry counter deltas + GLTO_METRICS histograms),
// then the layer ladder and the 1-thread reference cells, writes the
// spans to FILE and reports the per-layer metrics.
//
// Prints human-readable lines, a "# build {...}" identity line, and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when any output check failed, 2 on bad usage, 3
// when the build is not an optimized, unsanitized one.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ladder.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      o->workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      o->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(k, "--seconds") == 0) {
      o->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o->seconds > 0.0) || o->seconds > 600.0) {
        return false;
      }
    } else if (std::strcmp(k, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o->trace = v[0] == '1';
    } else if (std::strcmp(k, "--trace-out") == 0) {
      o->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (o->workload == "tasks" || o->workload == "loops" ||
                           o->workload == "qps");
}

void print_metrics_json(const perfbench::RunReport& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt) || (opt.trace && opt.trace_out.empty())) {
    std::fprintf(stderr,
                 "usage: %s --workload tasks|loops|qps --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       (--trace 1 needs --trace-out)\n",
                 argv[0]);
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (kSanitized || std::strlen(PERFBENCH_SANITIZE) != 0 || !kOptimized ||
      build_type == "Debug") {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build "
                 "(sanitizer '%s', optimized %d)\n",
                 build_type.c_str(), PERFBENCH_SANITIZE, kOptimized ? 1 : 0);
    return 3;
  }
  // The traced run arms the library's own latency histograms; the
  // untraced run leaves them off (one relaxed load per task site).
  if (opt.trace) setenv("GLTO_METRICS", "1", 1);

  std::printf("# build {\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
              "\"backend\": \"abt\", \"runtime\": \"glto-abt\", "
              "\"threads\": %d, \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d}\n",
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, build_type.c_str(), perfbench::kThreads,
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);

  perfbench::Tracer tr;
  tr.set_enabled(opt.trace);
  perfbench::RunReport rep;
  if (opt.workload == "tasks") {
    rep = perfbench::run_tasks(opt, tr);
  } else if (opt.workload == "loops") {
    rep = perfbench::run_loops(opt, tr);
  } else {
    rep = perfbench::run_qps(opt, tr);
  }
  if (opt.trace) {
    ++rep.attempted;
    if (!perfbench::run_ladder(tr, opt.seed, rep.metrics)) ++rep.failed;
    ++rep.attempted;
    if (!perfbench::run_single_thread_refs(opt, tr, rep.metrics)) ++rep.failed;
    if (!tr.write_json(opt.trace_out, opt.workload, opt.seed)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  for (const std::string& n : rep.notes) std::printf("%s\n", n.c_str());
  print_metrics_json(rep);
  return rep.failed == 0 ? 0 : 1;
}
