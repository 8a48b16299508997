// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <file>]
//
// Prints an environment/detail record, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics (--trace 0) or the per-layer metrics of the traced replay
// (--trace 1).  A wrong answer exits with status 3 and prints no result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "field/simd.h"
#include "pram/parallel_for.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dense-solve|sparse-solve|service-stream|exact-rational> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(value().c_str());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.seconds < 1 || o.seconds > 600) usage("--seconds must be in 1..600");
  return o;
}

/// These settings change the program being measured.
void refuse_program_settings() {
  for (const char* var : {"KP_SIMD", "KP_CACHE_BUDGET", "KP_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "program being measured\n",
                   var);
      std::exit(2);
    }
  }
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  refuse_program_settings();

  Report r;
  if (o.workload == "dense-solve") {
    r = perfbench::run_dense(o);
  } else if (o.workload == "sparse-solve") {
    r = perfbench::run_sparse(o);
  } else if (o.workload == "service-stream") {
    r = perfbench::run_service(o);
  } else if (o.workload == "exact-rational") {
    r = perfbench::run_rational(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }

  // The metric list this mode reports, in BENCHMARK.json order.  A
  // per-layer metric the workload does not exercise reads 0.
  static const std::vector<std::pair<std::string, std::string>> end_to_end = {
      {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
      {"solves_per_s", "1/s"},  {"setup_s", "s"},
      {"failed_ratio", "ratio"}, {"peak_rss_mb", "MB"}};
  auto names = o.trace ? perfbench::per_layer_metrics() : end_to_end;
  if (o.trace && o.workload == "service-stream") {
    const auto& extra = perfbench::service_layer_metrics();
    names.insert(names.end(), extra.begin(), extra.end());
  }
  std::map<std::string, double> got;
  for (const Metric& m : r.metrics) got[m.name] = m.value;

  const auto simd = kp::field::simd::simd_stats();
  std::string detail = "{\"workload\":" + quote(o.workload) +
                       ",\"seed\":" + std::to_string(o.seed) +
                       ",\"seconds\":" + std::to_string(o.seconds) +
                       ",\"trace\":" + (o.trace ? "1" : "0") +
                       ",\"smoke\":" + (o.smoke ? "true" : "false") +
                       ",\"simd_level\":" + quote(simd.level) +
                       ",\"simd_ifma\":" + (simd.ifma ? "true" : "false") +
                       ",\"workers\":" + std::to_string(kp::pram::worker_count()) +
                       ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ",\"git_rev\":" + quote(KP_GIT_REV) +
                       ",\"build_flags\":" + quote(PERFBENCH_BUILD_FLAGS);
  for (const auto& [k, v] : r.detail) detail += ",\"" + k + "\":" + v;
  std::printf("perfbench detail %s}\n", detail.c_str());

  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = got.find(name);
    metrics += (metrics.empty() ? "" : ",") + quote(name) + ":{\"value\":" +
               num(it == got.end() ? 0.0 : it->second) +
               ",\"unit\":" + quote(unit) + "}";
  }
  // Every answer passed its gate (a wrong one exits before this line).
  std::printf("{\"correct\":true,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
