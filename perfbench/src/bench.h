// Shared harness of the end-to-end benchmark: options, result record,
// statistics, process counters, and the in-memory span tracer.
//
// The benchmark drives the library only from outside, through its public
// entry points, and times every request from its call to its verified
// answer.  The traced run replays requests stage by stage (replay.h) and
// records one span per stage, so self times and exact field-op counts can
// be attributed to the library's layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "field/simd.h"
#include "poly/ntt.h"
#include "util/op_count.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;       ///< tiny sizes, for the benchmark's own smoke test
  std::string trace_out;    ///< where the traced run writes its spans
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports.  `detail` holds extra JSON fields (sample
/// counts, tail percentiles, environment) printed on the line before the
/// final result line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> detail;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json_value) {
    detail.emplace_back(key, json_value);
  }
  void note(const std::string& key, double value);
};

// ---- time and statistics -------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The highest whole percentile that still has at least ten samples above
/// it, by the nearest-rank rule.  With fewer than eleven samples it falls
/// back to the maximum (percentile 100, no samples beyond).
struct Tail {
  double value = 0;
  int percentile = 100;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail_latency(std::vector<double> v);

/// Reports latency_p50_ms (median of all samples) and latency_tail_ms, with
/// the tail percentile and sample count noted beside them.  With
/// segments > 1 the samples are split into that many consecutive
/// equal-count segments and the tail is the median of the segments' tails.
void put_latency(Report& r, const std::vector<double>& latencies_ms,
                 std::size_t segments = 1);

/// Reports setup_s as the median of the repeated set-up times.
void put_setup(Report& r, const std::vector<double>& setup_s);

/// failed_ratio with add-one smoothing, (failed + 1) / (attempted + 1): an
/// upper estimate that is never 0, so a relative bound can gate it.  The
/// raw counts are in the result line's `attempted` and `failed`.
void put_failed_ratio(Report& r);

double peak_rss_mb();
/// Process CPU time (user + system) in seconds, from getrusage.
double cpu_seconds();

/// Aborts the run: a wrong answer is never a failure to be counted.
[[noreturn]] void wrong_answer(const std::string& what);

// ---- per-request library counters ---------------------------------------

/// Snapshot of the library's process-wide diagnostic counters.  The SIMD
/// and transform counters are reset by begin(); the twiddle cache has no
/// reset, so its counters are differenced.
struct Counters {
  kp::poly::TransformStats ntt;
  kp::field::simd::SimdStats simd;
  kp::poly::CacheStats twiddle_before, twiddle_after;

  void begin();
  void end();
};

// ---- tracing --------------------------------------------------------------

/// One stage span.  `ops` is the field-op delta of the recording thread,
/// which includes the work the pool folded back from its workers.
struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  int parent = -1;          ///< index of the enclosing span, -1 for a root
  unsigned thread = 0;      ///< small per-thread id
  std::int64_t start_ns = 0, end_ns = 0;
  kp::util::OpCounts ops;
};

/// Keeps spans in memory; written out once, when the run ends.
class Tracer {
 public:
  static constexpr int kInherit = -2;

  /// Opens a span on the calling thread.  The parent defaults to the
  /// innermost span open on this thread; pass an explicit index for work
  /// handed to another thread.
  int open(const char* name, std::uint64_t request, int parent = kInherit);
  void close(int id);

  std::vector<Span> spans() const;
  /// Chrome trace-event JSON (readable by Perfetto / chrome://tracing).
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, std::uint64_t request,
            int parent = Tracer::kInherit)
      : t_(t), id_(t.open(name, request, parent)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Per-request figures the traced run collects besides the spans.
struct TracedRequest {
  std::uint64_t id = 0;
  double replay_ms = 0;        ///< traced replay wall
  double untraced_ms = 0;      ///< the same request through the public call
  std::uint64_t ref_ops = 0;   ///< the public call's own op count
  bool has_ref_ops = false;
  Counters counters;
};

/// Folds spans and per-request figures into the per-layer metrics:
/// per-stage self time and self ops (medians over the requests that ran the
/// stage), counters, and the trace's own health checks.  Metrics the
/// workload does not exercise are reported as 0.
void put_trace_metrics(Report& r, const Tracer& t,
                       const std::vector<TracedRequest>& requests);

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// The session and service metrics the traced service-stream run adds.
/// service-stream is run by hand, not by BENCHMARK.json (see README.md).
const std::vector<std::pair<std::string, std::string>>& service_layer_metrics();

// ---- workloads ------------------------------------------------------------

Report run_dense(const Options& o);
Report run_sparse(const Options& o);
Report run_service(const Options& o);
Report run_rational(const Options& o);

/// Number of requests a closed-loop run makes: a count fixed by --seconds
/// and the workload's nominal rate, never by the clock, so the tail
/// percentile is the same on every commit.
inline std::size_t request_count(const Options& o, double per_second,
                                 std::size_t smoke_count) {
  if (o.smoke) return smoke_count;
  const double c = per_second * o.seconds * (o.trace ? 0.5 : 1.0);
  return c < 12 ? 12 : static_cast<std::size_t>(c);
}

/// Set-up repetitions per run; setup_s is their median.
inline int setup_reps(const Options& o) { return o.smoke ? 2 : 3; }

}  // namespace perfbench
