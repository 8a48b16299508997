#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench {

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  note(key, std::string(buf));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

Tail tail_latency(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  int p = 100;
  if (n > 10) p = static_cast<int>((100 * (n - 10)) / n);
  // Nearest rank: the ceil(p n / 100)-th smallest sample.
  std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  if (rank == 0) rank = 1;
  t.percentile = p;
  t.value = v[rank - 1];
  t.beyond = n - rank;
  return t;
}

void put_latency(Report& r, const std::vector<double>& latencies_ms,
                 std::size_t segments) {
  const std::size_t n = latencies_ms.size();
  if (segments == 0 || n < segments) segments = 1;
  std::vector<double> tails;
  Tail t;
  for (std::size_t k = 0; k < segments; ++k) {
    t = tail_latency({latencies_ms.begin() + static_cast<std::ptrdiff_t>(k * n / segments),
                      latencies_ms.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / segments)});
    tails.push_back(t.value);
  }
  r.put("latency_p50_ms", median(latencies_ms), "ms");
  r.put("latency_tail_ms", median(tails), "ms");
  r.note("latency_samples", static_cast<double>(n));
  r.note("latency_tail_segments", static_cast<double>(segments));
  r.note("latency_tail_percentile", t.percentile);
  r.note("latency_tail_beyond", static_cast<double>(t.beyond));
}

void put_setup(Report& r, const std::vector<double>& setup_s) {
  r.put("setup_s", median(setup_s), "s");
  std::string j = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", setup_s[i]);
    j += buf;
  }
  r.note("setup_samples_s", j + "]");
}

void put_failed_ratio(Report& r) {
  r.put("failed_ratio",
        static_cast<double>(r.failed + 1) / static_cast<double>(r.attempted + 1),
        "ratio");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void wrong_answer(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(3);
}

// ---- counters ---------------------------------------------------------------

void Counters::begin() {
  kp::poly::reset_transform_stats();
  kp::field::simd::reset_simd_stats();
  twiddle_before = kp::poly::twiddle_cache_stats();
}

void Counters::end() {
  ntt = kp::poly::transform_stats();
  simd = kp::field::simd::simd_stats();
  twiddle_after = kp::poly::twiddle_cache_stats();
}

// ---- tracer -------------------------------------------------------------------

namespace {

std::vector<int>& open_stack() {
  thread_local std::vector<int> stack;
  return stack;
}

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned id = next.fetch_add(1);
  return id;
}

}  // namespace

int Tracer::open(const char* name, std::uint64_t request, int parent) {
  auto& stack = open_stack();
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent != kInherit ? parent : (stack.empty() ? -1 : stack.back());
  s.thread = thread_index();
  s.ops = kp::util::tl_op_counts;
  s.start_ns = now_ns();
  int id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(s);
  }
  stack.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const std::int64_t end = now_ns();
  const kp::util::OpCounts ops = kp::util::tl_op_counts;
  open_stack().pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end;
  s.ops = ops - s.ops;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  const auto spans = this->spans();
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"span\":%zu,\"parent\":%d,\"ops\":%llu}}",
                  i ? ",\n" : "\n", s.name, s.thread,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.request), i, s.parent,
                  static_cast<unsigned long long>(s.ops.total()));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- per-layer metrics ------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"core.draw.ms", "ms"},
      {"core.precondition.ms", "ms"},
      {"core.precondition.ops", "ops"},
      {"core.projection.ms", "ms"},
      {"core.projection.ops", "ops"},
      {"seq.toeplitz_charpoly.ms", "ms"},
      {"seq.toeplitz_charpoly.ops", "ops"},
      {"seq.sigma_basis.ms", "ms"},
      {"seq.sigma_basis.ops", "ops"},
      {"core.generator_det.ms", "ms"},
      {"core.generator_det.ops", "ops"},
      {"core.finish.ms", "ms"},
      {"core.finish.ops", "ops"},
      {"core.det_hd.ms", "ms"},
      {"core.det_hd.ops", "ops"},
      {"core.unprecondition.ms", "ms"},
      {"core.verify.ms", "ms"},
      {"core.attempts_per_solve", "count"},
      {"core.crt.scale.ms", "ms"},
      {"core.crt.shard.ms", "ms"},
      {"core.crt.recon.ms", "ms"},
      {"core.crt.verify.ms", "ms"},
      {"core.crt.shards_used", "count"},
      {"core.crt.batches", "count"},
      {"core.crt.bad_primes", "count"},
      {"poly.ntt.forward", "count"},
      {"poly.ntt.inverse", "count"},
      {"poly.ntt.forward_avoided", "count"},
      {"poly.transform_cache.avoided_ratio", "ratio"},
      {"poly.twiddle_cache.hit_ratio", "ratio"},
      {"poly.twiddle_cache.bytes", "bytes"},
      {"poly.twiddle_cache.evictions", "count"},
      {"field.ops.add", "ops"},
      {"field.ops.mul", "ops"},
      {"field.ops.div", "ops"},
      {"field.simd.dot", "groups"},
      {"field.simd.ntt", "groups"},
      {"field.simd.batch_inverse", "groups"},
      {"field.simd.vec", "groups"},
      {"pram.cpu_utilisation", "ratio"},
      {"ref.gauss_solve.ms", "ms"},
      {"ref.block_wiedemann.ms", "ms"},
      {"trace.stage_coverage", "ratio"},
      {"trace.ops_gap", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& service_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"core.session.prepare.ms", "ms"},
      {"core.session.finish_b1.ms", "ms"},
      {"core.session.finish_b8.ms", "ms"},
      {"core.service.queue_wait.p50_ms", "ms"},
      {"core.service.queue_wait.p99_ms", "ms"},
      {"core.service.exec.p50_ms", "ms"},
      {"core.service.batch_size.mean", "count"},
      {"core.service.coalesced_ratio", "ratio"},
      {"core.service.shed", "count"},
      {"core.service.degraded", "count"},
  };
  return list;
}

namespace {

/// Per-request sums over the spans of one stage name.
struct StageSums {
  double self_ms = 0;
  double incl_ms = 0;
  std::uint64_t self_ops = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void put_trace_metrics(Report& r, const Tracer& t,
                       const std::vector<TracedRequest>& requests) {
  const auto spans = t.spans();
  const std::size_t ns = spans.size();
  std::vector<std::int64_t> child_ns(ns, 0);
  std::vector<kp::util::OpCounts> child_ops(ns);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    // Time nests per thread; ops of every child were folded into the parent.
    if (spans[p].thread == s.thread) child_ns[p] += s.end_ns - s.start_ns;
    child_ops[p] += s.ops;
  }

  std::map<std::uint64_t, std::map<std::string, StageSums>> per_req;
  std::map<std::uint64_t, double> covered_ns, thread_ns;
  std::map<std::uint64_t, kp::util::OpCounts> total_ops;
  for (std::size_t i = 0; i < ns; ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const bool root = s.parent < 0;
    const bool thread_root =
        root || spans[static_cast<std::size_t>(s.parent)].thread != s.thread;
    if (root) total_ops[s.request] += s.ops;
    if (thread_root) thread_ns[s.request] += static_cast<double>(dur);
    if (root) continue;  // the request span itself is not a stage
    const std::int64_t self = dur - child_ns[i];
    covered_ns[s.request] += static_cast<double>(self);
    StageSums& st = per_req[s.request][s.name];
    st.self_ms += ns_to_ms(self);
    st.incl_ms += ns_to_ms(dur);
    st.self_ops += (s.ops - child_ops[i]).total();
  }

  auto stage_median = [&](const std::string& name, int what) {
    std::vector<double> v;
    for (const auto& [req, stages] : per_req) {
      auto it = stages.find(name);
      if (it == stages.end()) continue;
      v.push_back(what == 0   ? it->second.self_ms
                  : what == 1 ? it->second.incl_ms
                              : static_cast<double>(it->second.self_ops));
    }
    return median(v);
  };
  for (const char* stage :
       {"core.draw", "core.precondition", "core.projection",
        "seq.toeplitz_charpoly", "seq.sigma_basis", "core.generator_det",
        "core.finish", "core.det_hd", "core.unprecondition", "core.verify",
        "core.crt.scale", "core.crt.recon", "core.crt.verify"}) {
    r.put(std::string(stage) + ".ms", stage_median(stage, 0), "ms");
    r.put(std::string(stage) + ".ops", stage_median(stage, 2), "ops");
  }
  // The shard phase waits on its pooled lanes: report its wall, not its self.
  r.put("core.crt.shard.ms", stage_median("core.crt.shard", 1), "ms");

  std::vector<double> coverage, add, mul, div, fwd, inv, avoided, dot, ntt,
      binv, vec;
  double gap = 0, avoided_sum = 0, fwd_sum = 0, hits = 0, lookups = 0,
         evictions = 0, bytes = 0;
  std::vector<double> replay_ms, untraced_ms;
  for (const TracedRequest& q : requests) {
    coverage.push_back(ratio(covered_ns[q.id], thread_ns[q.id]));
    const kp::util::OpCounts& ops = total_ops[q.id];
    add.push_back(static_cast<double>(ops.add));
    mul.push_back(static_cast<double>(ops.mul));
    div.push_back(static_cast<double>(ops.div));
    if (q.has_ref_ops) {
      const double d = static_cast<double>(ops.total()) -
                       static_cast<double>(q.ref_ops);
      gap = std::max(gap, ratio(std::fabs(d), static_cast<double>(q.ref_ops)));
    }
    if (q.untraced_ms > 0) {
      replay_ms.push_back(q.replay_ms);
      untraced_ms.push_back(q.untraced_ms);
    }
    const Counters& c = q.counters;
    fwd.push_back(static_cast<double>(c.ntt.forward));
    inv.push_back(static_cast<double>(c.ntt.inverse));
    avoided.push_back(static_cast<double>(c.ntt.forward_avoided));
    avoided_sum += static_cast<double>(c.ntt.forward_avoided);
    fwd_sum += static_cast<double>(c.ntt.forward);
    dot.push_back(static_cast<double>(c.simd.dot));
    ntt.push_back(static_cast<double>(c.simd.ntt));
    binv.push_back(static_cast<double>(c.simd.batch_inverse));
    vec.push_back(static_cast<double>(c.simd.vec));
    hits += static_cast<double>(c.twiddle_after.hits - c.twiddle_before.hits);
    lookups += static_cast<double>(c.twiddle_after.hits + c.twiddle_after.misses -
                                   c.twiddle_before.hits - c.twiddle_before.misses);
    evictions += static_cast<double>(c.twiddle_after.evictions -
                                     c.twiddle_before.evictions);
    bytes = static_cast<double>(c.twiddle_after.bytes);
  }
  r.put("field.ops.add", median(add), "ops");
  r.put("field.ops.mul", median(mul), "ops");
  r.put("field.ops.div", median(div), "ops");
  r.put("poly.ntt.forward", median(fwd), "count");
  r.put("poly.ntt.inverse", median(inv), "count");
  r.put("poly.ntt.forward_avoided", median(avoided), "count");
  r.put("poly.transform_cache.avoided_ratio",
        ratio(avoided_sum, avoided_sum + fwd_sum), "ratio");
  r.put("poly.twiddle_cache.hit_ratio", ratio(hits, lookups), "ratio");
  r.put("poly.twiddle_cache.bytes", bytes, "bytes");
  r.put("poly.twiddle_cache.evictions", evictions, "count");
  r.put("field.simd.dot", median(dot), "groups");
  r.put("field.simd.ntt", median(ntt), "groups");
  r.put("field.simd.batch_inverse", median(binv), "groups");
  r.put("field.simd.vec", median(vec), "groups");
  r.put("trace.stage_coverage", median(coverage), "ratio");
  r.put("trace.ops_gap", gap, "ratio");
  r.put("trace.overhead_ratio", ratio(median(replay_ms), median(untraced_ms)),
        "ratio");
  r.note("traced_requests", static_cast<double>(requests.size()));
}

}  // namespace perfbench
