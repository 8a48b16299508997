// service-stream: four sparse sessions registered with one SolverService
// at set-up, then (1) an open loop of seeded Poisson arrivals at a fixed
// rate, spread uniformly over the sessions, for the latency metrics, and
// (2) a saturation phase in which one generator thread keeps the admission
// queue full, for the drain rate.  Preparation (Theorem 3 and det(H D))
// happens only in set-up; per-request work is the session finish, queueing
// and batching.
//
// Run by hand, not listed in BENCHMARK.json: its figures follow the load of
// the shared host far more than the one-caller workloads do (README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/annihilator.h"
#include "core/preconditioners.h"
#include "core/service.h"
#include "core/session.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "replay.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace perfbench {

namespace {

using Gf = kp::field::GFp;
using E = Gf::Element;
using Box = kp::matrix::SparseBox<Gf>;
using Service = kp::core::SolverService<Gf>;

constexpr std::size_t kSessions = 4;
constexpr double kOpenRate = 60.0;  // req/s; the drain rate at the seed is ~137
// Both phases are reported as medians over this many consecutive,
// equal-count segments (90 open-loop requests each at --seconds 20): one
// burst or stall then moves one segment, not the metric.
constexpr std::size_t kSegments = 10;

kp::core::ServiceConfig service_config() {
  kp::core::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 8;
  cfg.dispatchers = 2;
  return cfg;
}

struct Request {
  std::size_t session = 0;
  std::vector<E> x, b;
  std::int64_t offset_ns = 0;  ///< open loop: scheduled send after start
};

struct Inputs {
  std::vector<Box> ops;
  std::vector<std::uint64_t> seeds;
  std::vector<Request> open, saturated, direct;
};

Request make_request(const Gf& f, const Inputs& in, std::size_t session,
                     kp::util::Prng& prng) {
  Request q;
  q.session = session;
  q.x.resize(in.ops[session].dim());
  for (auto& e : q.x) e = f.random(prng);
  q.b = in.ops[session].apply(q.x);
  return q;
}

Inputs make_inputs(const Gf& f, const Options& o) {
  const std::size_t n = o.smoke ? 32 : 256;
  const std::size_t nnz = o.smoke ? 4 : 16;
  kp::util::Prng prng(o.seed ^ 0x5e1f1ceULL);
  Inputs in;
  while (in.ops.size() < kSessions) {
    auto sp = kp::matrix::Sparse<Gf>::random(f, n, nnz, prng);
    if (f.is_zero(kp::matrix::det_gauss(f, sp.to_dense(f)))) continue;
    in.ops.emplace_back(f, std::move(sp));
    in.seeds.push_back(prng());
  }
  const double scale = o.trace ? 0.5 : 1.0;
  const std::size_t n_open =
      o.smoke ? 10 : static_cast<std::size_t>(45.0 * o.seconds * scale);
  const std::size_t n_sat =
      o.smoke ? 20 : static_cast<std::size_t>(30.0 * o.seconds * scale);
  double t = 0;
  for (std::size_t i = 0; i < n_open; ++i) {
    // Exponential inter-arrival times: a Poisson process at kOpenRate.
    const double u = (static_cast<double>(prng() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / kOpenRate;
    Request q = make_request(f, in, prng.below(kSessions), prng);
    q.offset_ns = static_cast<std::int64_t>(t * 1e9);
    in.open.push_back(std::move(q));
  }
  for (std::size_t i = 0; i < n_sat; ++i) {
    in.saturated.push_back(make_request(f, in, prng.below(kSessions), prng));
  }
  if (o.trace) {
    for (std::size_t i = 0; i < (o.smoke ? 8 : 48); ++i) {
      in.direct.push_back(make_request(f, in, 0, prng));
    }
  }
  return in;
}

/// Builds a service and registers (prepares) every session.
std::unique_ptr<Service> set_up(const Gf& f, const Inputs& in,
                                std::vector<std::uint64_t>& ids,
                                std::vector<double>* prepare_ms) {
  auto svc = std::make_unique<Service>(f, service_config());
  ids.clear();
  for (std::size_t k = 0; k < kSessions; ++k) {
    const std::int64_t t0 = now_ns();
    auto id = svc->register_operator(kp::matrix::AnyBox<Gf>(in.ops[k]), in.seeds[k]);
    if (prepare_ms) prepare_ms->push_back(ns_to_ms(now_ns() - t0));
    if (!id.ok()) wrong_answer("session registration failed: " + id.status().message());
    ids.push_back(id.value());
  }
  return svc;
}

struct Outcome {
  std::vector<double> latency_ms;  ///< successful requests, in send order
  std::vector<kp::core::RequestTelemetry> telemetry;
  std::uint64_t attempted = 0, failed = 0, ok = 0;
  std::int64_t start_ns = 0;             ///< first send
  std::vector<std::int64_t> done_ns;     ///< successful completions, sorted
  double wall_s = 0;       ///< first send to last completion
  double max_late_ms = 0;  ///< open loop: how late the generator ran
};

/// Median over kSegments equal-count segments of the completion stream of
/// the segment's completion rate (requests per second).
double segmented_rate(const Outcome& out) {
  const std::size_t n = out.done_ns.size();
  if (n < kSegments) return 0;
  std::vector<double> rates;
  std::int64_t prev = out.start_ns;
  for (std::size_t k = 1; k <= kSegments; ++k) {
    const std::size_t lo = (k - 1) * n / kSegments, hi = k * n / kSegments;
    const std::int64_t end = out.done_ns[hi - 1];
    rates.push_back(static_cast<double>(hi - lo) * 1e9 /
                    static_cast<double>(std::max<std::int64_t>(1, end - prev)));
    prev = end;
  }
  return median(rates);
}

/// Sends `reqs` through the service from this thread, then collects the
/// results.  Open loop: each request is sent at its scheduled time and
/// timed from it.  Saturated: the next request is sent whenever the
/// admission queue has room, and timed from its send.  A request completes
/// when the service fulfils it: its send time plus the queue wait and
/// execution time the service records at that moment (no polling thread
/// competes with the service for the cores).
Outcome drive(Service& svc, const std::vector<std::uint64_t>& ids,
              const std::vector<Request>& reqs, bool open_loop) {
  using Result = kp::core::RequestResult<Gf>;
  const std::size_t n = reqs.size();
  const std::size_t cap = service_config().queue_capacity;
  std::vector<std::future<Result>> futs(n);
  std::vector<std::int64_t> due(n, 0), sent(n, 0);

  Outcome out;
  const std::int64_t start = now_ns() + 1000000;
  for (std::size_t i = 0; i < n; ++i) {
    if (open_loop) {
      due[i] = start + reqs[i].offset_ns;
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due[i])));
    } else {
      // The backlog is ~64 requests deep, so a coarse re-check keeps it full.
      while (svc.queue_depth() >= cap) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    sent[i] = now_ns();
    if (!open_loop) due[i] = sent[i];
    out.max_late_ms = std::max(out.max_late_ms, ns_to_ms(sent[i] - due[i]));
    futs[i] = svc.submit(ids[reqs[i].session], reqs[i].b);
  }

  std::int64_t last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Result res = futs[i].get();
    ++out.attempted;
    out.telemetry.push_back(res.telemetry);
    if (!res.status.ok()) {
      ++out.failed;  // classified failure or shed request
      continue;
    }
    if (res.x != reqs[i].x) {
      wrong_answer("service request: x differs from the known solution");
    }
    const std::int64_t done =
        sent[i] + res.telemetry.queue_wait_ns + res.telemetry.exec_ns;
    ++out.ok;
    out.latency_ms.push_back(ns_to_ms(done - due[i]));
    out.done_ns.push_back(done);
    last = std::max(last, done);
  }
  std::sort(out.done_ns.begin(), out.done_ns.end());
  out.start_ns = n ? due[0] : 0;
  out.wall_s = n ? static_cast<double>(last - due[0]) / 1e9 : 0;
  return out;
}

/// Session::prepare and the single-column Session::solve_many finish,
/// replayed stage by stage with the session's own seed derivation, so the
/// transcript and the op counts match a real Session built from the same
/// seed.  Immovable: the preconditioned box points at members.
class ReplaySession {
 public:
  ReplaySession(const Gf& f, kp::matrix::AnyBox<Gf> a, std::uint64_t seed)
      : f_(f), ring_(f), a_(std::move(a)), n_(a_.dim()), prng_(seed) {}
  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  bool prepare(Tracer& tr, std::uint64_t req, const kp::core::SessionOptions& opt) {
    using kp::util::FailureKind;
    std::uint64_t s = opt.solver.sample_size;
    const int attempts = std::max(1, opt.solver.max_attempts);
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      const bool ok = [&] {
        std::optional<kp::util::Prng> draw;
        {
          SpanScope sp(tr, "core.draw", req);
          draw.emplace(prng_.fork(0x73657373696f6e00ULL + ++serial_));
          pre_ = kp::core::Preconditioner<Gf>::draw(f_, n_, *draw, s);
        }
        {
          SpanScope sp(tr, "core.precondition", req);
          for (const auto& d : pre_->diagonal.entries()) {
            if (f_.is_zero(d)) return false;
          }
          box_.emplace(f_, ring_, a_, pre_->hankel, pre_->diagonal);
        }
        std::vector<E> u(n_), v(n_);
        {
          SpanScope sp(tr, "core.draw", req);
          for (auto& e : u) e = f_.sample(*draw, s);
          for (auto& e : v) e = f_.sample(*draw, s);
        }
        const auto seq = [&] {
          SpanScope sp(tr, "core.projection", req);
          return kp::matrix::krylov_sequence_iterative(f_, *box_, u, v, 2 * n_);
        }();
        std::vector<E> g;
        {
          SpanScope sp(tr, "seq.toeplitz_charpoly", req);
          if (detail::toeplitz_generator(f_, ring_, seq, n_, opt.solver, g) !=
              FailureKind::kNone) {
            return false;
          }
        }
        {
          SpanScope sp(tr, "core.det_hd", req);
          const auto det_hd = pre_->det(f_, opt.solver.newton);
          if (f_.is_zero(det_hd)) return false;
          const auto det_at = (n_ % 2 == 0) ? g[0] : f_.neg(g[0]);
          (void)f_.div(det_at, det_hd);
        }
        SpanScope sp(tr, "core.finish", req);
        q_ = kp::core::solution_combination(f_, g);
        return !q_.empty();
      }();
      if (ok) return true;
      if (s < (std::uint64_t{1} << 62)) s *= 2;
    }
    return false;
  }

  /// The single-column batch finish: annihilator recurrence, unprecondition,
  /// verification through the original operator.
  std::vector<E> finish(const std::vector<E>& b, Tracer& tr, std::uint64_t req) {
    std::vector<std::vector<E>> w{b};
    std::vector<E> x(n_, f_.zero());
    {
      SpanScope sp(tr, "core.finish", req);
      for (std::size_t j = 0; j < q_.size(); ++j) {
        if (j) w = kp::matrix::apply_columns(*box_, w);
        if (f_.eq(q_[j], f_.zero())) continue;
        for (std::size_t i = 0; i < n_; ++i) {
          x[i] = f_.add(x[i], f_.mul(q_[j], w[0][i]));
        }
      }
    }
    std::vector<E> xs;
    {
      SpanScope sp(tr, "core.unprecondition", req);
      xs = pre_->unprecondition(f_, ring_, x);
    }
    SpanScope sp(tr, "core.verify", req);
    const std::vector<const std::vector<E>*> cols{&xs};
    if (kp::matrix::apply_columns(a_, cols)[0] != b) return {};
    return xs;
  }

 private:
  Gf f_;
  kp::poly::PolyRing<Gf> ring_;
  kp::matrix::AnyBox<Gf> a_;
  std::size_t n_;
  kp::util::Prng prng_;
  std::uint64_t serial_ = 0;
  std::optional<kp::core::Preconditioner<Gf>> pre_;
  std::optional<kp::matrix::PreconditionedBox<Gf, kp::matrix::AnyBox<Gf>>> box_;
  std::vector<E> q_;
};

double percentile_ms(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

/// Per-layer metrics: direct Session prepare/finish (b = 1 and b = 8),
/// their stage-by-stage replays, and the service's own RequestTelemetry and
/// ServiceStats over an open-loop and a saturated phase.
Report trace_service(const Options& o, const Gf& f, const Inputs& in) {
  Report r;
  const kp::core::SessionOptions sopt = service_config().session;
  Tracer tr;
  std::vector<TracedRequest> reqs;
  std::vector<double> prepare_ms, b1_ms, b8_ms;
  std::uint64_t id = 0;

  kp::core::Session<Gf> session(f, kp::matrix::AnyBox<Gf>(in.ops[0]), in.seeds[0], sopt);
  ReplaySession replay(f, kp::matrix::AnyBox<Gf>(in.ops[0]), in.seeds[0]);
  {
    TracedRequest q;
    q.id = ++id;
    kp::util::OpScope ops;
    const std::int64_t t0 = now_ns();
    if (!session.prepare().ok()) wrong_answer("Session::prepare failed");
    q.untraced_ms = ns_to_ms(now_ns() - t0);
    q.ref_ops = ops.counts().total();
    q.has_ref_ops = true;
    prepare_ms.push_back(q.untraced_ms);
    q.counters.begin();
    const std::int64_t t1 = now_ns();
    bool ok;
    {
      SpanScope root(tr, "request", q.id);
      ok = replay.prepare(tr, q.id, sopt);
    }
    q.replay_ms = ns_to_ms(now_ns() - t1);
    q.counters.end();
    if (!ok) wrong_answer("prepare replay failed where Session::prepare succeeded");
    reqs.push_back(q);
  }
  for (const Request& d : in.direct) {
    TracedRequest q;
    q.id = ++id;
    kp::util::OpScope ops;
    const std::int64_t t0 = now_ns();
    const auto item = session.solve_one(d.b);
    q.untraced_ms = ns_to_ms(now_ns() - t0);
    q.ref_ops = ops.counts().total();
    q.has_ref_ops = true;
    if (!item.status.ok() || item.x != d.x) wrong_answer("Session::solve_one");
    b1_ms.push_back(q.untraced_ms);
    q.counters.begin();
    const std::int64_t t1 = now_ns();
    std::vector<E> x;
    {
      SpanScope root(tr, "request", q.id);
      x = replay.finish(d.b, tr, q.id);
    }
    q.replay_ms = ns_to_ms(now_ns() - t1);
    q.counters.end();
    if (x != d.x) wrong_answer("session finish replay");
    reqs.push_back(q);
  }
  for (std::size_t k = 0; k + 8 <= in.direct.size(); k += 8) {
    std::vector<const std::vector<E>*> rhs;
    for (std::size_t j = k; j < k + 8; ++j) rhs.push_back(&in.direct[j].b);
    const std::int64_t t0 = now_ns();
    const auto batch = session.solve_many(rhs);
    b8_ms.push_back(ns_to_ms(now_ns() - t0) / 8.0);
    for (std::size_t j = 0; j < 8; ++j) {
      if (!batch.items[j].status.ok() || batch.items[j].x != in.direct[k + j].x) {
        wrong_answer("Session::solve_many");
      }
    }
  }

  std::vector<std::uint64_t> ids;
  auto svc = set_up(f, in, ids, &prepare_ms);
  const Outcome open = drive(*svc, ids, in.open, true);
  const auto before = svc->stats();
  const double c0 = cpu_seconds();
  const Outcome sat = drive(*svc, ids, in.saturated, false);
  const double cpu = cpu_seconds() - c0;
  const auto after = svc->stats();
  r.attempted = open.attempted + sat.attempted;
  r.failed = open.failed + sat.failed;

  std::vector<double> wait_ms, exec_ms;
  for (const auto& t : open.telemetry) {
    wait_ms.push_back(ns_to_ms(t.queue_wait_ns));
    exec_ms.push_back(ns_to_ms(t.exec_ns));
  }
  double batch_sum = 0, degraded = 0;
  for (const auto& t : sat.telemetry) batch_sum += static_cast<double>(t.batch_size);
  for (const auto* ph : {&open, &sat}) {
    for (const auto& t : ph->telemetry) degraded += t.attempts > 1 ? 1 : 0;
  }

  put_trace_metrics(r, tr, reqs);
  r.put("core.attempts_per_solve",
        static_cast<double>(session.prepare_diags().size()), "count");
  r.put("core.session.prepare.ms", median(prepare_ms), "ms");
  r.put("core.session.finish_b1.ms", median(b1_ms), "ms");
  r.put("core.session.finish_b8.ms", median(b8_ms), "ms");
  r.put("core.service.queue_wait.p50_ms", percentile_ms(wait_ms, 0.50), "ms");
  r.put("core.service.queue_wait.p99_ms", percentile_ms(wait_ms, 0.99), "ms");
  r.put("core.service.exec.p50_ms", percentile_ms(exec_ms, 0.50), "ms");
  r.put("core.service.batch_size.mean",
        sat.telemetry.empty() ? 0 : batch_sum / static_cast<double>(sat.telemetry.size()),
        "count");
  r.put("core.service.coalesced_ratio",
        static_cast<double>(after.coalesced_requests - before.coalesced_requests) /
            static_cast<double>(std::max<std::uint64_t>(1, sat.attempted)),
        "ratio");
  r.put("core.service.shed",
        static_cast<double>(after.rejected_overflow + after.deadline_expired +
                            after.cancelled),
        "count");
  r.put("core.service.degraded", degraded, "count");
  r.put("pram.cpu_utilisation",
        cpu / (sat.wall_s * static_cast<double>(kp::pram::worker_count())), "ratio");
  if (!o.trace_out.empty() && !tr.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  return r;
}

}  // namespace

Report run_service(const Options& o) {
  static const Gf f(kp::field::kNttPrime);
  const Inputs in = make_inputs(f, o);
  Report r;
  if (o.trace) {
    r = trace_service(o, f, in);
  } else {
    std::vector<double> setup;
    std::vector<std::uint64_t> ids;
    std::unique_ptr<Service> svc;
    for (int rep = 0; rep < setup_reps(o); ++rep) {
      svc.reset();  // shut the previous one down before timing the next
      const std::int64_t t0 = now_ns();
      svc = set_up(f, in, ids, nullptr);
      setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const Outcome open = drive(*svc, ids, in.open, true);
    const Outcome sat = drive(*svc, ids, in.saturated, false);
    r.attempted = open.attempted + sat.attempted;
    r.failed = open.failed + sat.failed;
    put_latency(r, open.latency_ms, kSegments);
    r.put("solves_per_s", segmented_rate(sat), "1/s");
    put_setup(r, setup);
    put_failed_ratio(r);
    r.put("peak_rss_mb", peak_rss_mb(), "MB");
    r.note("open_loop_rate_per_s", kOpenRate);
    r.note("open_loop_max_late_ms", open.max_late_ms);
    r.note("saturated_requests", static_cast<double>(sat.attempted));
  }
  r.note("n", static_cast<double>(in.ops[0].dim()));
  r.note("sessions", static_cast<double>(kSessions));
  return r;
}

}  // namespace perfbench
