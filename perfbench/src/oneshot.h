// The closed-loop, one-caller request loop shared by the dense-solve and
// sparse-solve workloads: each request is one kp_solve on a fresh system
// with a known solution.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/solver.h"
#include "field/zp.h"
#include "pram/parallel_for.h"
#include "replay.h"
#include "util/prng.h"

namespace perfbench {

using Gf = kp::field::GFp;
using GfE = Gf::Element;

/// One request's input: the operator (a dense Matrix or a SparseBox), the
/// known solution, the right-hand side b = A x, and the solve's seed.
template <class A>
struct Instance {
  A a;
  std::vector<GfE> x, b;
  std::uint64_t seed = 0;
};

template <class A>
void check_x(const std::vector<GfE>& got, const Instance<A>& in,
             const char* what) {
  if (got != in.x) wrong_answer(std::string(what) + ": x differs from the known solution");
}

/// Untraced run: set-up (warm-up solves) then the timed closed loop.
template <class A>
Report oneshot_run(const Gf& f,
                   const std::vector<Instance<A>>& warm,
                   const std::vector<Instance<A>>& timed,
                   const kp::core::SolverOptions& opt) {
  Report r;
  std::vector<double> setup;
  for (const auto& in : warm) {
    kp::util::Prng prng(in.seed);
    const std::int64_t t0 = now_ns();
    const auto res = kp::core::kp_solve(f, in.a, in.b, prng, opt);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!res.ok) wrong_answer("warm-up solve failed: " + res.status.message());
    check_x(res.x, in, "warm-up");
  }

  std::vector<double> lat;
  std::uint64_t ok = 0;
  const std::int64_t begin = now_ns();
  for (const auto& in : timed) {
    kp::util::Prng prng(in.seed);
    const std::int64_t t0 = now_ns();
    const auto res = kp::core::kp_solve(f, in.a, in.b, prng, opt);
    const std::int64_t t1 = now_ns();
    ++r.attempted;
    if (!res.ok) {
      ++r.failed;  // a classified Las Vegas failure, never a wrong x
      continue;
    }
    check_x(res.x, in, "kp_solve");
    lat.push_back(ns_to_ms(t1 - t0));
    ++ok;
  }
  const double wall_s = static_cast<double>(now_ns() - begin) / 1e9;
  put_latency(r, lat);
  r.put("solves_per_s", static_cast<double>(ok) / wall_s, "1/s");
  put_setup(r, setup);
  put_failed_ratio(r);
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

/// Traced run: per request, the public kp_solve (untraced: the reference
/// wall time and Diag op count), the stage-by-stage replay under spans, and
/// the plain baseline `ref` (returns its wall ms, checks its own answer).
template <class A, class MakeBox, class Ref>
Report oneshot_trace(const Options& o, const Gf& f,
                     const std::vector<Instance<A>>& warm,
                     const std::vector<Instance<A>>& timed,
                     const kp::core::SolverOptions& opt, MakeBox make_box,
                     Ref ref, const char* ref_metric) {
  Report r;
  for (const auto& in : warm) {
    kp::util::Prng prng(in.seed);
    const auto res = kp::core::kp_solve(f, in.a, in.b, prng, opt);
    if (!res.ok) wrong_answer("warm-up solve failed");
    check_x(res.x, in, "warm-up");
  }

  Tracer tr;
  std::vector<TracedRequest> reqs;
  std::vector<double> attempts, ref_ms;
  double cpu = 0, wall = 0;
  std::uint64_t id = 0;
  for (const auto& in : timed) {
    TracedRequest q;
    q.id = ++id;
    {
      kp::util::Prng prng(in.seed);
      const double c0 = cpu_seconds();
      const std::int64_t t0 = now_ns();
      const auto res = kp::core::kp_solve(f, in.a, in.b, prng, opt);
      const std::int64_t t1 = now_ns();
      cpu += cpu_seconds() - c0;
      wall += static_cast<double>(t1 - t0) / 1e9;
      ++r.attempted;
      if (!res.ok) {
        ++r.failed;
        continue;
      }
      check_x(res.x, in, "kp_solve");
      q.untraced_ms = ns_to_ms(t1 - t0);
      for (const auto& d : res.diags) q.ref_ops += d.ops.total();
      q.has_ref_ops = true;
      attempts.push_back(res.attempts);
    }
    {
      kp::util::Prng prng(in.seed);
      const auto box = make_box(in);
      q.counters.begin();
      const std::int64_t t0 = now_ns();
      ReplayResult<Gf> rr;
      {
        SpanScope root(tr, "request", q.id);
        rr = replay_kp_solve(f, box, in.b, prng, opt, tr, q.id);
      }
      q.replay_ms = ns_to_ms(now_ns() - t0);
      q.counters.end();
      if (!rr.ok) wrong_answer("replay failed where kp_solve succeeded");
      check_x(rr.x, in, "replay");
    }
    ref_ms.push_back(ref(in));
    reqs.push_back(q);
  }

  put_trace_metrics(r, tr, reqs);
  r.put("core.attempts_per_solve", mean(attempts), "count");
  r.put("pram.cpu_utilisation",
        cpu / (wall * static_cast<double>(kp::pram::worker_count())), "ratio");
  r.put(ref_metric, median(ref_ms), "ms");
  if (!o.trace_out.empty() && !tr.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  return r;
}

}  // namespace perfbench
