// exact-rational: one caller, closed loop; each request is crt_solve with
// default CrtOptions on a dense system over Q (the bench_crt problem
// shape).  The only workload through crt_shard / crt_recon / BigInt, and the
// one that uses the pool across shards instead of inside one solve.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>

#include "bench.h"
#include "core/crt_recon.h"
#include "core/crt_shard.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "pram/parallel_for.h"
#include "replay.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace perfbench {

namespace {

using kp::field::Rational;
using kp::field::RationalField;
using QMatrix = kp::matrix::Matrix<RationalField>;

struct Problem {
  QMatrix a;
  std::vector<Rational> x, b;
  std::uint64_t seed = 0;
};

/// Single-digit fractions with a dominant diagonal (nonsingular by
/// construction) and a small integer solution.
Problem make_problem(const RationalField& f, std::size_t n,
                     kp::util::Prng& prng) {
  Problem p{QMatrix(n, n, f.zero()), {}, {}, prng()};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto num = static_cast<std::int64_t>(prng.below(19)) - 9;
      const auto den = 1 + static_cast<std::int64_t>(prng.below(4));
      p.a.at(i, j) = Rational(num, den);
    }
    p.a.at(i, i) = Rational(static_cast<std::int64_t>(10 * n), 1);
    p.x.push_back(Rational(static_cast<std::int64_t>(prng.below(19)) - 9, 1));
  }
  p.b.assign(n, f.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      p.b[i] = f.add(p.b[i], f.mul(p.a.at(i, j), p.x[j]));
    }
  }
  return p;
}

void check_x(const std::vector<Rational>& got, const Problem& p,
             const char* what) {
  if (got != p.x) {
    wrong_answer(std::string(what) + ": x differs from the known solution");
  }
}

struct CrtReplay {
  bool ok = false;
  std::vector<Rational> x;
  std::vector<double> shard_attempts;
};

/// Stage-by-stage replay of crt_solve(f, a, b, prng, opt) for the options
/// the benchmark uses (no pinned primes, early termination on, one worker
/// per shard).  Shards run as pooled lanes exactly as in crt_solve; each
/// lane's spans hang off the batch span across threads.
CrtReplay replay_crt_solve(const QMatrix& a, const std::vector<Rational>& rhs,
                           kp::util::Prng& prng,
                           const kp::core::CrtOptions& opt, Tracer& tr,
                           std::uint64_t req) {
  namespace core = kp::core;
  CrtReplay out;
  const std::size_t n = a.rows();
  const std::uint64_t transcript_seed = prng.fork(0x6372742d73686472ULL).seed();

  const auto sys = [&] {
    SpanScope sp(tr, "core.crt.scale", req);
    return core::detail::scale_to_integers(a, &rhs);
  }();
  const std::size_t needed_bits =
      core::solution_modulus_bits(n, sys.entry_bits, sys.rhs_bits);
  const auto bits_per_prime = static_cast<std::size_t>(opt.prime_bits - 1);
  const std::size_t cap = (needed_bits + bits_per_prime - 1) / bits_per_prime;
  int adicity = 3;
  while ((std::size_t{1} << adicity) < 8 * n * n) ++adicity;
  adicity += 2;
  core::detail::NttPrimeStream stream(opt.prime_bits, adicity, opt.pinned_primes);
  const std::size_t batch = std::max<std::size_t>(kp::pram::worker_count(), 4);
  const kp::core::SolverOptions sopt = core::shard_solver_options(opt);

  struct Good {
    std::uint64_t prime = 0;
    std::size_t index = 0;
    std::vector<std::uint64_t> x;
    std::uint64_t det = 0;
  };
  core::CrtCombiner combiner(n + 1);
  std::atomic<std::size_t> next_index{0};
  std::atomic<int> bad_primes{0};
  std::atomic<bool> exhausted{false};
  std::mutex mu;
  std::vector<std::optional<Rational>> prev_sentinels;
  const std::size_t sentinel_count = std::min<std::size_t>(n, 4);
  std::size_t used = 0;

  while (combiner.modulus().bit_length() < needed_bits) {
    const std::size_t b = std::min(batch, cap > used ? cap - used : std::size_t{1});
    std::vector<Good> good(b);
    {
      SpanScope batch_span(tr, "core.crt.shard", req);
      const int parent = batch_span.id();
      kp::pram::parallel_for(0, b, [&](std::size_t slot) {
        while (bad_primes.load() <= opt.max_bad_primes) {
          const std::size_t idx = next_index.fetch_add(1);
          const std::uint64_t p = stream.at(idx);
          if (p == 0) {
            exhausted = true;
            return;
          }
          SpanScope lane(tr, "core.crt.lane", req, parent);
          const kp::field::GFp fp(p);
          kp::matrix::Matrix<kp::field::GFp> ap(n, n, 0);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              ap.at(i, j) = sys.a[i * n + j].mod_u64(p);
            }
          }
          std::vector<std::uint64_t> bp(n);
          for (std::size_t i = 0; i < n; ++i) bp[i] = sys.b[i].mod_u64(p);
          kp::util::Prng shard_prng(transcript_seed);
          auto rr = replay_kp_solve(fp, kp::matrix::DenseViewBox<kp::field::GFp>(fp, ap),
                                    bp, shard_prng, sopt, tr, req);
          {
            std::lock_guard<std::mutex> lk(mu);
            out.shard_attempts.push_back(rr.attempts);
          }
          if (rr.ok) {
            good[slot] = {p, idx, std::move(rr.x), rr.det};
            return;
          }
          bad_primes.fetch_add(1);
        }
      });
    }
    if (bad_primes.load() > opt.max_bad_primes || exhausted.load()) {
      return out;  // crt_solve would fall back to the generic route
    }

    bool complete = false;
    bool last_batch = false;
    std::vector<Rational> x(n);
    {
      SpanScope sp(tr, "core.crt.recon", req);
      std::sort(good.begin(), good.end(),
                [](const Good& l, const Good& r) { return l.index < r.index; });
      std::vector<std::uint64_t> primes(b);
      std::vector<std::vector<std::uint64_t>> residues(
          n + 1, std::vector<std::uint64_t>(b));
      for (std::size_t j = 0; j < b; ++j) {
        primes[j] = good[j].prime;
        for (std::size_t s = 0; s < n; ++s) residues[s][j] = good[j].x[s];
        residues[n][j] = good[j].det;
      }
      combiner.fold_batch(primes, residues);
      used += b;
      last_batch = combiner.modulus().bit_length() >= needed_bits;
      const core::RatBounds bounds = core::balanced_bounds(combiner.modulus());
      // crt_solve reconstructs det(A_z) after every batch too.
      (void)core::symmetric_residue(combiner.value(n), combiner.modulus());
      bool stable = true;
      std::vector<std::optional<Rational>> sentinels(sentinel_count);
      for (std::size_t s = 0; s < sentinel_count; ++s) {
        sentinels[s] = core::rational_reconstruct(
            combiner.value(s), combiner.modulus(), bounds.num, bounds.den);
        stable = stable && sentinels[s].has_value() && !prev_sentinels.empty() &&
                 prev_sentinels[s].has_value() && *sentinels[s] == *prev_sentinels[s];
      }
      prev_sentinels = std::move(sentinels);
      if (stable || last_batch) {
        std::vector<char> entry_ok(n, 0);
        kp::pram::parallel_for(0, n, [&](std::size_t s) {
          auto r = core::rational_reconstruct(combiner.value(s), combiner.modulus(),
                                              bounds.num, bounds.den);
          if (r.has_value()) {
            x[s] = std::move(*r);
            entry_ok[s] = 1;
          }
        });
        complete = std::all_of(entry_ok.begin(), entry_ok.end(),
                               [](char c) { return c != 0; });
      }
    }
    if (complete) {
      SpanScope sp(tr, "core.crt.verify", req);
      if (core::detail::verify_candidate(sys, x)) {
        out.ok = true;
        out.x = std::move(x);
        return out;
      }
    }
    if (last_batch) return out;
  }
  return out;
}

}  // namespace

Report run_rational(const Options& o) {
  const RationalField f;
  const std::size_t n = o.smoke ? 8 : 64;
  kp::util::Prng gen(o.seed ^ 0x0a7101a1ULL);
  std::vector<Problem> warm, timed;
  for (int i = 0; i < setup_reps(o); ++i) warm.push_back(make_problem(f, n, gen));
  const std::size_t count = request_count(o, 4.0, 3);
  for (std::size_t i = 0; i < count; ++i) timed.push_back(make_problem(f, n, gen));
  const kp::core::CrtOptions opt;

  Report r;
  std::vector<double> setup;
  for (const auto& p : warm) {
    kp::util::Prng prng(p.seed);
    const std::int64_t t0 = now_ns();
    const auto res = kp::core::crt_solve(f, p.a, p.b, prng, opt);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!res.ok) wrong_answer("warm-up crt_solve failed: " + res.status.message());
    check_x(res.x, p, "warm-up");
  }

  if (!o.trace) {
    std::vector<double> lat;
    std::uint64_t ok = 0;
    const std::int64_t begin = now_ns();
    for (const auto& p : timed) {
      kp::util::Prng prng(p.seed);
      const std::int64_t t0 = now_ns();
      const auto res = kp::core::crt_solve(f, p.a, p.b, prng, opt);
      const std::int64_t t1 = now_ns();
      ++r.attempted;
      if (!res.ok) {
        ++r.failed;
        continue;
      }
      check_x(res.x, p, "crt_solve");
      lat.push_back(ns_to_ms(t1 - t0));
      ++ok;
    }
    const double wall_s = static_cast<double>(now_ns() - begin) / 1e9;
    put_latency(r, lat);
    r.put("solves_per_s", static_cast<double>(ok) / wall_s, "1/s");
    put_setup(r, setup);
    put_failed_ratio(r);
    r.put("peak_rss_mb", peak_rss_mb(), "MB");
    r.note("n", static_cast<double>(n));
    return r;
  }

  Tracer tr;
  std::vector<TracedRequest> reqs;
  std::vector<double> attempts, shards, batches, bad;
  double cpu = 0, wall = 0;
  std::uint64_t id = 0;
  for (const auto& p : timed) {
    TracedRequest q;
    q.id = ++id;
    {
      kp::util::Prng prng(p.seed);
      kp::util::OpScope ops;
      const double c0 = cpu_seconds();
      const std::int64_t t0 = now_ns();
      const auto res = kp::core::crt_solve(f, p.a, p.b, prng, opt);
      const std::int64_t t1 = now_ns();
      cpu += cpu_seconds() - c0;
      wall += static_cast<double>(t1 - t0) / 1e9;
      q.ref_ops = ops.counts().total();
      ++r.attempted;
      if (!res.ok) {
        ++r.failed;
        continue;
      }
      check_x(res.x, p, "crt_solve");
      q.untraced_ms = ns_to_ms(t1 - t0);
      q.has_ref_ops = true;
      shards.push_back(static_cast<double>(res.shards_used));
      batches.push_back(static_cast<double>(res.batches));
      bad.push_back(static_cast<double>(std::count_if(
          res.diags.begin(), res.diags.end(), [](const kp::util::Diag& d) {
            return d.kind == kp::util::FailureKind::kBadPrime;
          })));
    }
    {
      kp::util::Prng prng(p.seed);
      q.counters.begin();
      const std::int64_t t0 = now_ns();
      CrtReplay rr;
      {
        SpanScope root(tr, "request", q.id);
        rr = replay_crt_solve(p.a, p.b, prng, opt, tr, q.id);
      }
      q.replay_ms = ns_to_ms(now_ns() - t0);
      q.counters.end();
      if (!rr.ok) wrong_answer("CRT replay failed where crt_solve succeeded");
      check_x(rr.x, p, "CRT replay");
      attempts.insert(attempts.end(), rr.shard_attempts.begin(),
                      rr.shard_attempts.end());
    }
    reqs.push_back(q);
  }
  put_trace_metrics(r, tr, reqs);
  r.put("core.attempts_per_solve", mean(attempts), "count");
  r.put("core.crt.shards_used", median(shards), "count");
  r.put("core.crt.batches", median(batches), "count");
  r.put("core.crt.bad_primes", median(bad), "count");
  r.put("pram.cpu_utilisation",
        cpu / (wall * static_cast<double>(kp::pram::worker_count())), "ratio");
  if (!o.trace_out.empty() && !tr.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  r.note("n", static_cast<double>(n));
  return r;
}

}  // namespace perfbench
