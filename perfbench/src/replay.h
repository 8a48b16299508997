// Stage-by-stage replay of one Theorem-4 solve, for the traced run.
//
// Mirrors core::kp_solve step for step -- the same public stage functions,
// the same forked random streams, the same stage-targeted retry policy -- so
// a replay of (A, b, seed) returns the same x with the same field-op count
// as kp_solve(A, b, Prng(seed)), while a span around every stage records
// where the time and the operations went.  trace.ops_gap checks the "same
// op count" claim on every traced request.
#pragma once

#include <optional>
#include <vector>

#include "bench.h"
#include "core/annihilator.h"
#include "core/block_krylov.h"
#include "core/krylov.h"
#include "core/preconditioners.h"
#include "core/solver.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "seq/matrix_berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"
#include "util/status.h"

namespace perfbench {

template <class F>
struct ReplayResult {
  bool ok = false;
  std::vector<typename F::Element> x;
  typename F::Element det{};
  int attempts = 0;
};

namespace detail {

using kp::util::FailureKind;

/// Lemma 1 + Theorem 3: the generator of a scalar sequence through the
/// Toeplitz charpoly solve.  kNone on success.
template <class F>
FailureKind toeplitz_generator(const F& f, const kp::poly::PolyRing<F>& ring,
                               const std::vector<typename F::Element>& seq,
                               std::size_t n,
                               const kp::core::SolverOptions& opt,
                               std::vector<typename F::Element>& g) {
  const auto t = kp::matrix::Toeplitz<F>::from_sequence(n, seq);
  const std::vector<typename F::Element> rhs(
      seq.begin() + static_cast<std::ptrdiff_t>(n), seq.end());
  const auto y = kp::seq::toeplitz_solve_charpoly(f, t, rhs, ring, opt.newton);
  if (y.empty()) return FailureKind::kDegenerateProjection;
  g.assign(n + 1, f.zero());
  g[n] = f.one();
  for (std::size_t i = 0; i < n; ++i) g[n - 1 - i] = f.neg(y[i]);
  if (f.eq(g[0], f.zero())) return FailureKind::kZeroConstantTerm;
  return FailureKind::kNone;
}

}  // namespace detail

/// Replays kp_solve(f, a, b, prng, opt) under `req`'s spans.  The caller
/// opens the request span.  Supports the options the benchmark uses:
/// verify on, no op budget, no depth-optimal finish.
template <class F, class B>
ReplayResult<F> replay_kp_solve(const F& f, const B& a,
                                const std::vector<typename F::Element>& b,
                                kp::util::Prng& prng,
                                const kp::core::SolverOptions& opt,
                                Tracer& tr, std::uint64_t req) {
  using E = typename F::Element;
  using kp::util::FailureKind;
  namespace core = kp::core;
  namespace matrix = kp::matrix;

  ReplayResult<F> res;
  const std::size_t n = a.dim();
  const kp::poly::PolyRing<F> ring(f);
  const auto route = core::resolve_route(opt.route, matrix::box_structure(a));
  const std::size_t bw = core::detail::effective_block_width(f, opt, n);

  kp::util::Prng pre_stream = prng.fork(0x7072652d48440000ULL);
  kp::util::Prng proj_stream = prng.fork(0x70726f6a2d757600ULL);
  std::optional<core::Preconditioner<F>> pre;
  std::vector<E> u(n), v(n);
  std::uint64_t proj_seed = 0;
  bool redraw_pre = true, redraw_proj = true;
  bool pre_alone = false, proj_alone = false;
  std::uint64_t s = opt.sample_size;

  for (res.attempts = 1; res.attempts <= opt.max_attempts; ++res.attempts) {
    const int attempt = res.attempts;
    const FailureKind kind = [&]() -> FailureKind {
      {
        SpanScope sp(tr, "core.draw", req);
        if (redraw_pre) {
          kp::util::Prng r = pre_stream.fork(static_cast<std::uint64_t>(attempt));
          pre = core::Preconditioner<F>::draw(f, n, r, s);
        }
        if (redraw_proj) {
          kp::util::Prng r = proj_stream.fork(static_cast<std::uint64_t>(attempt));
          proj_seed = r.seed();
          for (auto& e : u) e = f.sample(r, s);
          for (auto& e : v) e = f.sample(r, s);
        }
      }
      {
        SpanScope sp(tr, "core.precondition", req);
        for (const auto& d : pre->diagonal.entries()) {
          if (f.is_zero(d)) return FailureKind::kSingularPrecondition;
        }
      }

      std::vector<E> g, xt;
      if (route == core::KrylovRoute::kDoubling) {
        const auto at = [&] {
          SpanScope sp(tr, "core.precondition", req);
          return core::detail::dense_preconditioned(f, ring, a, *pre);
        }();
        const auto seq = [&] {
          SpanScope sp(tr, "core.projection", req);
          return core::krylov_sequence_doubling(f, at, u, v, 2 * n, opt.matmul);
        }();
        {
          SpanScope sp(tr, "seq.toeplitz_charpoly", req);
          const FailureKind k = detail::toeplitz_generator(f, ring, seq, n, opt, g);
          if (k != FailureKind::kNone) return k;
        }
        SpanScope sp(tr, "core.finish", req);
        const auto q = core::solution_combination(f, g);
        const auto block = core::krylov_block(f, at, b, n, opt.matmul);
        xt = core::krylov_combine(f, block, q);
      } else if (bw > 1) {
        const auto at = [&] {
          SpanScope sp(tr, "core.precondition", req);
          return pre->box(f, ring, a);
        }();
        kp::util::Prng br{proj_seed};
        const auto [ut, vb] = [&] {
          SpanScope sp(tr, "core.draw", req);
          auto rows = core::random_block_rows(f, bw, n, br, s);
          auto cols = core::random_block_columns(f, bw, n, br, s);
          return std::make_pair(std::move(rows), std::move(cols));
        }();
        const auto sq = [&] {
          SpanScope sp(tr, "core.projection", req);
          return core::block_krylov_sequence(f, at, ut, vb,
                                             2 * ((n + bw - 1) / bw) + 2);
        }();
        auto gen = [&] {
          SpanScope sp(tr, "seq.sigma_basis", req);
          return kp::seq::matrix_berlekamp_massey(f, sq);
        }();
        if (!gen.ok()) return gen.status().kind();
        {
          SpanScope sp(tr, "core.generator_det", req);
          auto det = core::detail::generator_determinant(f, gen.value());
          if (!det.ok()) return det.status().kind();
          g = det.take();
          if (!f.eq(g.back(), f.one())) {
            const auto ilc = f.inv(g.back());
            for (auto& e : g) e = f.mul(e, ilc);
          }
          if (g.size() != n + 1) return FailureKind::kDegenerateProjection;
          if (f.eq(g[0], f.zero())) return FailureKind::kZeroConstantTerm;
        }
        SpanScope sp(tr, "core.finish", req);
        xt = core::solve_from_annihilator(f, at, g, b);
      } else {
        const auto at = [&] {
          SpanScope sp(tr, "core.precondition", req);
          return pre->box(f, ring, a);
        }();
        const auto seq = [&] {
          SpanScope sp(tr, "core.projection", req);
          return matrix::krylov_sequence_iterative(f, at, u, v, 2 * n);
        }();
        {
          SpanScope sp(tr, "seq.toeplitz_charpoly", req);
          const FailureKind k = detail::toeplitz_generator(f, ring, seq, n, opt, g);
          if (k != FailureKind::kNone) return k;
        }
        SpanScope sp(tr, "core.finish", req);
        xt = core::solve_from_annihilator(f, at, g, b);
      }

      {
        SpanScope sp(tr, "core.det_hd", req);
        const auto det_hd = pre->det(f, opt.newton);
        if (f.is_zero(det_hd)) return FailureKind::kSingularPrecondition;
        const auto det_at = (n % 2 == 0) ? g[0] : f.neg(g[0]);
        res.det = f.div(det_at, det_hd);
      }
      {
        SpanScope sp(tr, "core.unprecondition", req);
        res.x = pre->unprecondition(f, ring, xt);
      }
      if (opt.verify) {
        SpanScope sp(tr, "core.verify", req);
        if (a.apply(res.x) != b) return FailureKind::kVerifyMismatch;
      }
      return FailureKind::kNone;
    }();

    if (kind == FailureKind::kNone) {
      res.ok = true;
      return res;
    }
    res.x.clear();

    // kp_solve's stage-targeted retry policy.
    bool want_pre = true, want_proj = true;
    if (kind == FailureKind::kDegenerateProjection) want_pre = false;
    if (kind == FailureKind::kSingularPrecondition ||
        kind == FailureKind::kZeroConstantTerm) {
      want_proj = false;
    }
    if (!want_pre && proj_alone) want_pre = true;
    if (!want_proj && pre_alone) want_proj = true;
    if (want_pre && want_proj) {
      pre_alone = proj_alone = false;
      if (s < (std::uint64_t{1} << 62)) s *= 2;
    } else if (want_proj) {
      proj_alone = true;
    } else {
      pre_alone = true;
    }
    redraw_pre = want_pre;
    redraw_proj = want_proj;
  }
  res.attempts = opt.max_attempts;

  if (opt.dense_fallback) {
    // kp_solve's deterministic settle after exhausted attempts.
    SpanScope sp(tr, "core.fallback", req);
    const matrix::Matrix<F> dense = [&]() -> matrix::Matrix<F> {
      if constexpr (requires {
                      { a.matrix() } -> std::convertible_to<const matrix::Matrix<F>&>;
                    }) {
        return a.matrix();
      } else {
        return matrix::materialize_dense(f, a);
      }
    }();
    res.det = matrix::det_gauss(f, dense);
    if (!f.is_zero(res.det)) {
      if (auto x = matrix::solve_gauss(f, dense, b)) {
        res.x = *std::move(x);
        res.ok = true;
      }
    }
  }
  return res;
}

}  // namespace perfbench
