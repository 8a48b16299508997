// The Theorem-4 solver and determinant: the paper's main result.
//
// Pipeline (section 3, "From Theorem 3 we can obtain ... size-efficient
// randomized circuits for solving general non-singular systems"):
//
//   1. Draw the random Hankel H, diagonal D, row vector u, column vector v
//      with entries from S; form A-tilde = A H D.               [Theorem 2]
//   2. a_i = u A-tilde^i v for i < 2n, either via Krylov doubling (9)
//      [O(n^w log n), the processor-efficient dense route; one pass over
//      the powers A-tilde^{2^j} also builds the Krylov block of b for step
//      4] or via 2n black-box products (8) [the cheap route when one
//      product costs o(n^2): sparse O(nnz), structured O(M(n))].
//   3. The generator c solves T c = (a_n..a_{2n-1}), T = Toeplitz(a_0..
//      a_{2n-2}) (Lemma 1).  Sequentially, Berlekamp-Massey finds it in
//      O(n^2); deg c = n exactly when det T != 0 (Massey's uniqueness
//      theorem), so the gate and the answer are those of Theorem 3.  Under
//      depth_optimal (and so in every recorded circuit): charpoly(T) by
//      Theorem 3, then Cayley-Hamilton on T, O(log^2 n) deep.
//   4. c is w.h.p. the characteristic polynomial of A-tilde     [est. (2)];
//      Cayley-Hamilton on A-tilde (through the Krylov block of b) gives
//      x-tilde = A-tilde^{-1} b, and x = H D x-tilde.
//   5. det(A) = (-1)^n g(0) / (det(H) det(D)), det(H) by the O(n^2)
//      Berlekamp-Massey leading-minor recurrence on H's entries; under
//      depth_optimal (or on the rare undetermined draw) via the row-mirror
//      Toeplitz and Theorem 3, whose polylog depth the circuit keeps.
//
// Every stage touches A only through matrix-vector products, so kp_solve /
// kp_det accept any matrix::LinOp; dense matrix::Matrix<F> call sites keep
// working through an adapter overload that wraps a DenseBox.  The
// preconditioned operator is composed lazily (PreconditionedBox); only the
// dense doubling route materializes A-tilde.
//
// Failure handling (the Las Vegas layer, see DESIGN.md section 9):
//
//   * Every detected failure carries a util::Status naming its FailureKind
//     and Stage, and every attempt leaves a util::Diag (seeds, what was
//     re-drawn, op cost) in SolveResult::diags.
//   * One attempt, detail::theorem4_attempts, serves kp_solve, kp_det and
//     Session::prepare; its loop is detail::run_attempts (core/las_vegas.h),
//     shared with the Wiedemann solves.
//   * Retries are STAGE-TARGETED: the paper's failure events are
//     independent, so a degenerate u/v projection (Lemma 2) re-draws only
//     u, v; a singular/unlucky preconditioner (Theorem 2 / estimate (1))
//     re-draws only H, D; only a verify mismatch -- or a second failure of
//     the same component -- forces a full restart.  Full restarts also
//     escalate |S|.  The two components draw from independent forked
//     streams (util/prng.h), so a targeted re-draw cannot disturb the other
//     component's randomness.
//   * A per-attempt op budget (SolverOptions::op_budget_per_attempt) stops
//     the Las Vegas loop on pathological inputs and degrades to the dense
//     baseline (Gaussian elimination on the materialized operator), which
//     also deterministically separates kSingularInput from bad luck.
//
// On non-singular inputs the per-attempt failure probability is
// <= 3n^2/|S| (estimate (2)); the returned solution is verified (Las Vegas)
// when options.verify is set, so a wrong x is never returned.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/annihilator.h"
#include "core/krylov.h"
#include "core/las_vegas.h"
#include "core/preconditioners.h"
#include "core/wiedemann.h"
#include "field/concepts.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "seq/berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

/// Tuning knobs for the Theorem-4 pipeline.
struct SolverOptions {
  std::uint64_t sample_size = 1ULL << 30;  ///< card(S); bound is 3n^2/|S|
  int max_attempts = 3;                    ///< Las Vegas retries
  bool verify = true;                      ///< check A x = b before returning
  matrix::MatMulStrategy matmul = matrix::MatMulStrategy::kClassical;
  seq::NewtonIdentityMethod newton = seq::NewtonIdentityMethod::kTriangularSolve;
  /// How the Krylov data of steps 2 and 4 is produced.  kAuto keys off the
  /// operator's BoxStructure: doubling (9) for dense operators, iterative
  /// (8) for sparse/structured ones where n black-box products beat an
  /// O(n^omega log n) dense doubling.
  KrylovRoute route = KrylovRoute::kAuto;
  /// Build every stage for poly-logarithmic CIRCUIT depth, as Theorem 4
  /// states: the generator by Theorem 3 (charpoly of the Lemma-1 Toeplitz
  /// T, then Cayley-Hamilton through a doubling Krylov block on T) instead
  /// of the O(n)-deep Berlekamp-Massey recurrence, and det(H) by Theorem 3
  /// instead of the O(n^2) Hankel recurrence.  Same answers, same failure
  /// reports; several times the work.  The Newton-identity step has its own
  /// knob (`newton`; circuit/builders.h pairs this with kPowerSeriesExp).
  /// The default optimizes sequential work instead.
  bool depth_optimal = false;
  /// Cap on the field operations one attempt may spend (0 = unlimited).
  /// When a failed attempt exceeds it, the Las Vegas loop stops and the
  /// pipeline degrades to the dense baseline route instead of looping on a
  /// pathological input.
  std::uint64_t op_budget_per_attempt = 0;
  /// After the attempts are exhausted, materialize the operator and settle
  /// the outcome with Gaussian elimination: a deterministic answer, or a
  /// deterministic kSingularInput verdict.
  bool dense_fallback = false;
  /// Record a util::Diag per attempt in SolveResult::diags.
  bool collect_diag = true;
  /// Width b of the Krylov projections on the iterative route: b = 1 is the
  /// scalar sequence u A-tilde^i v; b > 1 switches to block projections
  /// U A-tilde^i V with the sigma-basis generator (core/block_krylov.h,
  /// seq/matrix_berlekamp_massey.h), cutting the iteration count ~b x and
  /// batching every step's applies over the pool.  Falls back to 1 when the
  /// route is doubling, n <= 1, or the field is too small for the
  /// det-by-interpolation step (characteristic < 2n + 2).
  std::size_t block_width = 1;
  /// Cooperative deadline/cancellation token (util/deadline.h), checked at
  /// the same stage boundaries as the KP_FAULT_POINT sites.  A trip aborts
  /// the run with kDeadlineExceeded/kCancelled at the stage that noticed:
  /// no further attempts, no dense fallback -- the caller stopped wanting
  /// the answer.  Not owned; must outlive the call.  nullptr = uncontrolled.
  const util::ExecControl* control = nullptr;
};

/// Outcome of one pipeline run.
template <kp::field::Field F>
struct SolveResult {
  bool ok = false;                          ///< false: singular or unlucky
  std::vector<typename F::Element> x;       ///< solution of A x = b
  typename F::Element det{};                ///< det(A) (always computed)
  std::vector<typename F::Element> charpoly_at;  ///< charpoly of A-tilde
  int attempts = 0;
  KrylovRoute route_used = KrylovRoute::kAuto;   ///< resolved route
  util::Status status;             ///< Ok, or the run's final failure
  std::vector<util::Diag> diags;   ///< one record per attempt (collect_diag)
  bool used_fallback = false;      ///< answer came from the dense baseline
  std::uint64_t sample_size_used = 0;  ///< |S| of the last attempt
};

namespace detail {

/// Steps 3-4a of one attempt: from the projected sequence a_0..a_{2n-1} of
/// the preconditioned operator, recover the generator g (monic, degree n,
/// g(0) != 0) of Lemma 1, the solution of T y = (a_n .. a_{2n-1}) for the
/// Toeplitz T = T_n of the sequence.  By default Berlekamp-Massey finds it in
/// O(n^2): with 2n >= 2L terms the shortest recurrence is unique (Massey),
/// so deg g = n exactly when det(T) != 0, and then g is the Theorem-3
/// solution.  depth_optimal runs Theorem 3 itself (charpoly of T, then the
/// Cayley-Hamilton solve through a doubling Krylov block), whose O(log^2 n)
/// depth the circuit keeps.  The two distinguishable failures map onto the
/// taxonomy:
///   det(T) = 0  -> the projection lost information (deg f_u < n, Lemma 2):
///                  kDegenerateProjection, re-draw u, v;
///   g(0) = 0    -> A-tilde is singular (A itself, or an unlucky H/D):
///                  kZeroConstantTerm, re-draw H, D.
template <kp::field::Field F>
util::Status generator_from_sequence_status(
    const F& f, const std::vector<typename F::Element>& seq, std::size_t n,
    const SolverOptions& opt, std::vector<typename F::Element>& g_out) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  if (KP_FAULT_POINT(Stage::kNewtonToeplitz)) {
    return Status::Injected(FailureKind::kDegenerateProjection,
                            Stage::kNewtonToeplitz);
  }
  auto singular_t = [] {
    return Status::Fail(FailureKind::kDegenerateProjection,
                        Stage::kNewtonToeplitz, "det(T) = 0: deg f_u < n");
  };
  std::vector<typename F::Element> g;
  if (opt.depth_optimal) {
    // The paper's route: charpoly(T) by Theorem 3, then T^{-1} rhs by
    // Cayley-Hamilton through a doubling Krylov block on the dense T ("Again
    // from (9) we deduce ..."): depth O(log^2 n).
    const auto t = matrix::Toeplitz<F>::from_sequence(n, seq);
    const std::vector<typename F::Element> rhs(
        seq.begin() + static_cast<std::ptrdiff_t>(n), seq.end());
    const auto p = seq::toeplitz_charpoly(f, t, opt.newton);
    if (f.is_zero(p[0])) return singular_t();
    const auto q = solution_combination(f, p);
    const auto block = krylov_block(f, t.to_dense(f), rhs, n, opt.matmul);
    const auto y = krylov_combine(f, block, q);
    // y = (c_{n-1}, ..., c_0); g = x^n - c_{n-1} x^{n-1} - ... - c_0.
    g.assign(n + 1, f.zero());
    g[n] = f.one();
    for (std::size_t i = 0; i < n; ++i) g[n - 1 - i] = f.neg(y[i]);
  } else {
    g = seq::berlekamp_massey(f, seq);
    if (KP_FAULT_POINT(Stage::kNewtonToeplitz) || g.size() != n + 1) {
      return singular_t();
    }
  }
  if (Status st = check_charpoly(f, g, n, Stage::kNewtonToeplitz); !st.ok()) {
    return st;
  }
  g_out = std::move(g);
  return Status::Ok();
}

/// Effective block width of the iterative route: SolverOptions::block_width
/// clamped to n, or 1 (the scalar sequence) when blocking is off, the system
/// is trivial, or the field cannot supply the 2n + 2 distinct evaluation
/// points the sigma-basis det-by-interpolation recovery may need.
template <kp::field::Field F>
std::size_t effective_block_width(const F& f, const SolverOptions& opt,
                                  std::size_t n) {
  if (opt.block_width <= 1 || n <= 1) return 1;
  const std::uint64_t p = f.characteristic();
  if (p != 0 && p < 2 * n + 2) return 1;
  return opt.block_width < n ? opt.block_width : n;
}

/// Dense A-tilde for the doubling route: the O(n^2 polylog) Hankel-product
/// formation when the box exposes its dense matrix, otherwise n black-box
/// products (identical values either way -- exact arithmetic).
template <kp::field::Field F, matrix::LinOp B>
matrix::Matrix<F> dense_preconditioned(const F& f,
                                       const kp::poly::PolyRing<F>& ring,
                                       const B& a, const Preconditioner<F>& pre) {
  if constexpr (requires {
                  { a.matrix() } -> std::convertible_to<const matrix::Matrix<F>&>;
                }) {
    return pre.apply_dense(f, ring, a.matrix());
  } else {
    return matrix::materialize_dense(f, pre.box(f, ring, a));
  }
}

/// The degraded route: materialize A and settle the outcome with Gaussian
/// elimination.  Deterministic, O(n^3) -- the price of certainty when the
/// randomized attempts were stopped (op budget) or exhausted
/// (dense_fallback); also the only path that PROVES kSingularInput.
template <kp::field::Field F, matrix::LinOp B>
void dense_fallback_run(const F& f, const B& a,
                        const std::vector<typename F::Element>* rhs,
                        SolveResult<F>& res) {
  res.used_fallback = true;
  const matrix::Matrix<F>& dense = [&]() -> matrix::Matrix<F> {
    if constexpr (requires {
                    { a.matrix() } -> std::convertible_to<const matrix::Matrix<F>&>;
                  }) {
      return a.matrix();
    } else {
      return matrix::materialize_dense(f, a);
    }
  }();
  res.det = matrix::det_gauss(f, dense);
  if (f.is_zero(res.det)) {
    res.ok = false;
    res.status = util::Status::Fail(util::FailureKind::kSingularInput,
                                    util::Stage::kSolveFinish,
                                    "Gaussian elimination: det(A) = 0");
    return;
  }
  if (rhs) {
    auto x = matrix::solve_gauss(f, dense, *rhs);
    if (!x) {
      res.ok = false;
      res.status = util::Status::Fail(util::FailureKind::kSingularInput,
                                      util::Stage::kSolveFinish,
                                      "Gaussian elimination: no solution");
      return;
    }
    res.x = *std::move(x);
  }
  res.charpoly_at.clear();  // the baseline route does not produce one
  res.ok = true;
  res.status = util::Status::Ok();
}

/// What the successful Theorem-4 attempt leaves for its caller: H and D, the
/// charpoly g of A-tilde = A H D and det(A); on the iterative routes also the
/// lazily composed A-tilde, and with a right-hand side x-tilde = A-tilde^{-1}
/// b.  The doubling route's dense A-tilde and Krylov blocks stay local to the
/// attempt.
template <kp::field::Field F, matrix::LinOp B>
struct Transcript {
  std::optional<Preconditioner<F>> pre;
  std::optional<matrix::PreconditionedBox<F, B>> box;
  std::vector<typename F::Element> g;
  typename F::Element det{};
  std::vector<typename F::Element> xt;
};

/// The Theorem-4 attempt loop (steps 1-5) behind kp_solve, kp_det and
/// Session::prepare, on the caller's RedrawPolicy.  H, D and u, v come from
/// two streams forked off `prng`, so a targeted re-draw of one component
/// leaves the other's randomness untouched.  `finish()` closes every attempt
/// that reached det(A) -- kp_solve's unprecondition and verify -- and its
/// failure fails the attempt.  The outcome's transcript is `t`.
template <kp::field::Field F, matrix::LinOp B, class Finish>
  requires std::same_as<typename B::Element, typename F::Element>
AttemptsOutcome theorem4_attempts(const F& f, const kp::poly::PolyRing<F>& ring,
                                  const B& a,
                                  const std::vector<typename F::Element>* rhs,
                                  kp::util::Prng& prng, const SolverOptions& opt,
                                  const RedrawPolicy& policy,
                                  std::vector<util::Diag>* diags,
                                  Transcript<F, B>& t, Finish&& finish) {
  using E = typename F::Element;
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t n = a.dim();
  const auto route = resolve_route(opt.route, matrix::box_structure(a));
  kp::util::Prng pre_stream = prng.fork(0x7072652d48440000ULL);   // "pre-HD"
  kp::util::Prng proj_stream = prng.fork(0x70726f6a2d757600ULL);  // "proj-uv"
  std::vector<E> u(n), v(n);
  std::uint64_t pre_seed = 0, proj_seed = 0;

  return run_attempts(
      policy, opt.sample_size, diags,
      [&](int attempt, std::uint64_t s, Redraw redraw,
          util::Diag& diag) -> Status {
        // Deadline/cancellation checks share the fault-point boundaries: one
        // at the draw, one after the Krylov work, one before verification.
        if (Status ctl = util::ExecControl::check(opt.control, Stage::kDraw);
            !ctl.ok()) {
          return ctl;
        }
        if (KP_FAULT_POINT(Stage::kDraw)) {
          return Status::Injected(FailureKind::kInjectedFault, Stage::kDraw);
        }
        if (redraw.precondition) {
          kp::util::Prng r =
              pre_stream.fork(static_cast<std::uint64_t>(attempt));
          pre_seed = r.seed();
          t.pre = Preconditioner<F>::draw(f, n, r, s);
        }
        if (redraw.projection) {
          kp::util::Prng r =
              proj_stream.fork(static_cast<std::uint64_t>(attempt));
          proj_seed = r.seed();
          for (auto& e : u) e = f.sample(r, s);
          for (auto& e : v) e = f.sample(r, s);
        }
        diag.precondition_seed = pre_seed;
        diag.projection_seed = proj_seed;
        diag.redrew_precondition = redraw.precondition;
        diag.redrew_projection = redraw.projection;

        // Proactive Theorem-2 check: a zero diagonal entry makes D -- hence
        // A-tilde -- singular; catch it before spending the Krylov work.
        if (KP_FAULT_POINT(Stage::kPrecondition)) {
          return Status::Injected(FailureKind::kSingularPrecondition,
                                  Stage::kPrecondition);
        }
        for (const auto& d : t.pre->diagonal.entries()) {
          if (f.is_zero(d)) {
            return Status::Fail(FailureKind::kSingularPrecondition,
                                Stage::kPrecondition,
                                "zero diagonal entry: det(D) = 0");
          }
        }

        if (route == KrylovRoute::kDoubling) {
          const auto at = dense_preconditioned(f, ring, a, *t.pre);
          // a_i = u A-tilde^i v by doubling (9); with a right-hand side the
          // same pass over the powers A-tilde^{2^j} also builds the Krylov
          // block of b for the finish.
          const auto blocks =
              rhs ? krylov_blocks(f, at, {&v, rhs}, {2 * n, n}, opt.matmul)
                  : krylov_blocks(f, at, {&v}, {2 * n}, opt.matmul);
          const auto seq = matrix::vec_mat(f, u, blocks[0]);
          if (KP_FAULT_POINT(Stage::kProjection)) {
            return Status::Injected(FailureKind::kDegenerateProjection,
                                    Stage::kProjection);
          }
          Status gst = generator_from_sequence_status(f, seq, n, opt, t.g);
          if (!gst.ok()) return gst;
          if (rhs) {
            // Cayley-Hamilton solve of A-tilde xt = b through the Krylov block.
            t.xt = krylov_combine(f, blocks[1], solution_combination(f, t.g));
          }
        } else {
          // The iterative routes compose A*H*D lazily and keep it.
          const auto& at = t.box.emplace(f, ring, a, t.pre->hankel,
                                         t.pre->diagonal);
          if (const std::size_t bw = effective_block_width(f, opt, n);
              bw > 1) {
            // Block route: ~2n/bw batched block applies feeding the
            // sigma-basis.  U, V are re-derived from the recorded projection
            // seed, so a kept projection replays bit-identically and a redraw
            // targets only this stream.
            kp::util::Prng br{proj_seed};
            auto g_or = detail::block_charpoly_candidate(f, at, bw, br, s);
            if (!g_or.ok()) return g_or.status();
            t.g = g_or.take();
            Status gst = check_charpoly(f, t.g, n, Stage::kBlockGenerator);
            if (!gst.ok()) return gst;
          } else {
            // Route (8): 2n products with A-tilde.
            const auto seq =
                matrix::krylov_sequence_iterative(f, at, u, v, 2 * n);
            if (KP_FAULT_POINT(Stage::kProjection)) {
              return Status::Injected(FailureKind::kDegenerateProjection,
                                      Stage::kProjection);
            }
            Status gst = generator_from_sequence_status(f, seq, n, opt, t.g);
            if (!gst.ok()) return gst;
          }
          if (rhs) t.xt = solve_from_annihilator(f, at, t.g, *rhs);
        }

        if (Status ctl =
                util::ExecControl::check(opt.control, Stage::kSolveFinish);
            !ctl.ok()) {
          return ctl;
        }
        auto det_a =
            det_from_charpoly(f, *t.pre, t.g, opt.newton, opt.depth_optimal);
        if (!det_a.ok()) return det_a.status();
        t.det = det_a.take();
        return finish();
      });
}

/// kp_solve (rhs != nullptr) and kp_det (rhs == nullptr): the Theorem-4
/// attempts with two independently re-drawable components, |S| doubled on
/// each full restart and the per-attempt op budget; a right-hand side adds
/// the unprecondition and Las Vegas verify steps to every attempt.
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
SolveResult<F> theorem4_run(const F& f, const B& a,
                            const std::vector<typename F::Element>* rhs,
                            kp::util::Prng& prng, const SolverOptions& opt) {
  using E = typename F::Element;
  using util::FailureKind;
  using util::Stage;
  using util::Status;

  SolveResult<F> res;
  const std::size_t n = a.dim();

  // Public-entry validation: malformed inputs are rejected with a Status,
  // never fed into the pipeline.
  Status valid = util::Require(n > 0, FailureKind::kInvalidArgument,
                               Stage::kNone, "operator dimension is zero");
  if (valid.ok() && rhs != nullptr) {
    valid = util::Require(rhs->size() == n, FailureKind::kInvalidArgument,
                          Stage::kNone, "dim(b) != dim(A)");
  }
  if (valid.ok()) {
    valid = util::Require(opt.max_attempts >= 1, FailureKind::kInvalidArgument,
                          Stage::kNone, "max_attempts must be >= 1");
  }
  if (!valid.ok()) {
    res.status = valid;
    return res;
  }

  kp::poly::PolyRing<F> ring(f);
  res.route_used = resolve_route(opt.route, matrix::box_structure(a));
  Transcript<F, B> t;
  std::vector<E> x;
  const AttemptsOutcome out = theorem4_attempts(
      f, ring, a, rhs, prng, opt,
      {.max_attempts = opt.max_attempts,
       .components = 2,
       .escalate_sample_size = true,
       .op_budget = opt.op_budget_per_attempt},
      opt.collect_diag ? &res.diags : nullptr, t, [&]() -> Status {
        if (!rhs) return Status::Ok();
        if (KP_FAULT_POINT(Stage::kSolveFinish)) {
          return Status::Injected(FailureKind::kVerifyMismatch,
                                  Stage::kSolveFinish);
        }
        x = t.pre->unprecondition(f, ring, t.xt);
        if (opt.verify) {
          if (Status ctl = util::ExecControl::check(opt.control, Stage::kVerify);
              !ctl.ok()) {
            return ctl;
          }
          if (KP_FAULT_POINT(Stage::kVerify)) {
            return Status::Injected(FailureKind::kVerifyMismatch,
                                    Stage::kVerify);
          }
          if (a.apply(x) != *rhs) {
            return Status::Fail(FailureKind::kVerifyMismatch, Stage::kVerify,
                                "A x != b");
          }
        }
        return Status::Ok();
      });
  res.ok = out.status.ok();
  res.attempts = out.attempts;
  res.status = out.status;
  res.sample_size_used = out.sample_size;
  if (res.ok) {
    res.x = std::move(x);
    res.det = t.det;
    res.charpoly_at = std::move(t.g);
    return res;
  }
  if (util::is_control_failure(out.status.kind())) return res;

  // Exhausted (or budget-stopped).  When the sample set could never carry
  // the est.-(2) bound, say so: the caller should route through the
  // section-5 field_lift extension (kp_solve_adaptive does).
  const bool budget_stop = out.status.kind() == FailureKind::kOpBudgetExhausted;
  if (!budget_stop && n < (std::uint64_t{1} << 30) &&
      opt.sample_size < 3 * n * n) {
    res.status = Status::Fail(
        FailureKind::kSampleSetTooSmall, Stage::kDraw,
        "card(S) < 3 n^2: use the section-5 extension lift");
  }
  if (budget_stop || opt.dense_fallback) dense_fallback_run(f, a, rhs, res);
  return res;
}

}  // namespace detail

/// Solves A x = b (and computes det A) with the Theorem-4 pipeline, for any
/// black-box operator A.
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
SolveResult<F> kp_solve(const F& f, const B& a,
                        const std::vector<typename F::Element>& b,
                        kp::util::Prng& prng, SolverOptions opt = {}) {
  return detail::theorem4_run(f, a, &b, prng, opt);
}

/// Determinant only (same pipeline, no right-hand side).
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
SolveResult<F> kp_det(const F& f, const B& a, kp::util::Prng& prng,
                      SolverOptions opt = {}) {
  return detail::theorem4_run<F, B>(f, a, nullptr, prng, opt);
}

/// Dense-matrix adapter: existing call sites keep their signature; the
/// matrix is wrapped in a DenseBox (kAuto then resolves to the doubling
/// route, reproducing the historical dense pipeline exactly).
template <kp::field::Field F>
SolveResult<F> kp_solve(const F& f, const matrix::Matrix<F>& a,
                        const std::vector<typename F::Element>& b,
                        kp::util::Prng& prng, SolverOptions opt = {}) {
  if (!a.is_square()) {
    SolveResult<F> res;
    res.status = util::Status::Fail(util::FailureKind::kInvalidArgument,
                                    util::Stage::kNone, "A must be square");
    return res;
  }
  const matrix::DenseViewBox<F> box(f, a);
  return kp_solve(f, box, b, prng, opt);
}

/// Dense-matrix adapter for the determinant.
template <kp::field::Field F>
SolveResult<F> kp_det(const F& f, const matrix::Matrix<F>& a,
                      kp::util::Prng& prng, SolverOptions opt = {}) {
  if (!a.is_square()) {
    SolveResult<F> res;
    res.status = util::Status::Fail(util::FailureKind::kInvalidArgument,
                                    util::Stage::kNone, "A must be square");
    return res;
  }
  const matrix::DenseViewBox<F> box(f, a);
  return kp_det(f, box, prng, opt);
}

}  // namespace kp::core
