// The Las Vegas attempt loop behind every randomized entry point.
//
// Each Theorem-4 attempt draws H, D, u and v; estimate (2) bounds its failure
// rate, and a detected failure means a re-draw.  run_attempts is that loop,
// once, for the Theorem-4 attempt (detail::theorem4_attempts in
// core/solver.h: kp_solve, kp_det, Session::prepare) and the scalar and block
// Wiedemann solves.  An entry point supplies the attempt body and its
// RedrawPolicy, plain data fixed at the call site.  Also here:
// the two steps every charpoly route shares, the deg / g(0) gate and the
// det(A) = (-1)^n g(0) / det(H D) finish.
#pragma once

#include <cstdint>
#include <vector>

#include "core/preconditioners.h"
#include "field/concepts.h"
#include "seq/newton_toeplitz.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/status.h"

namespace kp::core::detail {

/// The random components the next attempt must draw afresh.
struct Redraw {
  bool precondition = true;  ///< H, D
  bool projection = true;    ///< u, v (block routes: U, V, Z)
};

/// One entry point's retry policy.
struct RedrawPolicy {
  int max_attempts = 3;
  /// 2: H, D and the projection fail independently (Theorem 2 vs Lemma 2),
  /// so a retry re-draws only the implicated one.  1: one component, and
  /// every retry is a full restart.
  int components = 2;
  /// Double |S| on each full restart (estimate (2) halves the bound).
  bool escalate_sample_size = false;
  /// Stop after a failed attempt that spent more field ops (0 = no cap).
  std::uint64_t op_budget = 0;
};

/// How the loop ended.
struct AttemptsOutcome {
  util::Status status;  ///< Ok, or the failure that ended the loop
  int attempts = 0;     ///< deciding attempt; max_attempts + 1 if exhausted
  std::uint64_t sample_size = 0;  ///< |S| of the last attempt run
};

/// Runs body(attempt, s, redraw, diag) -> util::Status until an attempt
/// succeeds, a control failure ends the run, a failed attempt exceeds the op
/// budget (kOpBudgetExhausted), or the attempts run out.  The body records
/// the seeds and redraw flags it used in `diag`; the loop fills in the rest
/// and appends the record to *diags unless diags is null.
template <class Body>
AttemptsOutcome run_attempts(const RedrawPolicy& policy,
                             std::uint64_t sample_size,
                             std::vector<util::Diag>* diags, Body&& body) {
  using util::FailureKind;
  AttemptsOutcome out;
  Redraw redraw;
  // Escalation state: has this component already been re-drawn ALONE since
  // the other last changed?  A second targeted failure then implicates the
  // pair and forces a full restart.
  bool pre_alone = false, proj_alone = false;
  std::uint64_t s = sample_size;

  for (out.attempts = 1; out.attempts <= policy.max_attempts; ++out.attempts) {
    kp::util::fault::AttemptScope attempt_scope(out.attempts);
    kp::util::OpScope ops;
    util::Diag diag;
    diag.attempt = out.attempts;
    diag.sample_size = out.sample_size = s;
    out.status = body(out.attempts, s, redraw, diag);
    diag.kind = out.status.kind();
    diag.stage = out.status.stage();
    diag.injected = out.status.injected();
    diag.ops = ops.counts();
    if (diags != nullptr) diags->push_back(diag);

    // A control failure is not bad luck: the caller stopped wanting the
    // answer, so no further attempt may run.
    if (out.status.ok() || util::is_control_failure(out.status.kind())) {
      return out;
    }
    if (policy.op_budget != 0 && diag.ops.total() > policy.op_budget) {
      out.status = util::Status::Fail(FailureKind::kOpBudgetExhausted,
                                      out.status.stage(),
                                      "attempt exceeded op_budget_per_attempt");
      return out;
    }

    // Stage-targeted retry: re-draw only the component the FailureKind
    // implicates; everything else (verify mismatch, injected synthetic
    // faults) restarts both.
    bool pre = true, proj = true;
    if (policy.components == 2) {
      switch (out.status.kind()) {
        case FailureKind::kDegenerateProjection:
          pre = false;
          break;
        case FailureKind::kSingularPrecondition:
        case FailureKind::kZeroConstantTerm:
          proj = false;
          break;
        default:
          break;
      }
      if (!pre && proj_alone) pre = true;  // escalate: pair implicated
      if (!proj && pre_alone) proj = true;
    }
    if (pre && proj) {
      pre_alone = proj_alone = false;
      if (policy.escalate_sample_size && s < (std::uint64_t{1} << 62)) s *= 2;
    } else if (proj) {
      proj_alone = true;
    } else {
      pre_alone = true;
    }
    redraw = {pre, proj};
  }
  return out;
}

/// Gate between a generator candidate g and its use as the charpoly of
/// A-tilde: deg g != n means the projection lost information (Lemma 2;
/// kDegenerateProjection at `degree_stage`), g(0) = 0 that A-tilde is
/// singular (A itself or an unlucky H, D; kZeroConstantTerm).
template <kp::field::Field F>
util::Status check_charpoly(const F& f,
                            const std::vector<typename F::Element>& g,
                            std::size_t n, util::Stage degree_stage) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  if (g.size() != n + 1) {
    return Status::Fail(FailureKind::kDegenerateProjection, degree_stage,
                        "deg g != n: generator misses charpoly");
  }
  if (KP_FAULT_POINT(Stage::kCharpoly)) {
    return Status::Injected(FailureKind::kZeroConstantTerm, Stage::kCharpoly);
  }
  if (f.eq(g[0], f.zero())) {
    return Status::Fail(FailureKind::kZeroConstantTerm, Stage::kCharpoly,
                        "g(0) = 0: A-tilde singular");
  }
  return Status::Ok();
}

/// det(A) = (-1)^n g(0) / det(H D) from the charpoly g of A-tilde = A H D.
/// det(H D) comes from Preconditioner::det: the O(n^2) Hankel recurrence, or
/// Theorem 3 when depth_optimal asks for a polylog-depth circuit.  It can
/// only vanish on an unlucky draw (g(0) != 0 already rules out the
/// composite), but the zero check guards the division regardless; the
/// Preconditioner::det fault site reaches it.
template <kp::field::Field F>
util::StatusOr<typename F::Element> det_from_charpoly(
    const F& f, const Preconditioner<F>& pre,
    const std::vector<typename F::Element>& g,
    seq::NewtonIdentityMethod newton =
        seq::NewtonIdentityMethod::kTriangularSolve,
    bool depth_optimal = false) {
  const auto det_hd = pre.det(f, newton, depth_optimal);
  if (f.is_zero(det_hd)) {
    return util::Status::Fail(util::FailureKind::kSingularPrecondition,
                              util::Stage::kPrecondition, "det(H D) = 0");
  }
  const std::size_t n = g.size() - 1;
  return f.div((n % 2 == 0) ? g[0] : f.neg(g[0]), det_hd);
}

}  // namespace kp::core::detail
