// Polynomial evaluation and interpolation.
//
// The transposed-Vandermonde application in section 4 of the paper relates
// transposed-system solving to interpolation; these routines provide both
// directions (multipoint evaluation = Vandermonde * coeffs, interpolation =
// Vandermonde^{-1} * values) as the reference the circuit transform is
// checked against.
#pragma once

#include <cassert>
#include <vector>

#include "field/concepts.h"
#include "field/kernels.h"
#include "poly/poly_ring.h"
#include "util/status.h"

namespace kp::poly {

/// Evaluates a at every point; O(n * k) Horner steps.
template <kp::field::Field F>
std::vector<typename F::Element> multipoint_eval(
    const PolyRing<F>& ring, const typename PolyRing<F>::Element& a,
    const std::vector<typename F::Element>& points) {
  std::vector<typename F::Element> out;
  out.reserve(points.size());
  for (const auto& x : points) out.push_back(ring.eval(a, x));
  return out;
}

/// Newton-form interpolation through (points[i], values[i]); the points must
/// be pairwise distinct.  Returns the unique polynomial of degree < n, or
/// kDivisionByZero if two points coincide (detected in every build mode).
template <kp::field::Field F>
kp::util::StatusOr<typename PolyRing<F>::Element> interpolate_status(
    const PolyRing<F>& ring, const std::vector<typename F::Element>& points,
    const std::vector<typename F::Element>& values) {
  assert(points.size() == values.size());
  const F& f = ring.base();
  const std::size_t n = points.size();
  if (n == 0) return ring.zero();

  // Divided differences.  The denominators of one level depend only on the
  // points, so word-sized prime fields invert them together (Montgomery's
  // batch trick, one Euclid per level instead of one per entry, still
  // charged as one logical division each).
  std::vector<typename F::Element> dd = values;
  for (std::size_t level = 1; level < n; ++level) {
    if constexpr (kp::field::kernels::FastField<F>) {
      std::vector<typename F::Element> denom(n - level);
      for (std::size_t i = n - 1; i >= level; --i) {
        denom[i - level] = f.sub(points[i], points[i - level]);
      }
      // A zero denominator means two interpolation points coincide; the
      // batch inversion detects it before mutating anything.
      const auto st =
          kp::field::kernels::batch_inverse(f, denom.data(), denom.size());
      if (!st.ok()) return st;
      for (std::size_t i = n - 1; i >= level; --i) {
        dd[i] = kp::field::kernels::mul_uncounted(f, f.sub(dd[i], dd[i - 1]),
                                                  denom[i - level]);
      }
    } else {
      for (std::size_t i = n - 1; i >= level; --i) {
        const auto denom = f.sub(points[i], points[i - level]);
        if (f.eq(denom, f.zero())) {
          return kp::util::Status::Fail(
              kp::util::FailureKind::kDivisionByZero, kp::util::Stage::kNone,
              "interpolate: coincident points");
        }
        dd[i] = f.div(f.sub(dd[i], dd[i - 1]), denom);
      }
    }
  }

  // Assemble sum_k dd[k] * prod_{j<k} (x - points[j]) by Horner from the top.
  typename PolyRing<F>::Element acc{dd[n - 1]};
  ring.strip(acc);
  for (std::size_t k = n - 1; k-- > 0;) {
    // acc <- acc * (x - points[k]) + dd[k]
    typename PolyRing<F>::Element factor{f.neg(points[k]), f.one()};
    acc = ring.add(ring.mul(acc, factor), typename PolyRing<F>::Element{dd[k]});
  }
  return acc;
}

}  // namespace kp::poly
