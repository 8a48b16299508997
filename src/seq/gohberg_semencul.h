// The Gohberg-Semencul representation of a Toeplitz inverse (Figure 1).
//
// A non-singular n x n Toeplitz matrix T with (T^{-1})_{1,1} != 0 has its
// inverse fully determined by the first and last columns of T^{-1}:
//
//   T^{-1} = (1/u_1) [ L(u) U(v)  -  L(y-shift) U(u-revshift) ]
//
// where u = first column of T^{-1}, y = last column, v = reverse(y)
// (so v_1 = (T^{-1})_{n,n} = u_1 by persymmetry), L(w) is the lower
// triangular Toeplitz matrix with first column w and U(w) the upper
// triangular Toeplitz matrix with first row w.  The exact index layout was
// validated against dense inverses (see tests/test_seq.cpp).
//
// Everything here is generic over a commutative ring so the same
// representation drives the section-3 Newton iteration, whose "entries" are
// truncated power series; the ring only has to supply the inverse of u_1.
#pragma once

#include <cassert>
#include <optional>
#include <vector>

#include "field/concepts.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "util/fault.h"

namespace kp::seq {

/// Implicit inverse of a Toeplitz matrix.
template <kp::field::CommutativeRing R>
struct GohbergSemencul {
  using Element = typename R::Element;

  std::vector<Element> first_col;  ///< u = T^{-1} e_1
  std::vector<Element> last_col;   ///< y = T^{-1} e_n
  Element u1_inv;                  ///< 1 / u_1, supplied by the caller's ring

  std::size_t dim() const { return first_col.size(); }

  /// T^{-1} z via four triangular-Toeplitz (i.e. polynomial) products.
  std::vector<Element> apply(const kp::poly::PolyRing<R>& ring,
                             const std::vector<Element>& z) const {
    const std::size_t n = dim();
    assert(z.size() == n);
    const R& r = ring.base();

    // v = reverse(last_col); y_shift = (0, y_0, ..., y_{n-2});
    // u_revshift = (0, u_{n-1}, ..., u_1).
    std::vector<Element> v(last_col.rbegin(), last_col.rend());
    std::vector<Element> y_shift(n, r.zero());
    std::vector<Element> u_revshift(n, r.zero());
    for (std::size_t i = 1; i < n; ++i) {
      y_shift[i] = last_col[i - 1];
      u_revshift[i] = first_col[n - i];
    }

    auto t1 = lower_tri_apply(ring, first_col, upper_tri_apply(ring, v, z));
    auto t2 = lower_tri_apply(ring, y_shift, upper_tri_apply(ring, u_revshift, z));
    std::vector<Element> out(n, r.zero());
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = r.mul(u1_inv, r.sub(t1[i], t2[i]));
    }
    return out;
  }

  /// Trace(T^{-1}) by the paper's O(n) formula:
  /// (1/u_1) * sum_j (n - 2j) u_j v_j, j = 0..n-1, v = reverse(last_col).
  Element trace(const R& r) const {
    const std::size_t n = dim();
    auto acc = r.zero();
    for (std::size_t j = 0; j < n; ++j) {
      const auto weight =
          r.from_int(static_cast<std::int64_t>(n) - 2 * static_cast<std::int64_t>(j));
      acc = r.add(acc, r.mul(weight, r.mul(first_col[j], last_col[n - 1 - j])));
    }
    return r.mul(u1_inv, acc);
  }

  /// Materializes the dense inverse (testing/diagnostics).
  matrix::Matrix<R> to_dense(const kp::poly::PolyRing<R>& ring) const {
    const std::size_t n = dim();
    const R& r = ring.base();
    matrix::Matrix<R> out(n, n, r.zero());
    std::vector<Element> e(n, r.zero());
    for (std::size_t j = 0; j < n; ++j) {
      e[j] = r.one();
      auto col = apply(ring, e);
      for (std::size_t i = 0; i < n; ++i) out.at(i, j) = col[i];
      e[j] = r.zero();
    }
    return out;
  }

  /// L(w) z: lower triangular Toeplitz product = truncated convolution.
  static std::vector<Element> lower_tri_apply(const kp::poly::PolyRing<R>& ring,
                                              const std::vector<Element>& w,
                                              const std::vector<Element>& z) {
    const std::size_t n = w.size();
    auto wp = w;
    ring.strip(wp);
    auto zp = z;
    ring.strip(zp);
    const auto prod = ring.mul(wp, zp);
    std::vector<Element> out(n, ring.base().zero());
    for (std::size_t i = 0; i < n; ++i) out[i] = ring.coeff(prod, i);
    return out;
  }

  /// U(w) z: upper triangular Toeplitz product (first row w) via the
  /// reversed convolution out_i = conv(w, reverse(z))[n-1-i].
  static std::vector<Element> upper_tri_apply(const kp::poly::PolyRing<R>& ring,
                                              const std::vector<Element>& w,
                                              const std::vector<Element>& z) {
    const std::size_t n = w.size();
    auto wp = w;
    ring.strip(wp);
    std::vector<Element> zr(z.rbegin(), z.rend());
    ring.strip(zr);
    const auto prod = ring.mul(wp, zr);
    std::vector<Element> out(n, ring.base().zero());
    for (std::size_t i = 0; i < n; ++i) out[i] = ring.coeff(prod, n - 1 - i);
    return out;
  }
};

/// Builds the representation for a Toeplitz matrix over a *field* by solving
/// T u = e_1 and T y = e_n with Gaussian elimination -- the O(n^3) reference
/// constructor; the O(n^2 polylog)-work route is gs_from_toeplitz below.
/// Returns nullopt when T is singular or (T^{-1})_{1,1} = 0 (the formula's
/// precondition fails).
template <kp::field::Field F>
std::optional<GohbergSemencul<F>> gs_from_toeplitz_gauss(
    const F& f, const matrix::Toeplitz<F>& t) {
  const auto dense = t.to_dense(f);
  const std::size_t n = t.dim();
  std::vector<typename F::Element> e1(n, f.zero()), en(n, f.zero());
  e1[0] = f.one();
  en[n - 1] = f.one();
  auto u = matrix::solve_gauss(f, dense, e1);
  if (!u) return std::nullopt;
  auto y = matrix::solve_gauss(f, dense, en);
  if (!y) return std::nullopt;  // unreachable: solve of e1 already succeeded
  if (KP_FAULT_POINT(kp::util::Stage::kGohbergSemencul) ||
      f.is_zero((*u)[0])) {
    return std::nullopt;
  }
  auto u1_inv = f.inv((*u)[0]);
  return GohbergSemencul<F>{std::move(*u), std::move(*y), std::move(u1_inv)};
}

}  // namespace kp::seq
