// Section 3: characteristic polynomial of a Toeplitz matrix (Theorem 3).
//
// The pipeline, exactly as in the paper:
//
//   1. Run Newton's iteration (3)  X <- X (2I - B X)  on B = T(lambda) =
//      I - lambda*T, over truncated power series, maintaining only the FIRST
//      and LAST columns of X_i through the Gohberg-Semencul formula (5)/(6).
//      A column exact mod lambda^p leaves a residual lambda^p c with c a
//      constant vector, so the step to precision 2p is done at HALF
//      precision (one Gohberg-Semencul apply over K[[lambda]]/lambda^p),
//      and an odd target precision takes one Neumann step x <- e_1 +
//      lambda T x.  After fewer than 2 log2(n+1) steps in all,
//      X = (I - lambda T)^{-1} mod lambda^{n+1} = sum_i T^i lambda^i.
//   2. Read off Trace(X) mod lambda^{n+1} = sum_i Trace(T^i) lambda^i with
//      the O(n) Gohberg-Semencul trace formula: the power sums s_i.
//   3. Solve the Newton-identity system (Leverrier/Csanky step) for the
//      characteristic polynomial; this divides by 2..n, hence the
//      characteristic restriction.
//
// Work is O(n^2 polylog n) field operations -- quadratic in n, versus the
// O(n^3) of Gaussian elimination on a dense copy and the O(n^4) of
// division-free methods; bench_toeplitz_charpoly measures the exponent.
#pragma once

#include <vector>

#include "field/concepts.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "poly/transform_cache.h"
#include "seq/gohberg_semencul.h"
#include "seq/newton_identities.h"
#include "util/fault.h"
#include "util/status.h"

namespace kp::seq {

namespace detail {

/// X c_k mod lambda^p for CONSTANT vectors c_k (over F), where X is the
/// Gohberg-Semencul matrix with first column x, last column y and
/// u1_inv = 1/x_0, all mod lambda^p:
///   X c = u1_inv [L(x) U(v) c - L(y_shift) U(x_revshift) c].
/// u1_inv commutes with everything, so it scales the two stage-2 operands
/// once (u1_inv L(x) U(v) c = L(u1_inv x) U(v) c) instead of every output
/// entry; scaling runs beside stage 1, off its critical path.  Stage 1
/// needs no bivariate product: with c constant, the lambda^k coefficient of
/// U(w) c is U([lambda^k] w) c, one univariate product of the slice
/// against rev(c) per k.  Stage 2 is bivariate over K[[lambda]]/lambda^p,
/// both columns batched per fixed operand.
template <kp::field::Field F>
std::vector<std::vector<std::vector<typename F::Element>>> gs_apply_constant(
    const kp::poly::PolyRing<F>& fring, std::size_t p,
    const std::vector<std::vector<typename F::Element>>& x,
    const std::vector<std::vector<typename F::Element>>& y,
    const std::vector<typename F::Element>& u1_inv,
    const std::vector<std::vector<typename F::Element>>& cs) {
  using Poly = std::vector<typename F::Element>;
  using SR = kp::poly::TruncSeriesRing<F>;
  const F& f = fring.base();
  const std::size_t n = x.size();

  // Stage 1, (U([lambda^k] w) c)_i = conv(slice_k, rev(c))[n-1-i] for the
  // slices of w = v = rev(y) (op 0) and w = x_revshift = (0, x_{n-1}, ...,
  // x_1) (op 1).
  std::vector<Poly> slices(2 * p, Poly(n, f.zero()));
  for (std::size_t j = 0; j < n; ++j) {
    const Poly& v = y[n - 1 - j];
    for (std::size_t k = 0; k < v.size(); ++k) slices[k][j] = v[k];
    if (j == 0) continue;
    const Poly& u = x[n - j];
    for (std::size_t k = 0; k < u.size(); ++k) slices[p + k][j] = u[k];
  }
  std::vector<const Poly*> slice_ptrs;
  for (auto& s : slices) {
    fring.strip(s);
    slice_ptrs.push_back(&s);
  }
  const std::size_t m = cs.size();
  std::vector<std::vector<Poly>> w(2 * m, std::vector<Poly>(n));
  for (std::size_t col = 0; col < m; ++col) {
    Poly rc(cs[col].rbegin(), cs[col].rend());
    fring.strip(rc);
    const auto prods = kp::poly::TransformedPoly<F>(fring, std::move(rc))
                           .mul_many(fring, slice_ptrs);
    for (std::size_t op = 0; op < 2; ++op) {
      auto& out = w[op * m + col];
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < p; ++k) {
          out[i].push_back(fring.coeff(prods[op * p + k], n - 1 - i));
        }
        fring.strip(out[i]);
      }
    }
  }

  // Stage-2 operands scaled mod lambda^p: u1_inv x and u1_inv y_shift,
  // y_shift = (0, y_0, ..., y_{n-2}).
  std::vector<const Poly*> entries;
  for (std::size_t i = 0; i < n; ++i) entries.push_back(&x[i]);
  for (std::size_t i = 0; i + 1 < n; ++i) entries.push_back(&y[i]);
  auto scaled =
      kp::poly::TransformedPoly<F>(fring, u1_inv).mul_many(fring, entries);
  std::vector<std::vector<Poly>> lower(2, std::vector<Poly>(n));
  for (std::size_t e = 0; e < scaled.size(); ++e) {
    lower[e < n ? 0 : 1][e < n ? e : e - n + 1] = fring.truncate(scaled[e], p);
  }

  // Stage 2: L(u1_inv x) w_0 - L(u1_inv y_shift) w_1, windowed to the
  // first n entries.
  const SR sr(f, p);
  const kp::poly::PolyRing<SR> biv(sr);
  std::vector<std::vector<std::vector<Poly>>> t(2);
  for (std::size_t op = 0; op < 2; ++op) {
    biv.strip(lower[op]);
    std::vector<const std::vector<Poly>*> ins;
    for (std::size_t col = 0; col < m; ++col) {
      biv.strip(w[op * m + col]);
      ins.push_back(&w[op * m + col]);
    }
    t[op] = kp::poly::TransformedPoly<SR>(biv, std::move(lower[op]))
                .mul_many(biv, ins);
  }
  std::vector<std::vector<Poly>> out(m, std::vector<Poly>(n));
  for (std::size_t col = 0; col < m; ++col) {
    for (std::size_t i = 0; i < n; ++i) {
      out[col][i] = sr.sub(biv.coeff(t[0][col], i), biv.coeff(t[1][col], i));
    }
  }
  return out;
}

}  // namespace detail

/// First and last columns of (I - lambda T)^{-1} mod lambda^prec, as vectors
/// of truncated power series, plus the unit inverse of the (1,1) entry.
/// This is the engine behind Theorem 3 and the Chistov extension.
template <kp::field::Field F>
struct ToeplitzSeriesInverse {
  using SR = kp::poly::TruncSeriesRing<F>;
  std::vector<typename SR::Element> first_col;
  std::vector<typename SR::Element> last_col;
  typename SR::Element u1_inv;
};

/// Runs the section-3 Newton iteration.  `t` is n x n; `prec` is the series
/// truncation (n+1 for the characteristic polynomial).  The precision
/// schedule is top-down: q comes from q/2 when even, from q-1 when odd.  A
/// column x exact mod lambda^p has residual e - (I - lambda T) x = lambda^p c
/// with c = T [lambda^{p-1}] x, so x_true = x + lambda^p X c: the step to 2p
/// applies X mod lambda^p (Gohberg-Semencul at half precision), the Neumann
/// step to p+1 appends c itself.  T stays over K, so its cached symbol
/// spectrum serves every step.
template <kp::field::Field F>
ToeplitzSeriesInverse<F> toeplitz_series_inverse(const F& f,
                                                 const matrix::Toeplitz<F>& t,
                                                 std::size_t prec) {
  using SR = kp::poly::TruncSeriesRing<F>;
  using SE = typename SR::Element;
  using Vec = std::vector<typename F::Element>;
  const std::size_t n = t.dim();

  // X_0 = I: first column e_1, last column e_n (constant series), exact
  // mod lambda^1.
  std::vector<SE> x(n), y(n);
  x[0] = SE{f.one()};
  y[n - 1] = SE{f.one()};

  // Running inverse of u_1 = x[0], maintained INCREMENTALLY: the paper notes
  // that the expansion of 1/u_1 to the doubled order "can be obtained from
  // the first 2^i terms of this expansion ... with 2 Newton iteration
  // steps".  Recomputing it from scratch each round would put an
  // O(log^2 n)-deep sub-iteration inside every round and break the overall
  // O(log^2 n) circuit depth.
  kp::poly::PolyRing<F> fring(f);
  SE u1_inv{f.one()};
  // Refines u1_inv to accuracy `target` against the current x[0].  Every
  // target is at most 2h+1 <= 4h for the previous target h, so two
  // quadratically converging steps suffice.  x0 is the fixed factor of both
  // steps, so its forward transform is cached across them (op counts
  // charged as if recomputed).
  auto refine_u1_inv = [&](std::size_t target) {
    const kp::poly::TransformedPoly<F> x0(fring, fring.truncate(x[0], target));
    for (int step = 0; step < 2; ++step) {
      auto prod = fring.truncate(x0.mul(fring, u1_inv), target);
      auto corr = fring.sub(fring.from_int(2), prod);
      u1_inv = fring.truncate(fring.mul(u1_inv, corr), target);
    }
  };

  std::vector<std::size_t> schedule;
  for (std::size_t q = prec; q > 1; q = (q % 2 == 0) ? q / 2 : q - 1) {
    schedule.push_back(q);
  }
  // Coefficient [lambda^k] of every entry of a column.
  auto top = [&](const std::vector<SE>& col, std::size_t k) {
    Vec out(n, f.zero());
    for (std::size_t i = 0; i < n; ++i) {
      if (k < col[i].size()) out[i] = col[i][k];
    }
    return out;
  };
  // col += lambda^p * hi (col has lambda-degree < p, hi entries are stripped).
  auto append = [&](std::vector<SE>& col, std::size_t p,
                    const std::vector<SE>& hi) {
    for (std::size_t i = 0; i < n; ++i) {
      if (hi[i].empty()) continue;
      col[i].resize(p, f.zero());
      col[i].insert(col[i].end(), hi[i].begin(), hi[i].end());
    }
  };

  std::size_t p = 1;
  for (auto it = schedule.rbegin(); it != schedule.rend(); ++it) {
    const std::size_t q = *it;
    const Vec xt = top(x, p - 1), yt = top(y, p - 1);
    const auto c = t.apply_many(fring, {&xt, &yt});
    std::vector<std::vector<SE>> corr(2, std::vector<SE>(n));
    if (q == p + 1) {
      // A Neumann step appends c itself: X mod lambda^1 = I.
      for (std::size_t k = 0; k < 2; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          if (!f.eq(c[k][i], f.zero())) corr[k][i] = SE{c[k][i]};
        }
      }
    } else {
      // Newton step at half precision.  u1_inv must satisfy
      // u1_inv * x[0] = 1 mod lambda^p EXACTLY: the Gohberg-Semencul
      // reconstruction's first column is (y_n * u1_inv) * x.
      refine_u1_inv(p);
      corr = detail::gs_apply_constant(fring, p, x, y, u1_inv, c);
    }
    append(x, p, corr[0]);
    append(y, p, corr[1]);
    p = q;
  }
  // Final catch-up against the final first column.
  refine_u1_inv(prec);

  return {std::move(x), std::move(y), std::move(u1_inv)};
}

/// Power sums s_0..s_{prec-1}, s_i = Trace(T^i), via the series inverse and
/// the Gohberg-Semencul trace formula.
template <kp::field::Field F>
std::vector<typename F::Element> toeplitz_power_sums(const F& f,
                                                     const matrix::Toeplitz<F>& t,
                                                     std::size_t prec) {
  using SR = kp::poly::TruncSeriesRing<F>;
  auto inv = toeplitz_series_inverse(f, t, prec);
  SR sr(f, prec);
  GohbergSemencul<SR> gs{std::move(inv.first_col), std::move(inv.last_col),
                         std::move(inv.u1_inv)};
  const auto trace_series = gs.trace(sr);
  std::vector<typename F::Element> s(prec, f.zero());
  for (std::size_t i = 0; i < prec; ++i) s[i] = sr.coeff(trace_series, i);
  return s;
}

/// Theorem 3: the monic characteristic polynomial det(lambda I - T),
/// little-endian, length n+1.  Requires char(K) = 0 or > n.
template <kp::field::Field F>
std::vector<typename F::Element> toeplitz_charpoly(
    const F& f, const matrix::Toeplitz<F>& t,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const std::size_t n = t.dim();
  auto s = toeplitz_power_sums(f, t, n + 1);
  // charpoly_from_power_sums wants s_1..s_n.
  std::vector<typename F::Element> s1(s.begin() + 1, s.end());
  return charpoly_from_power_sums(f, s1, method);
}

/// Determinant of a Toeplitz matrix from its characteristic polynomial:
/// det(T) = (-1)^n * p(0).
template <kp::field::Field F>
typename F::Element toeplitz_det(
    const F& f, const matrix::Toeplitz<F>& t,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const auto p = toeplitz_charpoly(f, t, method);
  const auto p0 = p[0];
  return (t.dim() % 2 == 0) ? p0 : f.neg(p0);
}

namespace detail {

/// The Cayley-Hamilton combination T^{-1} b = scale * sum_{k>=1} p_k T^{k-1} b
/// for the characteristic polynomial p of T and scale = -1/p_0: n-1
/// Toeplitz-vector products, O(n M(n)) work.
template <kp::field::Field F>
std::vector<typename F::Element> cayley_hamilton_solve(
    const F& f, const matrix::Toeplitz<F>& t,
    const std::vector<typename F::Element>& p,
    const typename F::Element& scale, std::vector<typename F::Element> b,
    const kp::poly::PolyRing<F>& ring) {
  const std::size_t n = t.dim();
  std::vector<typename F::Element> acc(n, f.zero());
  for (std::size_t k = 1; k <= n; ++k) {
    if (k > 1) b = t.apply(ring, b);
    if (f.eq(p[k], f.zero())) continue;
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = f.add(acc[i], f.mul(p[k], b[i]));
    }
  }
  for (auto& e : acc) e = f.mul(e, scale);
  return acc;
}

}  // namespace detail

/// Solves T x = b for a non-singular Toeplitz matrix via Cayley-Hamilton:
/// with p(T) = 0, T^{-1} = -(1/p_0) sum_{k>=1} p_k T^{k-1}, so x is a
/// matrix-polynomial apply using Toeplitz-vector products (O(n M(n)) work).
/// Returns an empty vector when the characteristic polynomial reports
/// det(T) = 0, or when dim(b) != dim(T).
template <kp::field::Field F>
std::vector<typename F::Element> toeplitz_solve_charpoly(
    const F& f, const matrix::Toeplitz<F>& t,
    const std::vector<typename F::Element>& b,
    const kp::poly::PolyRing<F>& ring,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const std::size_t n = t.dim();
  if (b.size() != n) return {};
  const auto p = toeplitz_charpoly(f, t, method);
  if (KP_FAULT_POINT(kp::util::Stage::kNewtonToeplitz) || f.is_zero(p[0])) {
    return {};
  }
  return detail::cayley_hamilton_solve(f, t, p, f.neg(f.inv(p[0])), b, ring);
}

/// Status-carrying form of toeplitz_solve_charpoly: distinguishes the
/// malformed call (dim mismatch) from the legitimate Theorem-3 failure
/// report det(T) = 0.
template <kp::field::Field F>
kp::util::StatusOr<std::vector<typename F::Element>>
toeplitz_solve_charpoly_status(
    const F& f, const matrix::Toeplitz<F>& t,
    const std::vector<typename F::Element>& b,
    const kp::poly::PolyRing<F>& ring,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  using kp::util::FailureKind;
  using kp::util::Stage;
  using kp::util::Status;
  if (b.size() != t.dim()) {
    return Status::Fail(FailureKind::kInvalidArgument, Stage::kNewtonToeplitz,
                        "dim(b) != dim(T)");
  }
  auto x = toeplitz_solve_charpoly(f, t, b, ring, method);
  if (x.empty()) {
    return Status::Fail(FailureKind::kSingularInput, Stage::kNewtonToeplitz,
                        "charpoly reports det(T) = 0");
  }
  return x;
}

/// Gohberg-Semencul representation through the section-3 machinery: ONE
/// characteristic-polynomial computation, then both defining columns by the
/// Cayley-Hamilton combination -- O(n^2 polylog) work total, against the
/// O(n^3) of the Gaussian reference constructor (gs_from_toeplitz_gauss).
/// Returns nullopt when T is singular or (T^{-1})_{1,1} = 0.
template <kp::field::Field F>
std::optional<GohbergSemencul<F>> gs_from_toeplitz(
    const F& f, const matrix::Toeplitz<F>& t, const kp::poly::PolyRing<F>& ring,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const std::size_t n = t.dim();
  const auto p = toeplitz_charpoly(f, t, method);
  if (KP_FAULT_POINT(kp::util::Stage::kGohbergSemencul) ||
      f.is_zero(p[0])) {
    return std::nullopt;  // singular
  }
  const auto scale = f.neg(f.inv(p[0]));
  std::vector<typename F::Element> e1(n, f.zero()), en(n, f.zero());
  e1[0] = f.one();
  en[n - 1] = f.one();
  auto u = detail::cayley_hamilton_solve(f, t, p, scale, std::move(e1), ring);
  if (KP_FAULT_POINT(kp::util::Stage::kGohbergSemencul) ||
      f.is_zero(u[0])) {
    return std::nullopt;  // (T^{-1})_{1,1} = 0
  }
  auto y = detail::cayley_hamilton_solve(f, t, p, scale, std::move(en), ring);
  auto u1_inv = f.inv(u[0]);
  return GohbergSemencul<F>{std::move(u), std::move(y), std::move(u1_inv)};
}

/// Minimum polynomial of a linearly generated sequence by the PARALLEL
/// route of Lemma 1: scan mu down from max_degree for the largest mu with
/// det(T_mu) != 0 through the Theorem-3 determinant (up to max_degree
/// determinant evaluations, each NC^2 and independent of the others), then
/// one Toeplitz solve for the coefficients.  The sequential counterpart is
/// Berlekamp-Massey; the two are checked against each other in the tests.
/// Needs seq[0..2*max_degree-1] and char(K) = 0 or > max_degree; assumes the
/// determinant pattern of Lemma 1 (valid for every linearly generated
/// sequence).
template <kp::field::Field F>
std::vector<typename F::Element> minpoly_parallel(
    const F& f, const std::vector<typename F::Element>& seq,
    std::size_t max_degree, const kp::poly::PolyRing<F>& ring) {
  if (seq.size() < 2 * max_degree) return {};  // malformed: too few terms
  auto det_nonzero = [&](std::size_t mu) {
    const auto t = matrix::Toeplitz<F>::from_sequence(mu, seq);
    return !f.is_zero(toeplitz_det(f, t));
  };
  // Lemma 1: det(T_mu) != 0 for mu = m and 0 for mu > m, but below m the
  // pattern may oscillate -- so scan down for the largest non-zero rather
  // than bisecting blindly.
  std::size_t m = 0;
  for (std::size_t mu = max_degree; mu >= 1; --mu) {
    if (det_nonzero(mu)) {
      m = mu;
      break;
    }
  }
  if (m == 0) return {f.one()};

  const auto t = matrix::Toeplitz<F>::from_sequence(m, seq);
  std::vector<typename F::Element> rhs(seq.begin() + static_cast<std::ptrdiff_t>(m),
                                       seq.begin() + static_cast<std::ptrdiff_t>(2 * m));
  auto y = toeplitz_solve_charpoly(f, t, rhs, ring);
  // det(T_m) != 0 was just certified, so emptiness can only come from the
  // kNewtonToeplitz fault site; report the degenerate result upward.
  if (y.empty()) return {};
  std::vector<typename F::Element> out(m + 1, f.zero());
  out[m] = f.one();
  for (std::size_t i = 0; i < m; ++i) out[m - 1 - i] = f.neg(y[i]);
  return out;
}

}  // namespace kp::seq
