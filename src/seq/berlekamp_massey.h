// The Berlekamp-Massey algorithm over an arbitrary field.
//
// Given 2m terms of a sequence whose minimum polynomial has degree <= m,
// Berlekamp-Massey recovers that polynomial in O(n * deg) field operations.
// This is the paper's sequential route to the generating polynomial ("the
// best method is the Berlekamp-Massey algorithm"); the parallel route via
// Toeplitz systems is in seq/newton_toeplitz.h, and the two are checked
// against each other.
//
// The same discrepancy loop also yields the determinant of a Hankel matrix
// in O(n^2) (hankel_det): the sequential counterpart of the Theorem-3
// toeplitz_det, whose O(log^2 n) depth only a circuit needs.
#pragma once

#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "field/concepts.h"

namespace kp::seq {

namespace detail {

/// Connection polynomial C(x) = 1 + c_1 x + ... + c_L x^L and its length L,
/// with s_j = -(c_1 s_{j-1} + ... + c_L s_{j-L}) for L <= j < terms seen.
template <kp::field::Field F>
struct Connection {
  std::vector<typename F::Element> c;
  std::size_t length = 0;
};

/// The Berlekamp-Massey discrepancy loop.  Before the update at step i it
/// calls on_discrepancy(i, d, zero) with the discrepancy d of s_i and whether
/// d = 0; a false return stops the loop there, leaving C as it was before
/// step i.
template <kp::field::Field F, class OnDiscrepancy>
Connection<F> berlekamp_massey_loop(const F& f,
                                    const std::vector<typename F::Element>& seq,
                                    OnDiscrepancy&& on_discrepancy) {
  using E = typename F::Element;
  std::vector<E> c{f.one()};  // current connection polynomial
  std::vector<E> b{f.one()};  // previous connection polynomial
  std::size_t l = 0;          // current LFSR length
  std::size_t m = 1;          // steps since b was current
  E delta_b = f.one();        // discrepancy when b was last updated

  for (std::size_t i = 0; i < seq.size(); ++i) {
    // Discrepancy d = s_i + sum_{k=1..l} c_k s_{i-k}.
    E d = seq[i];
    for (std::size_t k = 1; k <= l && k <= i; ++k) {
      if (k < c.size()) d = f.add(d, f.mul(c[k], seq[i - k]));
    }
    const bool zero = f.eq(d, f.zero());
    if (!on_discrepancy(i, d, zero)) break;
    if (zero) {
      ++m;
      continue;
    }
    // c(x) -= (d / delta_b) * x^m * b(x); the pre-update c becomes b when
    // the length grows.
    std::vector<E> t;
    const bool grow = 2 * l <= i;
    if (grow) t = c;
    const E coef = f.div(d, delta_b);
    if (c.size() < b.size() + m) c.resize(b.size() + m, f.zero());
    for (std::size_t k = 0; k < b.size(); ++k) {
      c[k + m] = f.sub(c[k + m], f.mul(coef, b[k]));
    }
    if (grow) {
      l = i + 1 - l;
      b = std::move(t);
      delta_b = d;
      m = 1;
    } else {
      ++m;
    }
  }
  return {std::move(c), l};
}

}  // namespace detail

/// Returns the monic minimum polynomial (little-endian coefficients) of the
/// shortest linear recurrence generating the given sequence prefix.  With at
/// least 2*deg(minpoly) terms the result is the true minimum polynomial of
/// the infinite sequence.
template <kp::field::Field F>
std::vector<typename F::Element> berlekamp_massey(
    const F& f, const std::vector<typename F::Element>& seq) {
  using E = typename F::Element;
  const auto conn = detail::berlekamp_massey_loop(
      f, seq, [](std::size_t, const E&, bool) { return true; });

  // Convert the connection polynomial to the monic minimum polynomial:
  // f(x) = x^L * C(1/x), i.e. reverse C within length L+1.
  const std::size_t l = conn.length;
  std::vector<E> out(l + 1, f.zero());
  for (std::size_t k = 0; k <= l; ++k) {
    out[l - k] = k < conn.c.size() ? conn.c[k] : f.zero();
  }
  assert(f.eq(out[l], f.one()));
  return out;
}

/// Determinant of the n x n Hankel matrix H(i, j) = h_{i+j}, given its
/// 2n - 1 entries h_0..h_{2n-2}, by the leading-minor recurrence in O(n^2)
/// field operations over any field.  While the leading minors H_1..H_k are
/// non-zero, Berlekamp-Massey on h keeps its length at k after 2k terms, and
/// the discrepancy at step 2k is det H_{k+1} / det H_k; so det H is the
/// product of the even-step discrepancies.  A zero one at the last step
/// gives det H = 0 exactly.  A zero one earlier (a singular H_k, k < n, which
/// a random H has with probability <= n^2 / (2|S|)) leaves det H
/// undetermined: std::nullopt, and the caller falls back to toeplitz_det.
template <kp::field::Field F>
std::optional<typename F::Element> hankel_det(
    const F& f, const std::vector<typename F::Element>& h) {
  using E = typename F::Element;
  assert(h.size() % 2 == 1);
  const std::size_t last = h.size() - 1;
  E det = f.zero();
  bool determined = true;
  detail::berlekamp_massey_loop(
      f, h, [&](std::size_t i, const E& d, bool zero) {
        if (i % 2 != 0) return true;
        if (zero) {
          determined = i == last;
          det = f.zero();
          return false;
        }
        det = i == 0 ? d : f.mul(det, d);
        return i != last;  // the last update would go unused
      });
  if (!determined) return std::nullopt;
  return det;
}

}  // namespace kp::seq
