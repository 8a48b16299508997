// The Krylov doubling step -- equation (9) of the paper.
//
//   A^{2^i} (v  Av  ...  A^{2^i - 1} v) = (A^{2^i} v  ...  A^{2^{i+1}-1} v)
//
// Repeated squaring of A interleaved with block products produces the whole
// Krylov block (v, Av, ..., A^{count-1} v) in O(log count) matrix products,
// i.e. O(n^omega log n) work and O(log^2 n) depth -- this is where the
// pipeline earns its processor efficiency over the naive 2n sequential
// matrix-vector products (route (8), which krylov_block_iterative provides
// for black-box operators whose products are cheaper than dense ones).
// KrylovRoute names the two routes; the Theorem-4 solver picks per operator
// structure.
#pragma once

#include <vector>

#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/matmul.h"
#include "pram/parallel_for.h"
#include "util/status.h"

namespace kp::core {

/// Precondition of the Krylov block builders: square operator, matching
/// start vector.  Entry points return an EMPTY block (0 x 0) on violation
/// instead of asserting, so release builds reject malformed inputs; callers
/// that want the reason use this validator directly.
template <kp::field::Field F>
util::Status validate_krylov_input(const F&, std::size_t rows,
                                   std::size_t cols, std::size_t vec) {
  if (rows != cols) {
    return util::Status::Fail(util::FailureKind::kInvalidArgument,
                              util::Stage::kProjection, "A must be square");
  }
  if (rows != vec) {
    return util::Status::Fail(util::FailureKind::kInvalidArgument,
                              util::Stage::kProjection, "dim(v) != dim(A)");
  }
  return util::Status::Ok();
}

/// Which route produces the Krylov data of the Theorem-4 pipeline.
enum class KrylovRoute {
  kAuto,       ///< doubling for dense operators, iterative otherwise
  kDoubling,   ///< equation (9): O(log n) matrix products
  kIterative,  ///< route (8): 2n black-box products
};

/// Resolves kAuto against the operator's structure hint: a dense operator
/// amortizes into the doubling route, while for sparse/structured operators
/// n black-box products beat an O(n^omega log n) dense doubling.
inline KrylovRoute resolve_route(KrylovRoute requested,
                                 matrix::BoxStructure structure) {
  if (requested != KrylovRoute::kAuto) return requested;
  return structure == matrix::BoxStructure::kDense ? KrylovRoute::kDoubling
                                                   : KrylovRoute::kIterative;
}

/// Krylov blocks of several start vectors from ONE doubling pass: out[k] is
/// the n x counts[k] block with column i = A^i starts[k].  Each A^{2^j} is
/// squared once, and one product with it extends every block still growing
/// (they all hold 2^j columns at step j), so a solve's projection block (2n
/// columns of v) and finish block (n columns of b) share their log2(n)
/// squarings.  A malformed call (non-square A, a start of the wrong length,
/// counts not matching starts) returns EMPTY (0 x 0) blocks.
template <kp::field::Field F>
std::vector<matrix::Matrix<F>> krylov_blocks(
    const F& f, const matrix::Matrix<F>& a,
    const std::vector<const std::vector<typename F::Element>*>& starts,
    const std::vector<std::size_t>& counts,
    matrix::MatMulStrategy strategy = matrix::MatMulStrategy::kClassical) {
  std::vector<matrix::Matrix<F>> out(starts.size(),
                                     matrix::Matrix<F>(0, 0, f.zero()));
  if (counts.size() != starts.size()) return out;
  for (const auto* v : starts) {
    if (v == nullptr ||
        !validate_krylov_input(f, a.rows(), a.cols(), v->size()).ok()) {
      return out;
    }
  }
  const std::size_t n = a.rows();
  // The blocks still growing, side by side in w, `cols` columns each; a
  // count <= 1 is the start vector itself.
  std::vector<std::size_t> live;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    if (counts[k] > 1) {
      live.push_back(k);
      continue;
    }
    out[k] = matrix::Matrix<F>(n, 1, f.zero());
    for (std::size_t i = 0; i < n; ++i) out[k].at(i, 0) = (*starts[k])[i];
  }
  matrix::Matrix<F> w(n, live.size(), f.zero());
  for (std::size_t j = 0; j < live.size(); ++j) {
    for (std::size_t i = 0; i < n; ++i) w.at(i, j) = (*starts[live[j]])[i];
  }

  matrix::Matrix<F> pw = a;  // A^{2^j}
  for (std::size_t cols = 1; !live.empty(); cols *= 2) {
    if (cols > 1) pw = matrix::mat_mul(f, pw, pw, strategy);
    const auto ext = matrix::mat_mul(f, pw, w, strategy);
    // Each block becomes [block | A^{2^j} block]; one that reaches its count
    // leaves w for out, trimmed.  The merge copies disjoint rows, so it runs
    // on the pooled ExecutionContext for large blocks.
    std::vector<std::size_t> next;
    for (const std::size_t k : live) {
      if (counts[k] <= 2 * cols) {
        out[k] = matrix::Matrix<F>(n, counts[k], f.zero());
      } else {
        next.push_back(k);
      }
    }
    matrix::Matrix<F> merged(n, 2 * cols * next.size(), f.zero());
    auto merge_row = [&](std::size_t i) {
      std::size_t dst = 0;
      for (std::size_t j = 0; j < live.size(); ++j) {
        const std::size_t k = live[j];
        const bool done = counts[k] <= 2 * cols;
        matrix::Matrix<F>& to = done ? out[k] : merged;
        const std::size_t base = done ? 0 : dst;
        const std::size_t width = done ? counts[k] : 2 * cols;
        for (std::size_t c = 0; c < width; ++c) {
          to.at(i, base + c) = c < cols ? w.at(i, j * cols + c)
                                        : ext.at(i, j * cols + c - cols);
        }
        if (!done) dst += width;
      }
    };
    if (kp::field::concurrent_ops_v<F> &&
        n * cols * live.size() >= matrix::kParallelGrain) {
      kp::pram::parallel_for(0, n, merge_row);
    } else {
      for (std::size_t i = 0; i < n; ++i) merge_row(i);
    }
    w = std::move(merged);
    live = std::move(next);
  }
  return out;
}

/// Returns the n x count Krylov block K with K(:, i) = A^i v, built by
/// doubling: the one-vector case of krylov_blocks.
template <kp::field::Field F>
matrix::Matrix<F> krylov_block(const F& f, const matrix::Matrix<F>& a,
                               const std::vector<typename F::Element>& v,
                               std::size_t count,
                               matrix::MatMulStrategy strategy =
                                   matrix::MatMulStrategy::kClassical) {
  return std::move(krylov_blocks(f, a, {&v}, {count}, strategy)[0]);
}

/// The same n x count Krylov block built with count-1 black-box products
/// (route (8)) -- the right choice when one product costs o(n^2), e.g.
/// O(nnz) sparse or O(M(n)) structured operators.
template <kp::field::Field F, matrix::LinOp B>
matrix::Matrix<F> krylov_block_iterative(const F& f, const B& box,
                                         const std::vector<typename F::Element>& v,
                                         std::size_t count) {
  if (!validate_krylov_input(f, box.dim(), box.dim(), v.size()).ok()) {
    return matrix::Matrix<F>(0, 0, f.zero());
  }
  const std::size_t n = box.dim();
  matrix::Matrix<F> block(n, count ? count : 1, f.zero());
  auto x = v;
  for (std::size_t j = 0; j < count; ++j) {
    if (j) x = box.apply(x);
    for (std::size_t i = 0; i < n; ++i) block.at(i, j) = x[i];
  }
  return block;
}

/// The projected sequence a_i = u A^i v, i < count, via one doubling block
/// and a single vector-matrix product.
template <kp::field::Field F>
std::vector<typename F::Element> krylov_sequence_doubling(
    const F& f, const matrix::Matrix<F>& a,
    const std::vector<typename F::Element>& u,
    const std::vector<typename F::Element>& v, std::size_t count,
    matrix::MatMulStrategy strategy = matrix::MatMulStrategy::kClassical) {
  const auto block = krylov_block(f, a, v, count, strategy);
  return matrix::vec_mat(f, u, block);
}

/// K * c for a Krylov block K: evaluates (sum_i c_i A^i) v from the block
/// columns -- the Cayley-Hamilton finish of the Theorem-4 solver.  Rows are
/// contiguous, so word-sized prime fields take the fused delayed-reduction
/// dot (same canonical values, same per-row mul/add charges).
template <kp::field::Field F>
std::vector<typename F::Element> krylov_combine(
    const F& f, const matrix::Matrix<F>& block,
    const std::vector<typename F::Element>& coeffs) {
  if (coeffs.size() > block.cols()) return {};  // malformed: block too narrow
  std::vector<typename F::Element> out(block.rows(), f.zero());
  if constexpr (kp::field::kernels::FastField<F>) {
    for (std::size_t i = 0; i < block.rows(); ++i) {
      out[i] = kp::field::kernels::dot(f, block.row(i), coeffs.data(),
                                       coeffs.size());
    }
    return out;
  }
  std::vector<typename F::Element> terms;
  terms.reserve(coeffs.size());
  for (std::size_t i = 0; i < block.rows(); ++i) {
    terms.clear();
    for (std::size_t j = 0; j < coeffs.size(); ++j) {
      terms.push_back(f.mul(block.at(i, j), coeffs[j]));
    }
    out[i] = matrix::balanced_sum(f, terms);
  }
  return out;
}

}  // namespace kp::core
