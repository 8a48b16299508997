// Tests for the core pipeline: Krylov doubling (9), preconditioners
// (Theorem 2), the Theorem-4 solver/determinant, Wiedemann's black-box
// algorithms (section 2), the baselines (Csanky, Faddeev-LeVerrier,
// Berkowitz, Chistov), and the section-5 extensions.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/annihilator.h"
#include "core/baselines.h"
#include "core/crt_shard.h"
#include "core/extensions.h"
#include "core/field_lift.h"
#include "core/krylov.h"
#include "core/preconditioners.h"
#include "core/session.h"
#include "core/small_char.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/gfpk.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "seq/berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::BigInt;
using field::GFpk;
using field::Rational;
using field::RationalField;
using field::Zp;
using matrix::Matrix;

using F = Zp<1000003>;
F f;

Matrix<F> random_mat(std::size_t n, util::Prng& prng) {
  return matrix::random_matrix(f, n, n, prng);
}

template <class R>
bool same_block(const Matrix<R>& x, const Matrix<R>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (x.at(i, j) != y.at(i, j)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Krylov doubling.

TEST(KrylovTest, BlockColumnsArePowers) {
  util::Prng prng(1);
  const std::size_t n = 7;
  auto a = random_mat(n, prng);
  std::vector<F::Element> v(n);
  for (auto& e : v) e = f.random(prng);
  for (std::size_t count : {1u, 2u, 3u, 7u, 14u}) {
    auto block = core::krylov_block(f, a, v, count);
    ASSERT_EQ(block.cols(), count);
    auto w = v;
    for (std::size_t j = 0; j < count; ++j) {
      if (j) w = matrix::mat_vec(f, a, w);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(block.at(i, j), w[i]) << "count=" << count << " col=" << j;
      }
    }
  }
}

TEST(KrylovTest, DoublingMatchesIterative) {
  util::Prng prng(2);
  for (std::size_t n : {1u, 2u, 5u, 12u}) {
    auto a = random_mat(n, prng);
    std::vector<F::Element> u(n), v(n);
    for (auto& e : u) e = f.random(prng);
    for (auto& e : v) e = f.random(prng);
    matrix::DenseBox<F> box(f, a);
    EXPECT_EQ(core::krylov_sequence_doubling(f, a, u, v, 2 * n),
              matrix::krylov_sequence_iterative(f, box, u, v, 2 * n))
        << n;
  }
}

TEST(KrylovTest, DoublingWithStrassen) {
  util::Prng prng(3);
  const std::size_t n = 9;
  auto a = random_mat(n, prng);
  std::vector<F::Element> u(n), v(n);
  for (auto& e : u) e = f.random(prng);
  for (auto& e : v) e = f.random(prng);
  EXPECT_EQ(core::krylov_sequence_doubling(f, a, u, v, 2 * n,
                                           matrix::MatMulStrategy::kStrassen),
            core::krylov_sequence_doubling(f, a, u, v, 2 * n,
                                           matrix::MatMulStrategy::kClassical));
}

TEST(KrylovTest, SharedDoublingMatchesSeparateBlocks) {
  // One pass over the shared powers A^{2^j} gives exactly the blocks two
  // separate krylov_block calls give, whichever block stops growing first.
  util::Prng prng(30);
  for (std::size_t n : {1u, 2u, 5u, 8u, 13u}) {
    auto a = random_mat(n, prng);
    std::vector<F::Element> v(n), w(n);
    for (auto& e : v) e = f.random(prng);
    for (auto& e : w) e = f.random(prng);
    const std::vector<std::pair<std::size_t, std::size_t>> counts{
        {1, 1}, {2, 1}, {7, 3}, {2 * n, n}, {n, 2 * n}};
    for (const auto strategy : {matrix::MatMulStrategy::kClassical,
                                matrix::MatMulStrategy::kStrassen}) {
      for (const auto& [cv, cw] : counts) {
        const auto blocks =
            core::krylov_blocks(f, a, {&v, &w}, {cv, cw}, strategy);
        ASSERT_EQ(blocks.size(), 2u);
        EXPECT_TRUE(same_block(blocks[0],
                               core::krylov_block(f, a, v, cv, strategy)))
            << n << " " << cv << " " << cw;
        EXPECT_TRUE(same_block(blocks[1],
                               core::krylov_block(f, a, w, cw, strategy)))
            << n << " " << cv << " " << cw;
        EXPECT_EQ(blocks[0].cols(), cv);
        EXPECT_EQ(blocks[1].cols(), cw);
      }
    }
  }
  // Word-size NTT prime at a size whose merge runs on the pool and whose
  // products take the vectorized mat_mul.
  const field::GFp gf(field::kNttPrime);
  const std::size_t n = 256;
  const auto a = matrix::random_matrix(gf, n, n, prng);
  std::vector<field::GFp::Element> v(n), w(n);
  for (auto& e : v) e = gf.random(prng);
  for (auto& e : w) e = gf.random(prng);
  const auto blocks = core::krylov_blocks(gf, a, {&v, &w}, {2 * n, n});
  EXPECT_TRUE(same_block(blocks[0], core::krylov_block(gf, a, v, 2 * n)));
  EXPECT_TRUE(same_block(blocks[1], core::krylov_block(gf, a, w, n)));
}

TEST(KrylovTest, SharedDoublingRejectsMalformedStarts) {
  util::Prng prng(31);
  auto a = random_mat(4, prng);
  std::vector<F::Element> v(4, f.one()), short_v(3, f.one());
  for (const auto& blocks :
       {core::krylov_blocks(f, a, {&v, &short_v}, {4, 4}),
        core::krylov_blocks(f, a, {&v, nullptr}, {4, 4}),
        core::krylov_blocks(f, a, {&v, &v}, {4})}) {
    ASSERT_EQ(blocks.size(), 2u);
    for (const auto& b : blocks) EXPECT_EQ(b.rows(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Preconditioner (Theorem 2).

TEST(PreconditionerTest, DenseProductMatchesExplicit) {
  util::Prng prng(4);
  poly::PolyRing<F> ring(f);
  const std::size_t n = 8;
  auto a = random_mat(n, prng);
  auto pre = core::Preconditioner<F>::draw(f, n, prng, 1u << 20);
  auto at = pre.apply_dense(f, ring, a);
  auto expect = matrix::mat_mul(
      f, a,
      matrix::mat_mul(f, pre.hankel.to_dense(f), pre.diagonal.to_dense(f)));
  EXPECT_TRUE(matrix::mat_eq(f, at, expect));
}

TEST(PreconditionerTest, DetMatchesGauss) {
  // The default det(H D) (Hankel recurrence) against Gaussian elimination and
  // the depth_optimal one (Theorem 3).  |S| = 5 makes H's leading minors
  // vanish often, so the undetermined-recurrence fallback runs too.
  util::Prng prng(5);
  int fallbacks = 0;
  for (int draw = 0; draw < 200; ++draw) {
    const std::size_t n = 1 + static_cast<std::size_t>(draw) % 10;
    const std::uint64_t s = draw % 2 == 0 ? 5 : 1u << 20;
    auto pre = core::Preconditioner<F>::draw(f, n, prng, s);
    auto expect = f.mul(matrix::det_gauss(f, pre.hankel.to_dense(f)),
                        pre.diagonal.det(f));
    EXPECT_EQ(pre.det(f), expect) << draw;
    EXPECT_EQ(pre.det(f, seq::NewtonIdentityMethod::kTriangularSolve, true),
              expect)
        << draw;
    if (!seq::hankel_det(f, pre.hankel.entries())) ++fallbacks;
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(PreconditionerTest, AntiIdentityHankelTakesTheFallback) {
  // h = e_{n-1}: H is nonsingular with h_0 = 0, so the recurrence is
  // undetermined and det(H D) must come from Theorem 3.
  for (std::size_t n = 2; n <= 9; ++n) {
    std::vector<F::Element> h(2 * n - 1, f.zero());
    h[n - 1] = f.one();
    std::vector<F::Element> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = f.from_int(std::int64_t(i) + 2);
    const core::Preconditioner<F> pre{matrix::Hankel<F>(n, h),
                                      matrix::Diagonal<F>(d)};
    ASSERT_FALSE(seq::hankel_det(f, h).has_value()) << n;
    const auto expect = f.mul(matrix::det_gauss(f, pre.hankel.to_dense(f)),
                              pre.diagonal.det(f));
    EXPECT_FALSE(f.is_zero(expect)) << n;
    EXPECT_EQ(pre.det(f), expect) << n;
  }
}

TEST(PreconditionerTest, LeadingMinorsNonzeroWithHighProbability) {
  // Theorem 2's guarantee, spot-checked: for a non-singular A and a large
  // sample set, all leading principal minors of A*H are non-zero.
  util::Prng prng(6);
  poly::PolyRing<F> ring(f);
  const std::size_t n = 7;
  int successes = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto a = random_mat(n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    auto h = matrix::Hankel<F>::random(f, n, prng, 1u << 20);
    auto ah = matrix::mat_mul(f, a, h.to_dense(f));
    bool all_nonzero = true;
    for (std::size_t i = 1; i <= n; ++i) {
      if (f.is_zero(matrix::det_gauss(f, matrix::leading_principal(f, ah, i)))) {
        all_nonzero = false;
        break;
      }
    }
    successes += all_nonzero;
  }
  EXPECT_GE(successes, 19);  // bound: failure <= n(n-1)/2 / 2^20 per trial
}

// ---------------------------------------------------------------------------
// Theorem-4 solver.

TEST(SolverTest, SolveMatchesGauss) {
  util::Prng prng(7);
  for (std::size_t n : {1u, 2u, 4u, 8u, 13u, 20u}) {
    auto a = random_mat(n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    std::vector<F::Element> x(n);
    for (auto& e : x) e = f.random(prng);
    auto b = matrix::mat_vec(f, a, x);
    auto res = core::kp_solve(f, a, b, prng);
    ASSERT_TRUE(res.ok) << n;
    EXPECT_EQ(res.x, x) << n;
  }
}

TEST(SolverTest, DetMatchesGauss) {
  util::Prng prng(8);
  for (std::size_t n : {1u, 2u, 5u, 10u, 17u}) {
    auto a = random_mat(n, prng);
    auto res = core::kp_det(f, a, prng);
    const auto expect = matrix::det_gauss(f, a);
    if (f.is_zero(expect)) continue;  // singular: pipeline correctly fails
    ASSERT_TRUE(res.ok) << n;
    EXPECT_EQ(res.det, expect) << n;
  }
}

TEST(SolverTest, DetAlsoReportedBySolve) {
  util::Prng prng(9);
  const std::size_t n = 9;
  auto a = random_mat(n, prng);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  auto res = core::kp_solve(f, a, b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.det, matrix::det_gauss(f, a));
}

TEST(SolverTest, CharpolyOfPreconditionedIsAnnihilating) {
  // res.charpoly_at annihilates A-tilde; at minimum check degree and g0.
  util::Prng prng(10);
  const std::size_t n = 6;
  auto a = random_mat(n, prng);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  auto res = core::kp_solve(f, a, b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.charpoly_at.size(), n + 1);
  EXPECT_EQ(res.charpoly_at[n], f.one());
  EXPECT_FALSE(f.is_zero(res.charpoly_at[0]));
}

TEST(SolverTest, SingularInputReportsFailure) {
  util::Prng prng(11);
  const std::size_t n = 6;
  // Rank-deficient A.
  auto left = matrix::random_matrix(f, n, n - 2, prng);
  auto right = matrix::random_matrix(f, n - 2, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  auto res = core::kp_solve(f, a, b, prng);
  EXPECT_FALSE(res.ok);
}

TEST(SolverTest, StrassenAndExpNewtonVariants) {
  util::Prng prng(12);
  const std::size_t n = 11;
  auto a = random_mat(n, prng);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = matrix::mat_vec(f, a, x);
  core::SolverOptions opt;
  opt.matmul = matrix::MatMulStrategy::kStrassen;
  opt.newton = seq::NewtonIdentityMethod::kPowerSeriesExp;
  auto res = core::kp_solve(f, a, b, prng, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.x, x);
}

TEST(SolverTest, WorksOverRationals) {
  RationalField q;
  util::Prng prng(13);
  const std::size_t n = 4;
  Matrix<RationalField> a(n, n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = q.sample(prng, 64);
    }
  }
  if (q.is_zero(matrix::det_gauss(q, a))) GTEST_SKIP();
  std::vector<Rational> x{Rational(1), Rational(BigInt(1), BigInt(2)),
                          Rational(-3), Rational(BigInt(2), BigInt(5))};
  auto b = matrix::mat_vec(q, a, x);
  auto res = core::kp_solve(q, a, b, prng);
  ASSERT_TRUE(res.ok);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(q.eq(res.x[i], x[i])) << i;
  }
  EXPECT_TRUE(q.eq(res.det, matrix::det_gauss(q, a)));
}

// ---------------------------------------------------------------------------
// The generator (steps 3-4a): Berlekamp-Massey by default, Theorem 3 under
// depth_optimal.  Massey's uniqueness theorem makes the two agree exactly:
// same Status kind and stage, same g.

template <class G>
util::FailureKind expect_generators_agree(
    const G& g, const std::vector<typename G::Element>& seq, std::size_t n,
    const std::string& what) {
  core::SolverOptions bm, t3;
  t3.depth_optimal = true;
  std::vector<typename G::Element> g_bm, g_t3;
  const auto s_bm =
      core::detail::generator_from_sequence_status(g, seq, n, bm, g_bm);
  const auto s_t3 =
      core::detail::generator_from_sequence_status(g, seq, n, t3, g_t3);
  EXPECT_EQ(s_bm.kind(), s_t3.kind()) << what;
  EXPECT_EQ(s_bm.stage(), s_t3.stage()) << what;
  EXPECT_FALSE(s_bm.injected()) << what;
  EXPECT_EQ(g_bm.size(), g_t3.size()) << what;
  for (std::size_t i = 0; i < g_bm.size() && i < g_t3.size(); ++i) {
    EXPECT_TRUE(g.eq(g_bm[i], g_t3[i])) << what << " coefficient " << i;
  }
  return s_bm.kind();
}

// Projected Krylov sequences of A (singular for n divisible by 3) with
// entries from S and one generated by a recurrence of degree n/2 < n; when
// `crafted`, also the all-zero sequence and (0, ..., 0, 1), of linear
// complexity 2n > n.
template <class G>
void generator_sweep(const G& g, std::size_t max_n, std::uint64_t s,
                     bool crafted, std::uint64_t seed,
                     std::map<util::FailureKind, int>& seen) {
  using E = typename G::Element;
  util::Prng prng(seed);
  for (std::size_t n = 1; n <= max_n; ++n) {
    const std::string at =
        "n=" + std::to_string(n) + " |S|=" + std::to_string(s);
    Matrix<G> a(n, n, g.zero());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a.at(i, j) = g.sample(prng, s);
    }
    if (n % 3 == 0) {
      for (std::size_t j = 0; j < n; ++j) a.at(n - 1, j) = a.at(0, j);
    }
    std::vector<E> u(n), v(n);
    for (auto& e : u) e = g.sample(prng, s);
    for (auto& e : v) e = g.sample(prng, s);
    const auto krylov = core::krylov_sequence_doubling(g, a, u, v, 2 * n);
    ++seen[expect_generators_agree(g, krylov, n, "krylov " + at)];

    const std::size_t d = n / 2;
    std::vector<E> rec(2 * n, g.zero()), c(d);
    for (auto& e : c) e = g.sample(prng, s);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      if (i < d) {
        rec[i] = g.sample(prng, s);
        continue;
      }
      for (std::size_t k = 0; k < d; ++k) {
        rec[i] = g.add(rec[i], g.mul(c[k], rec[i - d + k]));
      }
    }
    ++seen[expect_generators_agree(g, rec, n, "degree n/2 " + at)];

    if (!crafted) continue;
    const std::vector<E> zeros(2 * n, g.zero());
    ++seen[expect_generators_agree(g, zeros, n, "zeros " + at)];
    std::vector<E> spike(2 * n, g.zero());
    spike.back() = g.one();
    ++seen[expect_generators_agree(g, spike, n, "spike " + at)];
  }
}

template <class G>
void expect_generators_agree_up_to_48(const G& g, std::uint64_t seed) {
  std::map<util::FailureKind, int> seen;
  generator_sweep(g, 48, 5, /*crafted=*/true, seed, seen);
  generator_sweep(g, 48, std::uint64_t{1} << 20, /*crafted=*/false, seed + 1,
                  seen);
  // Every outcome of the gate is exercised.
  EXPECT_GT(seen[util::FailureKind::kNone], 0);
  EXPECT_GT(seen[util::FailureKind::kDegenerateProjection], 0);
  EXPECT_GT(seen[util::FailureKind::kZeroConstantTerm], 0);
}

TEST(GeneratorTest, BerlekampMasseyMatchesTheorem3OverNttPrime) {
  expect_generators_agree_up_to_48(field::GFp(field::kNttPrime), 40);
}

TEST(GeneratorTest, BerlekampMasseyMatchesTheorem3OverZp) {
  expect_generators_agree_up_to_48(f, 42);
}

TEST(GeneratorTest, BerlekampMasseyMatchesTheorem3OverRationals) {
  std::map<util::FailureKind, int> seen;
  generator_sweep(RationalField(), 6, 7, /*crafted=*/true, 44, seen);
  EXPECT_GT(seen[util::FailureKind::kNone], 0);
  EXPECT_GT(seen[util::FailureKind::kDegenerateProjection], 0);
  EXPECT_GT(seen[util::FailureKind::kZeroConstantTerm], 0);
}

// depth_optimal changes how the generator and det(H) are computed, never
// what the run returns: answers, attempts, and every Diag field but ops.
void expect_same_diags(const std::vector<util::Diag>& x,
                       const std::vector<util::Diag>& y,
                       const std::string& what) {
  ASSERT_EQ(x.size(), y.size()) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].kind, y[i].kind) << what << " diag " << i;
    EXPECT_EQ(x[i].stage, y[i].stage) << what << " diag " << i;
    EXPECT_EQ(x[i].attempt, y[i].attempt) << what << " diag " << i;
    EXPECT_EQ(x[i].precondition_seed, y[i].precondition_seed) << what;
    EXPECT_EQ(x[i].projection_seed, y[i].projection_seed) << what;
    EXPECT_EQ(x[i].redrew_precondition, y[i].redrew_precondition) << what;
    EXPECT_EQ(x[i].redrew_projection, y[i].redrew_projection) << what;
    EXPECT_EQ(x[i].injected, y[i].injected) << what;
    EXPECT_EQ(x[i].sample_size, y[i].sample_size) << what;
    EXPECT_EQ(x[i].shard_modulus, y[i].shard_modulus) << what;
    EXPECT_EQ(x[i].shard_prime_index, y[i].shard_prime_index) << what;
  }
}

template <class G>
void expect_same_result(const core::SolveResult<G>& x,
                        const core::SolveResult<G>& y,
                        const std::string& what) {
  EXPECT_EQ(x.ok, y.ok) << what;
  EXPECT_EQ(x.x, y.x) << what;
  EXPECT_EQ(x.det, y.det) << what;
  EXPECT_EQ(x.charpoly_at, y.charpoly_at) << what;
  EXPECT_EQ(x.attempts, y.attempts) << what;
  EXPECT_EQ(x.status.kind(), y.status.kind()) << what;
  EXPECT_EQ(x.status.stage(), y.status.stage()) << what;
  EXPECT_EQ(x.sample_size_used, y.sample_size_used) << what;
  expect_same_diags(x.diags, y.diags, what);
}

template <class G>
void depth_optimal_sweep(const G& g, std::uint64_t seed, int& failed_attempts) {
  using E = typename G::Element;
  util::Prng gen(seed);
  for (std::size_t n : {1u, 2u, 3u, 6u, 9u, 16u, 24u}) {
    for (const std::uint64_t s : {std::uint64_t{5}, std::uint64_t{1} << 30}) {
      auto a = matrix::random_matrix(g, n, n, gen);
      if (n % 3 == 0) {
        for (std::size_t j = 0; j < n; ++j) a.at(n - 1, j) = a.at(0, j);
      }
      std::vector<E> b(n);
      for (auto& e : b) e = g.random(gen);
      const matrix::SparseBox<G> sparse(
          g, matrix::Sparse<G>::random(g, n, 3, gen));
      core::SolverOptions plain, deep;
      plain.sample_size = deep.sample_size = s;
      plain.max_attempts = deep.max_attempts = 4;
      deep.depth_optimal = true;
      const std::string at =
          "n=" + std::to_string(n) + " |S|=" + std::to_string(s);
      auto both = [&](auto run, const std::string& what) {
        util::Prng p1(seed + n), p2(seed + n);
        const auto x = run(p1, plain);
        const auto y = run(p2, deep);
        expect_same_result(x, y, what + " " + at);
        for (const auto& d : x.diags) {
          failed_attempts += d.kind != util::FailureKind::kNone;
        }
      };
      both([&](util::Prng& p, const core::SolverOptions& o) {
        return core::kp_solve(g, a, b, p, o);
      }, "dense solve");
      both([&](util::Prng& p, const core::SolverOptions& o) {
        return core::kp_det(g, a, p, o);
      }, "dense det");
      both([&](util::Prng& p, const core::SolverOptions& o) {
        return core::kp_solve(g, sparse, b, p, o);
      }, "sparse solve");
      both([&](util::Prng& p, const core::SolverOptions& o) {
        return core::kp_det(g, sparse, p, o);
      }, "sparse det");

      core::SessionOptions so_plain, so_deep;
      so_plain.solver = plain;
      so_deep.solver = deep;
      core::Session<G> s1(g, matrix::DenseBox<G>(g, a), seed + n, so_plain);
      core::Session<G> s2(g, matrix::DenseBox<G>(g, a), seed + n, so_deep);
      const auto p1 = s1.prepare(), p2 = s2.prepare();
      EXPECT_EQ(p1.kind(), p2.kind()) << "session " << at;
      EXPECT_EQ(p1.stage(), p2.stage()) << "session " << at;
      expect_same_diags(s1.prepare_diags(), s2.prepare_diags(),
                        "session prepare " + at);
      if (p1.ok() && p2.ok()) {
        EXPECT_EQ(s1.det(), s2.det()) << "session " << at;
        const auto i1 = s1.solve_one(b), i2 = s2.solve_one(b);
        EXPECT_EQ(i1.status.kind(), i2.status.kind()) << "session " << at;
        EXPECT_EQ(i1.x, i2.x) << "session " << at;
      }
    }
  }
}

TEST(DepthOptimalTest, SameAnswersAttemptsAndDiags) {
  int failed = 0;
  depth_optimal_sweep(field::GFp(field::kNttPrime), 50, failed);
  depth_optimal_sweep(f, 51, failed);
  EXPECT_GT(failed, 0);  // the small |S| makes the failure branches run
}

TEST(DepthOptimalTest, CrtSolveSameAnswerAndShards) {
  RationalField q;
  util::Prng gen(52);
  for (std::size_t n : {2u, 5u, 9u}) {
    Matrix<RationalField> a(n, n, q.zero());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a.at(i, j) = q.sample(gen, 64);
    }
    std::vector<Rational> b(n);
    for (auto& e : b) e = q.sample(gen, 64);
    core::CrtOptions plain, deep;
    // Shards one after another: their Diag records then arrive in order.
    plain.shard_workers = deep.shard_workers = 2;
    deep.solver.depth_optimal = true;
    util::Prng p1(53 + n), p2(53 + n);
    const auto x = core::crt_solve(q, a, b, p1, plain);
    const auto y = core::crt_solve(q, a, b, p2, deep);
    EXPECT_EQ(x.ok, y.ok) << n;
    EXPECT_EQ(x.x, y.x) << n;
    EXPECT_EQ(x.det, y.det) << n;
    EXPECT_EQ(x.primes, y.primes) << n;
    EXPECT_EQ(x.status.kind(), y.status.kind()) << n;
    expect_same_diags(x.diags, y.diags, "crt n=" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// Route agreement: kp_solve, kp_det and Session run one Theorem-4 attempt.

template <class G, class Box>
void expect_routes_agree(const G& g, const Box& box, const Matrix<G>& dense,
                         std::uint64_t seed, const std::string& at) {
  using E = typename G::Element;
  const std::size_t n = box.dim();
  const E det = matrix::det_gauss(g, dense);
  ASSERT_FALSE(g.is_zero(det)) << at;
  util::Prng gen(seed);
  std::vector<E> b(n);
  for (auto& e : b) e = g.random(gen);

  // A session drawn from `seed` is kp_solve on the iterative b = 1 route
  // from Prng(seed), draw for draw.
  util::Prng p(seed);
  const auto one = core::kp_solve(g, box, b, p,
                                  {.route = core::KrylovRoute::kIterative});
  ASSERT_TRUE(one.ok) << at << ": " << one.status.message();
  core::Session<G> sess(g, matrix::AnyBox<G>(box), seed);
  ASSERT_TRUE(sess.prepare().ok()) << at;
  const auto item = sess.solve_one(b);
  ASSERT_TRUE(item.status.ok()) << at << ": " << item.status.message();
  EXPECT_EQ(item.x, one.x) << at;
  EXPECT_EQ(sess.det(), one.det) << at;
  EXPECT_EQ(sess.charpoly(), one.charpoly_at) << at;
  ASSERT_FALSE(sess.prepare_diags().empty()) << at;
  ASSERT_FALSE(one.diags.empty()) << at;
  EXPECT_EQ(sess.prepare_diags().front().precondition_seed,
            one.diags.front().precondition_seed)
      << at;
  EXPECT_EQ(sess.prepare_diags().front().projection_seed,
            one.diags.front().projection_seed)
      << at;

  // kp_det on the doubling route and on the iterative route at b = 1, 2, 4.
  auto det_on = [&](core::KrylovRoute route, std::size_t bw) {
    util::Prng q(seed + 1);
    return core::kp_det(g, box, q, {.route = route, .block_width = bw});
  };
  const auto dbl = det_on(core::KrylovRoute::kDoubling, 1);
  ASSERT_TRUE(dbl.ok) << at << ": " << dbl.status.message();
  EXPECT_EQ(dbl.det, det) << at << " doubling";
  for (const std::size_t bw : {1u, 2u, 4u}) {
    const auto it = det_on(core::KrylovRoute::kIterative, bw);
    ASSERT_TRUE(it.ok) << at << " b=" << bw << ": " << it.status.message();
    EXPECT_EQ(it.det, det) << at << " iterative b=" << bw;
  }
}

template <class G>
void route_agreement_sweep(const G& g, std::uint64_t seed) {
  util::Prng gen(seed);
  for (const std::size_t n : {1u, 2u, 5u, 16u, 33u}) {
    const std::string at = "n=" + std::to_string(n);
    Matrix<G> a(1, 1, g.zero());
    do {
      a = matrix::random_matrix(g, n, n, gen);
    } while (g.is_zero(matrix::det_gauss(g, a)));
    expect_routes_agree(g, matrix::DenseBox<G>(g, a), a, seed + n,
                        "dense " + at);
    std::optional<matrix::Sparse<G>> sp;
    do {
      sp = matrix::Sparse<G>::random(g, n, 3, gen);
    } while (g.is_zero(matrix::det_gauss(g, sp->to_dense(g))));
    expect_routes_agree(g, matrix::SparseBox<G>(g, *sp), sp->to_dense(g),
                        seed + 100 + n, "sparse " + at);
  }
}

TEST(RouteAgreementTest, SessionKpSolveAndKpDetRoutesAgreeOverNttPrime) {
  route_agreement_sweep(field::GFp(field::kNttPrime), 61);
}

TEST(RouteAgreementTest, SessionKpSolveAndKpDetRoutesAgreeOverZp) {
  route_agreement_sweep(f, 62);
}

// ---------------------------------------------------------------------------
// Wiedemann (section 2).

TEST(WiedemannTest, MinpolyAnnihilatesMatrix) {
  util::Prng prng(14);
  const std::size_t n = 8;
  auto a = random_mat(n, prng);
  matrix::DenseBox<F> box(f, a);
  auto mp = core::wiedemann_minpoly(f, box, prng, 1u << 20);
  // mp divides the characteristic polynomial; check mp(A) v = 0 on a few
  // random vectors (sufficient for this probabilistic check).
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<F::Element> v(n);
    for (auto& e : v) e = f.random(prng);
    auto acc = std::vector<F::Element>(n, f.zero());
    auto w = v;
    for (std::size_t k = 0; k < mp.size(); ++k) {
      if (k) w = matrix::mat_vec(f, a, w);
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = f.add(acc[i], f.mul(mp[k], w[i]));
      }
    }
    EXPECT_EQ(acc, std::vector<F::Element>(n, f.zero()));
  }
}

TEST(WiedemannTest, SolveSparseSystem) {
  util::Prng prng(15);
  const std::size_t n = 30;
  auto sp = matrix::Sparse<F>::random(f, n, 3, prng);
  matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = sp.apply(f, x);
  auto sol = core::wiedemann_solve_status(f, box, b, prng, 1u << 20);
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sp.apply(f, sol.x), b);
}

TEST(WiedemannTest, DetMatchesGauss) {
  util::Prng prng(16);
  for (std::size_t n : {2u, 5u, 9u, 15u}) {
    auto a = random_mat(n, prng);
    auto expect = matrix::det_gauss(f, a);
    if (f.is_zero(expect)) continue;
    auto res = core::kp_det(f, a, prng,
                            {.sample_size = 1u << 20,
                             .route = core::KrylovRoute::kIterative});
    ASSERT_TRUE(res.ok) << n;
    EXPECT_EQ(res.det, expect) << n;
  }
}

TEST(WiedemannTest, SingularTestDetectsSingular) {
  util::Prng prng(17);
  const std::size_t n = 8;
  // Singular: one row is a multiple of another.
  auto a = random_mat(n, prng);
  for (std::size_t j = 0; j < n; ++j) a.at(1, j) = f.mul(a.at(0, j), 7);
  matrix::DenseBox<F> box(f, a);
  EXPECT_TRUE(core::wiedemann_singular_test(f, box, prng, 1u << 20));
  // Non-singular: never reports singular.
  auto g = random_mat(n, prng);
  if (!f.is_zero(matrix::det_gauss(f, g))) {
    matrix::DenseBox<F> gbox(f, g);
    EXPECT_FALSE(core::wiedemann_singular_test(f, gbox, prng, 1u << 20));
  }
}

TEST(WiedemannTest, SolveOverGF256) {
  GFpk gf(2, 8);
  util::Prng prng(18);
  const std::size_t n = 6;
  auto a = matrix::random_matrix(gf, n, n, prng);
  if (gf.is_zero(matrix::det_gauss(gf, a))) GTEST_SKIP();
  std::vector<GFpk::Element> x;
  for (std::size_t i = 0; i < n; ++i) x.push_back(gf.random(prng));
  auto b = matrix::mat_vec(gf, a, x);
  matrix::DenseBox<GFpk> box(gf, a);
  auto sol = core::wiedemann_solve_status(gf, box, b, prng, 256);
  ASSERT_TRUE(sol.ok);
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(gf.eq(sol.x[i], x[i]));
}

// ---------------------------------------------------------------------------
// Baselines.

std::vector<F::Element> dense_charpoly_ref(const Matrix<F>& a) {
  // Faddeev-LeVerrier as the independent reference.
  return core::faddeev_leverrier(f, a).charpoly;
}

TEST(BaselinesTest, AllMethodsAgree) {
  util::Prng prng(19);
  for (std::size_t n : {1u, 2u, 3u, 6u, 10u}) {
    auto a = random_mat(n, prng);
    auto ref = dense_charpoly_ref(a);
    EXPECT_EQ(core::charpoly_csanky(f, a), ref) << n;
    EXPECT_EQ(core::charpoly_berkowitz(f, a), ref) << n;
    EXPECT_EQ(core::charpoly_chistov(f, a), ref) << n;
  }
}

TEST(BaselinesTest, CharpolyConstantTermIsDet) {
  util::Prng prng(20);
  const std::size_t n = 7;
  auto a = random_mat(n, prng);
  auto p = core::charpoly_berkowitz(f, a);
  auto det = matrix::det_gauss(f, a);
  // p(0) = (-1)^n det(A); n = 7 odd.
  EXPECT_EQ(p[0], f.neg(det));
}

TEST(BaselinesTest, FaddeevInverse) {
  util::Prng prng(21);
  const std::size_t n = 6;
  auto a = random_mat(n, prng);
  auto res = core::faddeev_leverrier(f, a);
  if (f.is_zero(res.c_n)) GTEST_SKIP();
  // A^{-1} = N_{n-1} / c_n.
  auto inv = matrix::mat_scale(f, f.inv(res.c_n), res.adjoint_like);
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, a, inv),
                             matrix::identity_matrix(f, n)));
}

TEST(BaselinesTest, BerkowitzAndChistovOverGF4) {
  // Characteristic 2: Csanky/Faddeev are out; Berkowitz and Chistov agree.
  GFpk gf(2, 2);
  util::Prng prng(22);
  for (std::size_t n : {1u, 2u, 4u, 6u}) {
    auto a = matrix::random_matrix(gf, n, n, prng);
    auto pb = core::charpoly_berkowitz(gf, a);
    auto pc = core::charpoly_chistov(gf, a);
    ASSERT_EQ(pb.size(), pc.size()) << n;
    for (std::size_t i = 0; i < pb.size(); ++i) {
      EXPECT_TRUE(gf.eq(pb[i], pc[i])) << n << " " << i;
    }
    // Constant term = (-1)^n det = det (char 2).
    EXPECT_TRUE(gf.eq(pb[0], matrix::det_gauss(gf, a))) << n;
  }
}

TEST(BaselinesTest, CsankyOverRationals) {
  RationalField q;
  Matrix<RationalField> a(2, 2, q.zero());
  a.at(0, 0) = Rational(2);
  a.at(0, 1) = Rational(1);
  a.at(1, 0) = Rational(1);
  a.at(1, 1) = Rational(3);
  auto p = core::charpoly_csanky(q, a);
  // x^2 - 5x + 5.
  EXPECT_TRUE(q.eq(p[0], Rational(5)));
  EXPECT_TRUE(q.eq(p[1], Rational(-5)));
  EXPECT_TRUE(q.eq(p[2], Rational(1)));
}

// ---------------------------------------------------------------------------
// Section-5 extensions.

TEST(ExtensionsTest, RankRandomizedMatchesGauss) {
  util::Prng prng(23);
  const std::size_t n = 10;
  for (std::size_t r : {0u, 1u, 4u, 7u, 10u}) {
    Matrix<F> a = matrix::zero_matrix(f, n, n);
    if (r > 0) {
      auto left = matrix::random_matrix(f, n, r, prng);
      auto right = matrix::random_matrix(f, r, n, prng);
      a = matrix::mat_mul(f, left, right);
    }
    ASSERT_EQ(matrix::rank_gauss(f, a), r);  // generic w.h.p.
    EXPECT_EQ(core::rank_randomized(f, a, prng, 1u << 20), r) << r;
  }
}

TEST(ExtensionsTest, RankRandomizedRectangular) {
  util::Prng prng(24);
  auto left = matrix::random_matrix(f, 9, 3, prng);
  auto right = matrix::random_matrix(f, 3, 14, prng);
  auto a = matrix::mat_mul(f, left, right);
  EXPECT_EQ(core::rank_randomized(f, a, prng, 1u << 20), 3u);
}

TEST(ExtensionsTest, NullspaceSpansKernel) {
  util::Prng prng(25);
  const std::size_t n = 9;
  for (std::size_t r : {0u, 3u, 6u, 9u}) {
    Matrix<F> a = matrix::zero_matrix(f, n, n);
    if (r > 0) {
      auto left = matrix::random_matrix(f, n, r, prng);
      auto right = matrix::random_matrix(f, r, n, prng);
      a = matrix::mat_mul(f, left, right);
    }
    auto res = core::nullspace_randomized(f, a, prng, 1u << 20);
    ASSERT_TRUE(res.ok) << r;
    EXPECT_EQ(res.rank, r);
    EXPECT_EQ(res.basis.cols(), n - r);
    EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, a, res.basis),
                               matrix::zero_matrix(f, n, n - r)));
    if (n - r > 0) {
      EXPECT_EQ(matrix::rank_gauss(f, res.basis), n - r);
    }
  }
}

TEST(ExtensionsTest, SingularSolveFindsASolution) {
  util::Prng prng(26);
  const std::size_t n = 8;
  const std::size_t r = 5;
  auto left = matrix::random_matrix(f, n, r, prng);
  auto right = matrix::random_matrix(f, r, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  // Consistent rhs: b = A y.
  std::vector<F::Element> y(n);
  for (auto& e : y) e = f.random(prng);
  auto b = matrix::mat_vec(f, a, y);
  auto sol = core::singular_solve_randomized(f, a, b, prng, 1u << 20);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(matrix::mat_vec(f, a, *sol), b);
}

TEST(ExtensionsTest, SingularSolveRejectsInconsistent) {
  util::Prng prng(27);
  const std::size_t n = 6;
  // Rank-2 A, rhs outside the column span (w.h.p.).
  auto left = matrix::random_matrix(f, n, 2, prng);
  auto right = matrix::random_matrix(f, 2, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  if (matrix::rank_gauss(f, a) != 2) GTEST_SKIP();
  auto sol = core::singular_solve_randomized(f, a, b, prng, 1u << 20);
  EXPECT_FALSE(sol.has_value());
}

TEST(ExtensionsTest, LeastSquaresExactOnConsistentSystem) {
  RationalField q;
  util::Prng prng(28);
  // Overdetermined consistent system: LSQ solution equals the true x.
  Matrix<RationalField> a(5, 3, q.zero());
  for (auto& e : a.data()) e = q.sample(prng, 16);
  std::vector<Rational> x{Rational(2), Rational(BigInt(1), BigInt(3)),
                          Rational(-1)};
  auto b = matrix::mat_vec(q, a, x);
  auto sol = core::least_squares(q, a, b);
  ASSERT_TRUE(sol.has_value());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(q.eq((*sol)[i], x[i]));
}

TEST(ExtensionsTest, LeastSquaresRandomizedMatchesDirect) {
  RationalField q;
  util::Prng prng(30);
  Matrix<RationalField> a(5, 3, q.zero());
  for (auto& e : a.data()) e = q.sample(prng, 8);
  std::vector<Rational> b(5);
  for (auto& e : b) e = q.sample(prng, 8);
  auto direct = core::least_squares(q, a, b);
  auto randomized = core::least_squares_randomized(q, a, b, prng);
  if (!direct) GTEST_SKIP();  // rank-deficient draw
  ASSERT_TRUE(randomized.has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.eq((*direct)[i], (*randomized)[i])) << i;
  }
}

TEST(ExtensionsTest, LeastSquaresNormalEquationsResidualOrthogonal) {
  RationalField q;
  util::Prng prng(29);
  Matrix<RationalField> a(6, 2, q.zero());
  for (auto& e : a.data()) e = q.sample(prng, 8);
  std::vector<Rational> b(6);
  for (auto& e : b) e = q.sample(prng, 8);
  auto sol = core::least_squares(q, a, b);
  if (!sol) GTEST_SKIP();  // rank-deficient draw
  // Residual r = A x - b is orthogonal to the column space: A^T r = 0.
  auto r = matrix::mat_vec(q, a, *sol);
  for (std::size_t i = 0; i < 6; ++i) r[i] = q.sub(r[i], b[i]);
  auto atr = matrix::mat_vec(q, matrix::mat_transpose(q, a), r);
  for (const auto& e : atr) EXPECT_TRUE(q.is_zero(e));
}

// ---------------------------------------------------------------------------
// Small fields via algebraic extension (section 2's card(K) < 3n^2 remedy).

TEST(FieldLiftTest, LiftDegreeCoversTarget) {
  EXPECT_EQ(core::lift_degree_status(101, 100).value(), 1u);
  EXPECT_EQ(core::lift_degree_status(101, 102).value(), 2u);
  EXPECT_EQ(core::lift_degree_status(101, 101 * 101 + 1).value(), 3u);
  EXPECT_EQ(core::lift_degree_status(2, 1000).value(), 10u);
}

TEST(FieldLiftTest, SolvesOverSmallPrimeField) {
  // GF(101) with n = 8: card(K) = 101 < 3 n^2 = 192, so the pipeline must
  // run in an extension.  p = 101 > n so Leverrier is fine.
  field::GFp f101(101);
  util::Prng prng(34);
  const std::size_t n = 8;
  for (int trial = 0; trial < 3; ++trial) {
    auto a = matrix::random_matrix(f101, n, n, prng);
    if (f101.is_zero(matrix::det_gauss(f101, a))) continue;
    std::vector<field::GFp::Element> x(n);
    for (auto& e : x) e = f101.random(prng);
    auto b = matrix::mat_vec(f101, a, x);
    auto res = core::kp_solve_small_field(f101, a, b, prng);
    ASSERT_TRUE(res.ok);
    EXPECT_GE(res.extension_degree, 2u);  // 101^1 is below the target
    EXPECT_EQ(res.x, x);
    EXPECT_EQ(res.det, matrix::det_gauss(f101, a));
  }
}

TEST(FieldLiftTest, RefusesWhenCharacteristicTooSmall) {
  // p = 5 <= n = 8: Leverrier impossible even after lifting.
  field::GFp f5(5);
  util::Prng prng(35);
  const std::size_t n = 8;
  auto a = matrix::random_matrix(f5, n, n, prng);
  std::vector<field::GFp::Element> b(n);
  for (auto& e : b) e = f5.random(prng);
  auto res = core::kp_solve_small_field(f5, a, b, prng);
  EXPECT_FALSE(res.ok);
}

// ---------------------------------------------------------------------------
// Small characteristic (section 5 / complexity (12)).

TEST(SmallCharTest, LeadingToeplitzIsPrincipalSubmatrix) {
  util::Prng prng(30);
  const std::size_t n = 6;
  std::vector<F::Element> diag(2 * n - 1);
  for (auto& v : diag) v = f.random(prng);
  matrix::Toeplitz<F> t(n, diag);
  for (std::size_t i = 1; i <= n; ++i) {
    auto ti = core::leading_toeplitz(t, i);
    auto expect = matrix::leading_principal(f, t.to_dense(f), i);
    EXPECT_TRUE(matrix::mat_eq(f, ti.to_dense(f), expect)) << i;
  }
}

TEST(SmallCharTest, AnyCharMatchesLeverrierOverBigField) {
  util::Prng prng(31);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& v : diag) v = f.random(prng);
    matrix::Toeplitz<F> t(n, diag);
    EXPECT_EQ(core::toeplitz_charpoly_any_char(f, t), seq::toeplitz_charpoly(f, t))
        << n;
  }
}

TEST(SmallCharTest, WorksOverGF2k) {
  // n = 4 > char = 2: Leverrier is impossible, the Chistov route must work.
  GFpk gf(2, 4);
  util::Prng prng(32);
  for (std::size_t n : {1u, 2u, 4u, 6u}) {
    std::vector<GFpk::Element> diag;
    for (std::size_t i = 0; i < 2 * n - 1; ++i) diag.push_back(gf.random(prng));
    matrix::Toeplitz<GFpk> t(n, diag);
    auto p = core::toeplitz_charpoly_any_char(gf, t);
    auto ref = core::charpoly_berkowitz(gf, t.to_dense(gf));
    ASSERT_EQ(p.size(), ref.size()) << n;
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_TRUE(gf.eq(p[i], ref[i])) << n << " " << i;
    }
    EXPECT_TRUE(
        gf.eq(core::toeplitz_det_any_char(gf, t), matrix::det_gauss(gf, t.to_dense(gf))))
        << n;
  }
}

TEST(SmallCharTest, WorksOverZ3WithLargeN) {
  // char = 3 < n = 5.
  field::GFp gf3(3);
  util::Prng prng(33);
  std::vector<field::GFp::Element> diag(9);
  for (auto& v : diag) v = gf3.random(prng);
  matrix::Toeplitz<field::GFp> t(5, diag);
  auto p = core::toeplitz_charpoly_any_char(gf3, t);
  auto ref = core::charpoly_berkowitz(gf3, t.to_dense(gf3));
  EXPECT_EQ(p, ref);
}

}  // namespace
}  // namespace kp
