// Experiment E6 (Theorem 4): the randomized solver circuit has size
// O(n^omega log n), depth O(log^2 n), and O(n) random nodes.
//
// Reported series:
//   1. recorded circuit size / depth / #randoms vs n, with fitted exponents
//      (classical matmul black box => size exponent ~3);
//   2. direct-implementation work counts of kp_solve vs Gaussian
//      elimination, and the work ratio (the "processor efficiency" claim:
//      within a polylog factor of matrix multiplication), for the default
//      pipeline (Berlekamp-Massey generator) and for depth_optimal (the
//      Theorem-3 generator the circuit records);
//   3. wall time of kp_solve against Gaussian elimination and Wiedemann's
//      black-box solve on dense n = 128, 256, 512 and on a sparse n = 1024
//      system (b = 1), median of several runs, every answer checked against
//      the known solution;
//   4. the iterative route's worker sweep and transform-cache ablation.
//
// `--quick` (CI) keeps circuits to n <= 16, work rows to n <= 64, wall rows
// to dense n = 128 and sparse n = 256, and the sweep to n = 128.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "circuit/builders.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/ntt.h"
#include "pram/parallel_for.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"


using F = kp::field::GFp;  // NTT-friendly prime: fast bivariate mult
using Vec = std::vector<F::Element>;

namespace {
/// Last points of a series: the asymptotic regime (the NTT bivariate kernel
/// engages from n = 8, so small-n points measure a different kernel).
std::vector<double> tail(const std::vector<double>& v) {
  const std::size_t keep = v.size() > 3 ? 3 : v.size();
  return {v.end() - static_cast<std::ptrdiff_t>(keep), v.end()};
}

/// Median wall time of `reps` runs of solve(), after one untimed warm-up run
/// (twiddle tables, pool threads).  Every run's answer must equal x; a
/// mismatch or a failed solve returns a negative time.
double median_ms(int reps, const Vec& x,
                 const std::function<bool(Vec&)>& solve) {
  std::vector<double> ms;
  for (int r = 0; r <= reps; ++r) {
    Vec got;
    kp::util::WallTimer wt;
    const bool ok = solve(got);
    const double t = wt.elapsed_ms();
    if (!ok || got != x) return -1;
    if (r > 0) ms.push_back(t);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}
}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  F f(kp::field::kNttPrime);
  kp::util::Prng prng(7);
  kp::util::BenchReport report("solver");

  std::printf("E6 (Theorem 4): solver circuit measures\n\n");
  kp::util::Table tc({"n", "size", "depth", "randoms", "size/(n^3 log n)",
                      "depth/log2(n)^2"});
  std::vector<double> ns, sizes, depths;
  for (std::size_t n : quick ? std::vector<std::size_t>{2, 4, 8, 16}
                             : std::vector<std::size_t>{2, 4, 8, 16, 24, 32}) {
    kp::util::WallTimer wt;
    auto c = kp::circuit::build_solver_circuit(n, kp::field::kNttPrime);
    report.begin_row("E6_circuit");
    report.put("n", n);
    report.put("size", std::uint64_t{c.size()});
    report.put("depth", static_cast<std::uint64_t>(c.depth()));
    report.put("randoms", static_cast<std::uint64_t>(c.num_randoms()));
    report.put("wall_ms", wt.elapsed_ms());
    ns.push_back(static_cast<double>(n));
    sizes.push_back(static_cast<double>(c.size()));
    depths.push_back(static_cast<double>(c.depth()));
    const double nn = static_cast<double>(n);
    const double lg = std::log2(nn);
    tc.add_row(
        {std::to_string(n), kp::util::Table::num(std::uint64_t{c.size()}),
         std::to_string(c.depth()), std::to_string(c.num_randoms()),
         kp::util::Table::num(sizes.back() / (nn * nn * nn * (lg > 0 ? lg : 1)), 3),
         kp::util::Table::num(depths.back() / (lg * lg > 0 ? lg * lg : 1), 3)});
  }
  tc.print();
  std::printf("\nfitted size exponent:  %.2f  (paper: omega + o(1); classical => ~3)\n",
              kp::util::fit_exponent(tail(ns), tail(sizes)));
  std::printf("fitted depth exponent: %.2f  (polylog: must be ~0)\n",
              kp::util::fit_exponent(tail(ns), tail(depths)));
  std::printf("random nodes are exactly 5n-1 = (2n-1) Hankel + n diagonal + 2n projections\n\n");

  std::printf("Direct implementation: work vs Gaussian elimination\n\n");
  kp::util::Table tw({"n", "kp_solve ops", "depth_optimal ops", "gauss ops",
                      "ratio", "ratio/log2(n)^2"});
  for (std::size_t n : quick ? std::vector<std::size_t>{8, 16, 32, 64}
                             : std::vector<std::size_t>{8, 16, 32, 64, 96}) {
    kp::util::WallTimer wt;
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(prng);

    kp::util::Prng deep_prng = prng;  // same draws for both pipelines
    kp::util::OpScope s1;
    auto res = kp::core::kp_solve(f, a, b, prng);
    const auto kp_ops = s1.counts().total();
    if (!res.ok) continue;
    const double kp_ms = wt.elapsed_ms();

    kp::core::SolverOptions deep;
    deep.depth_optimal = true;
    kp::util::OpScope s3;
    auto deep_res = kp::core::kp_solve(f, a, b, deep_prng, deep);
    const auto deep_ops = s3.counts().total();

    kp::util::OpScope s2;
    auto ref = kp::matrix::solve_gauss(f, a, b);
    const auto gauss_ops = s2.counts().total();
    if (!ref || *ref != res.x || deep_res.x != res.x) {
      std::printf("MISMATCH at n=%zu\n", n);
      return 1;
    }
    report.begin_row("E6_work");
    report.put("n", n);
    report.put("ops_kp_solve", kp_ops);
    report.put("ops_kp_solve_depth_optimal", deep_ops);
    report.put("ops_gauss", gauss_ops);
    report.put("wall_ms", kp_ms);
    const double ratio = static_cast<double>(kp_ops) / static_cast<double>(gauss_ops);
    const double lg = std::log2(static_cast<double>(n));
    tw.add_row({std::to_string(n), kp::util::Table::num(kp_ops),
                kp::util::Table::num(deep_ops),
                kp::util::Table::num(gauss_ops), kp::util::Table::num(ratio, 3),
                kp::util::Table::num(ratio / (lg * lg), 3)});
  }
  tw.print();
  std::printf(
      "\nThe randomized pipeline pays a polylog work factor over elimination\n"
      "(the paper's processor-efficiency claim) but realizes an O(log^2 n)-deep\n"
      "circuit where elimination is inherently sequential (depth ~n).\n");

  // Wall time against the plain sequential solvers, on the default pool.
  std::printf("\nWall time: kp_solve vs Gaussian elimination vs Wiedemann\n\n");
  kp::util::Table tm({"system", "n", "reps", "kp_solve ms", "gauss ms",
                      "wiedemann ms"});
  const std::uint64_t kS = kp::core::SolverOptions{}.sample_size;
  auto wall_row = [&](const char* system, std::size_t n, int reps,
                      double kp_ms, double gauss_ms, double wied_ms) {
    report.begin_row("E6_wall");
    report.put("system", system);
    report.put("n", n);
    report.put("reps", reps);
    report.put("kp_solve_ms", kp_ms);
    if (gauss_ms >= 0) report.put("gauss_ms", gauss_ms);
    report.put("wiedemann_ms", wied_ms);
    tm.add_row({system, std::to_string(n), std::to_string(reps),
                kp::util::Table::num(kp_ms),
                gauss_ms >= 0 ? kp::util::Table::num(gauss_ms) : "-",
                kp::util::Table::num(wied_ms)});
  };
  for (std::size_t n : quick ? std::vector<std::size_t>{128}
                             : std::vector<std::size_t>{128, 256, 512}) {
    const int reps = n >= 512 ? 3 : 5;
    kp::util::Prng setup(700 + n);
    auto a = kp::matrix::random_matrix(f, n, n, setup);
    Vec x(n);
    for (auto& e : x) e = f.random(setup);
    const Vec b = kp::matrix::mat_vec(f, a, x);
    const kp::matrix::DenseViewBox<F> box(f, a);
    kp::util::Prng p1(1), p2(2);
    const double kp_ms = median_ms(reps, x, [&](Vec& out) {
      auto r = kp::core::kp_solve(f, a, b, p1);
      out = std::move(r.x);
      return r.ok;
    });
    const double gauss_ms = median_ms(reps, x, [&](Vec& out) {
      auto r = kp::matrix::solve_gauss(f, a, b);
      if (r) out = std::move(*r);
      return r.has_value();
    });
    const double wied_ms = median_ms(reps, x, [&](Vec& out) {
      auto r = kp::core::wiedemann_solve_status(f, box, b, p2, kS);
      out = std::move(r.x);
      return r.ok;
    });
    if (kp_ms < 0 || gauss_ms < 0 || wied_ms < 0) {
      std::printf("WALL MISMATCH at dense n=%zu\n", n);
      return 1;
    }
    wall_row("dense", n, reps, kp_ms, gauss_ms, wied_ms);
  }
  {
    // 16 random entries per row plus a nonzero diagonal; kp_solve takes the
    // iterative route with block width 1 (the default).
    const std::size_t n = quick ? 256 : 1024;
    const int reps = 3;
    kp::util::Prng setup(1700 + n);
    const kp::matrix::SparseBox<F> box(
        f, kp::matrix::Sparse<F>::random(f, n, 16, setup));
    Vec x(n);
    for (auto& e : x) e = f.random(setup);
    const Vec b = box.apply(x);
    kp::util::Prng p1(3), p2(4);
    const double kp_ms = median_ms(reps, x, [&](Vec& out) {
      auto r = kp::core::kp_solve(f, box, b, p1);
      out = std::move(r.x);
      return r.ok;
    });
    const double wied_ms = median_ms(reps, x, [&](Vec& out) {
      auto r = kp::core::wiedemann_solve_status(f, box, b, p2, kS);
      out = std::move(r.x);
      return r.ok;
    });
    if (kp_ms < 0 || wied_ms < 0) {
      std::printf("WALL MISMATCH at sparse n=%zu\n", n);
      return 1;
    }
    wall_row("sparse", n, reps, kp_ms, -1, wied_ms);
  }
  tm.print();

  // Transform layer on the iterative (black-box) route: a Toeplitz system
  // solved through ToeplitzBox, where the matrix symbol and preconditioner
  // operands are cached across the 2n Krylov products.  Rows sweep the
  // worker count and toggle the operand cache; results are bit-identical in
  // every configuration.
  std::printf("\nIterative route: worker sweep and transform-cache ablation\n\n");
  auto& ctx = kp::pram::ExecutionContext::global();
  const unsigned hw = kp::pram::worker_count();
  kp::util::Table tt({"n", "workers", "cache", "wall ms", "fwd ntt",
                      "fwd avoided", "ops"});
  for (std::size_t n : quick ? std::vector<std::size_t>{128}
                             : std::vector<std::size_t>{128, 256}) {
    kp::util::Prng setup(900 + n);
    kp::matrix::Toeplitz<F> tp = [&] {
      for (;;) {
        std::vector<F::Element> diag(2 * n - 1);
        for (auto& v : diag) v = f.random(setup);
        kp::matrix::Toeplitz<F> cand(n, std::move(diag));
        if (!f.is_zero(kp::matrix::det_gauss(f, cand.to_dense(f)))) return cand;
      }
    }();
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(setup);
    kp::poly::PolyRing<F> ring(f);

    std::vector<F::Element> ref_x;
    for (const bool cache_on : {true, false}) {
      for (const unsigned workers : {1u, 2u, hw}) {
        if (!cache_on && workers != hw) continue;  // ablation at hw only
        kp::poly::transform_cache_enabled().store(cache_on);
        ctx.set_worker_limit(workers);
        kp::util::Prng p2(5000 + n);
        kp::matrix::ToeplitzBox<F> box(ring, tp);
        kp::poly::reset_transform_stats();
        kp::util::WallTimer wt;
        kp::util::OpScope ops;
        auto res = kp::core::kp_solve(f, box, b, p2);
        const double ms = wt.elapsed_ms();
        const auto total = ops.counts().total();
        const auto stats = kp::poly::transform_stats();
        ctx.set_worker_limit(0);
        if (!res.ok) {
          std::printf("SOLVE FAILED at n=%zu\n", n);
          return 1;
        }
        if (ref_x.empty()) ref_x = res.x;
        if (res.x != ref_x) {
          std::printf("NON-DETERMINISTIC RESULT at n=%zu\n", n);
          return 1;
        }
        report.begin_row("E6_transform_sweep");
        report.put("n", n);
        report.put("workers", std::uint64_t{workers});
        report.put("cache", cache_on);
        report.put("wall_ms", ms);
        report.put("forward_ntt", stats.forward);
        report.put("inverse_ntt", stats.inverse);
        report.put("transforms_avoided", stats.forward_avoided);
        report.put("ops", total);
        tt.add_row({std::to_string(n), std::to_string(workers),
                    cache_on ? "on" : "off", kp::util::Table::num(ms, 2),
                    kp::util::Table::num(stats.forward),
                    kp::util::Table::num(stats.forward_avoided),
                    kp::util::Table::num(total)});
      }
    }
  }
  kp::poly::transform_cache_enabled().store(true);
  tt.print();
  std::printf("\nCached symbols cut the forward-NTT count on the 2n black-box\n"
              "products; op counts stay constant per row by the recharge contract.\n");
  return 0;
}
