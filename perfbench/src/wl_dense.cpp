// dense-solve: one caller, closed loop; each request is kp_solve with
// default options (the Theorem-4 doubling route) on a fresh dense system.
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "oneshot.h"

namespace perfbench {

namespace {

using Dense = kp::matrix::Matrix<Gf>;

Instance<Dense> make_dense(const Gf& f, std::size_t n, kp::util::Prng& prng) {
  Instance<Dense> in{Dense(n, n, 0), {}, {}, prng()};
  do {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) in.a.at(i, j) = f.random(prng);
    }
  } while (f.is_zero(kp::matrix::det_gauss(f, in.a)));
  in.x.resize(n);
  for (auto& e : in.x) e = f.random(prng);
  in.b = kp::matrix::DenseViewBox<Gf>(f, in.a).apply(in.x);
  return in;
}

}  // namespace

Report run_dense(const Options& o) {
  static const Gf f(kp::field::kNttPrime);
  const std::size_t n = o.smoke ? 16 : 128;
  kp::util::Prng gen(o.seed ^ 0xd3e5e000ULL);
  std::vector<Instance<Dense>> warm, timed;
  for (int i = 0; i < setup_reps(o); ++i) warm.push_back(make_dense(f, n, gen));
  const std::size_t count = request_count(o, 2.0, 3);
  for (std::size_t i = 0; i < count; ++i) timed.push_back(make_dense(f, n, gen));

  const kp::core::SolverOptions opt;  // defaults: the doubling route
  Report r;
  if (!o.trace) {
    r = oneshot_run(f, warm, timed, opt);
  } else {
    r = oneshot_trace(
        o, f, warm, timed, opt,
        [&](const Instance<Dense>& in) {
          return kp::matrix::DenseViewBox<Gf>(f, in.a);
        },
        [&](const Instance<Dense>& in) {
          // The plain baseline: single-threaded Gaussian elimination.
          auto& ctx = kp::pram::ExecutionContext::global();
          const unsigned saved = ctx.worker_limit();
          ctx.set_worker_limit(1);
          const std::int64_t t0 = now_ns();
          const auto x = kp::matrix::solve_gauss(f, in.a, in.b);
          const std::int64_t t1 = now_ns();
          ctx.set_worker_limit(saved);
          if (!x) wrong_answer("solve_gauss failed");
          check_x(*x, in, "solve_gauss");
          return ns_to_ms(t1 - t0);
        },
        "ref.gauss_solve.ms");
  }
  r.note("n", static_cast<double>(n));
  return r;
}

}  // namespace perfbench
