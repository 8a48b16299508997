// sparse-solve: one caller, closed loop; each request is kp_solve with
// block_width = 4 (the block black-box route) on a fresh sparse system.
#include "core/wiedemann.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "oneshot.h"

namespace perfbench {

namespace {

using Box = kp::matrix::SparseBox<Gf>;

Instance<Box> make_sparse(const Gf& f, std::size_t n, std::size_t nnz,
                          kp::util::Prng& prng) {
  for (;;) {
    auto sp = kp::matrix::Sparse<Gf>::random(f, n, nnz, prng);
    if (f.is_zero(kp::matrix::det_gauss(f, sp.to_dense(f)))) continue;
    Instance<Box> in{Box(f, std::move(sp)), {}, {}, prng()};
    in.x.resize(n);
    for (auto& e : in.x) e = f.random(prng);
    in.b = in.a.apply(in.x);
    return in;
  }
}

}  // namespace

Report run_sparse(const Options& o) {
  static const Gf f(kp::field::kNttPrime);
  const std::size_t n = o.smoke ? 32 : 256;
  const std::size_t nnz = o.smoke ? 4 : 16;
  kp::util::Prng gen(o.seed ^ 0x5a125e000ULL);
  std::vector<Instance<Box>> warm, timed;
  for (int i = 0; i < setup_reps(o); ++i) {
    warm.push_back(make_sparse(f, n, nnz, gen));
  }
  const std::size_t count = request_count(o, 2.0, 3);
  for (std::size_t i = 0; i < count; ++i) {
    timed.push_back(make_sparse(f, n, nnz, gen));
  }

  kp::core::SolverOptions opt;
  opt.block_width = 4;
  Report r;
  if (!o.trace) {
    r = oneshot_run(f, warm, timed, opt);
  } else {
    r = oneshot_trace(
        o, f, warm, timed, opt, [](const Instance<Box>& in) { return in.a; },
        [&](const Instance<Box>& in) {
          // The plain baseline: block Wiedemann, b = 4, same sample set.
          kp::util::Prng prng(in.seed);
          const std::int64_t t0 = now_ns();
          const auto res = kp::core::block_wiedemann_solve_status(
              f, in.a, in.b, prng, opt.sample_size, 4);
          const std::int64_t t1 = now_ns();
          if (!res.ok) wrong_answer("block_wiedemann_solve_status failed");
          check_x(res.x, in, "block_wiedemann");
          return ns_to_ms(t1 - t0);
        },
        "ref.block_wiedemann.ms");
  }
  r.note("n", static_cast<double>(n));
  r.note("nnz_per_row", static_cast<double>(nnz));
  return r;
}

}  // namespace perfbench
