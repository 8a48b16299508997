// Tests for the polynomial substrate: ring axioms, multiplication kernel
// agreement (schoolbook vs Karatsuba vs NTT), division/GCD, power series
// (inverse, log, exp), interpolation, and the truncated-series ring used by
// the section-3 bivariate arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "field/gfpk.h"
#include "field/rational.h"
#include "field/zp.h"
#include "poly/poly.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::GFp;
using field::RationalField;
using field::Zp;
using poly::MulStrategy;
using poly::PolyRing;
using poly::TruncSeriesRing;

using F101 = Zp<101>;
using P101 = PolyRing<F101>;

P101 make_ring() { return P101(F101{}); }

TEST(PolyRingTest, DegreeAndNormalization) {
  auto ring = make_ring();
  EXPECT_EQ(P101::degree(ring.zero()), -1);
  EXPECT_EQ(P101::degree(ring.one()), 0);
  EXPECT_TRUE(ring.is_zero(ring.from_int(0)));
  EXPECT_TRUE(ring.is_zero(ring.from_int(101)));
  // add strips a cancelled leading coefficient.
  P101::Element a{1, 2, 100};  // 100 == -1 mod 101
  P101::Element b{5, 0, 1};
  auto s = ring.add(a, b);
  EXPECT_EQ(P101::degree(s), 1);
}

TEST(PolyRingTest, RingAxiomsRandomized) {
  auto ring = make_ring();
  util::Prng prng(11);
  for (int trial = 0; trial < 40; ++trial) {
    auto a = ring.random_degree(prng, 12);
    auto b = ring.random_degree(prng, 9);
    auto c = ring.random_degree(prng, 15);
    EXPECT_TRUE(ring.eq(ring.mul(a, b), ring.mul(b, a)));
    EXPECT_TRUE(ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))));
    EXPECT_TRUE(ring.eq(ring.mul(a, ring.add(b, c)),
                        ring.add(ring.mul(a, b), ring.mul(a, c))));
    EXPECT_TRUE(ring.eq(ring.mul(a, ring.one()), a));
    EXPECT_TRUE(ring.is_zero(ring.sub(a, a)));
  }
}

TEST(PolyRingTest, MulKernelsAgree) {
  // The three kernels must produce identical coefficients; use the
  // NTT-friendly prime so kNtt is legal.
  GFp f(field::kNttPrime);
  util::Prng prng(21);
  for (std::size_t deg : {1u, 7u, 31u, 64u, 200u}) {
    PolyRing<GFp> school(f, MulStrategy::kSchoolbook);
    PolyRing<GFp> karat(f, MulStrategy::kKaratsuba, 4);
    PolyRing<GFp> ntt(f, MulStrategy::kNtt);
    auto a = school.random_degree(prng, static_cast<std::int64_t>(deg));
    auto b = school.random_degree(prng, static_cast<std::int64_t>(deg) / 2 + 1);
    auto r0 = school.mul(a, b);
    EXPECT_TRUE(school.eq(r0, karat.mul(a, b))) << "karatsuba deg=" << deg;
    EXPECT_TRUE(school.eq(r0, ntt.mul(a, b))) << "ntt deg=" << deg;
  }
}

TEST(PolyRingTest, KaratsubaOverRationals) {
  // Karatsuba is the generic path for rings without NTT roots.
  RationalField q;
  PolyRing<RationalField> school(q, MulStrategy::kSchoolbook);
  PolyRing<RationalField> karat(q, MulStrategy::kKaratsuba, 2);
  util::Prng prng(31);
  auto a = school.random_degree(prng, 20);
  auto b = school.random_degree(prng, 17);
  EXPECT_TRUE(school.eq(school.mul(a, b), karat.mul(a, b)));
}

TEST(PolyRingTest, DivModInvariant) {
  auto ring = make_ring();
  util::Prng prng(41);
  for (int trial = 0; trial < 60; ++trial) {
    auto num = ring.random_degree(prng, 20);
    auto den = ring.random_degree(prng, static_cast<std::int64_t>(prng.below(10)));
    if (ring.is_zero(den)) continue;
    auto [q, r] = ring.divmod(num, den);
    EXPECT_TRUE(ring.eq(num, ring.add(ring.mul(q, den), r)));
    EXPECT_LT(P101::degree(r), P101::degree(den));
  }
}

TEST(PolyRingTest, EvalMatchesDivmodRemainder) {
  // a(c) equals a mod (x - c).
  auto ring = make_ring();
  util::Prng prng(51);
  F101 f;
  for (int trial = 0; trial < 30; ++trial) {
    auto a = ring.random_degree(prng, 15);
    auto c = f.random(prng);
    P101::Element lin{f.neg(c), f.one()};
    auto r = ring.divmod(a, lin).second;
    EXPECT_TRUE(f.eq(ring.eval(a, c), ring.coeff(r, 0)));
  }
}

TEST(PolyRingTest, GcdOfMultiples) {
  auto ring = make_ring();
  util::Prng prng(61);
  for (int trial = 0; trial < 30; ++trial) {
    auto g = ring.monic(ring.add(ring.random_degree(prng, 5), ring.shift_up(ring.one(), 6)));
    auto a = ring.mul(g, ring.random_degree(prng, 4));
    auto b = ring.mul(g, ring.random_degree(prng, 7));
    if (ring.is_zero(a) || ring.is_zero(b)) continue;
    auto d = ring.gcd(a, b);
    // gcd(g*u, g*v) is a multiple of g.
    EXPECT_TRUE(ring.is_zero(ring.divmod(d, g).second));
  }
}

TEST(PolyRingTest, XgcdBezoutIdentity) {
  auto ring = make_ring();
  util::Prng prng(71);
  for (int trial = 0; trial < 30; ++trial) {
    auto a = ring.random_degree(prng, 12);
    auto b = ring.random_degree(prng, 8);
    if (ring.is_zero(a) && ring.is_zero(b)) continue;
    auto [g, s, t] = ring.xgcd(a, b);
    EXPECT_TRUE(ring.eq(ring.add(ring.mul(s, a), ring.mul(t, b)), g));
    if (!ring.is_zero(g)) {
      EXPECT_TRUE(ring.base().eq(ring.lead(g), ring.base().one()));
      EXPECT_TRUE(ring.is_zero(ring.divmod(a, g).second));
      EXPECT_TRUE(ring.is_zero(ring.divmod(b, g).second));
    }
  }
}

TEST(PolyRingTest, DerivativeLeibnizRule) {
  auto ring = make_ring();
  util::Prng prng(81);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = ring.random_degree(prng, 9);
    auto b = ring.random_degree(prng, 7);
    auto lhs = ring.derivative(ring.mul(a, b));
    auto rhs = ring.add(ring.mul(ring.derivative(a), b), ring.mul(a, ring.derivative(b)));
    EXPECT_TRUE(ring.eq(lhs, rhs));
  }
}

TEST(PolyRingTest, ReverseAndShift) {
  auto ring = make_ring();
  P101::Element a{1, 2, 3};
  EXPECT_TRUE(ring.eq(ring.reverse(a, 2), P101::Element{3, 2, 1}));
  EXPECT_TRUE(ring.eq(ring.reverse(a, 4), P101::Element{0, 0, 3, 2, 1}));
  EXPECT_TRUE(ring.eq(ring.shift_up(a, 2), P101::Element{0, 0, 1, 2, 3}));
  EXPECT_TRUE(ring.eq(ring.shift_down(a, 1), P101::Element{2, 3}));
  EXPECT_TRUE(ring.eq(ring.truncate(a, 2), P101::Element{1, 2}));
}

// ---------------------------------------------------------------------------
// Power series.

TEST(SeriesTest, InverseIdentity) {
  auto ring = make_ring();
  util::Prng prng(91);
  for (std::size_t prec : {1u, 2u, 5u, 16u, 33u}) {
    auto a = ring.random_degree(prng, 10);
    if (a.empty() || ring.base().eq(a[0], ring.base().zero())) {
      a = ring.add(a, ring.one());
    }
    auto g = series_inverse(ring, a, prec);
    auto prod = ring.truncate(ring.mul(a, g), prec);
    EXPECT_TRUE(ring.eq(prod, ring.one())) << "prec=" << prec;
  }
}

TEST(SeriesTest, GeometricSeries) {
  // 1/(1-x) = 1 + x + x^2 + ...
  auto ring = make_ring();
  P101::Element one_minus_x{1, 100};
  auto g = series_inverse(ring, one_minus_x, 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(ring.coeff(g, i), 1u);
}

TEST(SeriesTest, LogExpRoundTrip) {
  auto ring = make_ring();
  util::Prng prng(101);
  for (int trial = 0; trial < 10; ++trial) {
    // h with h(0) = 0, degree < 12; precision beyond the degree.
    auto h = ring.shift_up(ring.random_degree(prng, 10), 1);
    const std::size_t prec = 20;
    auto g = series_exp(ring, h, prec);
    EXPECT_TRUE(ring.base().eq(ring.coeff(g, 0), ring.base().one()));
    auto back = series_log(ring, g, prec);
    EXPECT_TRUE(ring.eq(back, ring.truncate(h, prec)));
  }
}

TEST(SeriesTest, ExpAdditionLaw) {
  auto ring = make_ring();
  util::Prng prng(111);
  const std::size_t prec = 16;
  auto h1 = ring.shift_up(ring.random_degree(prng, 8), 1);
  auto h2 = ring.shift_up(ring.random_degree(prng, 8), 1);
  auto lhs = series_exp(ring, ring.add(h1, h2), prec);
  auto rhs = ring.truncate(
      ring.mul(series_exp(ring, h1, prec), series_exp(ring, h2, prec)), prec);
  EXPECT_TRUE(ring.eq(lhs, rhs));
}

TEST(SeriesTest, ExpOverRationalsMatchesFactorials) {
  RationalField q;
  PolyRing<RationalField> ring(q);
  // exp(x) coefficients are 1/i!.
  PolyRing<RationalField>::Element x{q.zero(), q.one()};
  auto e = series_exp(ring, x, 8);
  field::Rational fact(1);
  for (int i = 0; i < 8; ++i) {
    if (i > 0) fact = fact * field::Rational(i);
    EXPECT_TRUE(q.eq(ring.coeff(e, static_cast<std::size_t>(i)),
                     q.div(q.one(), fact)));
  }
}

// ---------------------------------------------------------------------------
// Interpolation.

TEST(InterpTest, RoundTripRandom) {
  auto ring = make_ring();
  util::Prng prng(121);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + prng.below(12);
    // n distinct points.
    std::vector<F101::Element> points;
    for (std::uint64_t v = 0; points.size() < n; ++v) points.push_back(v);
    auto a = ring.random_degree(prng, static_cast<std::int64_t>(n) - 1);
    auto values = multipoint_eval(ring, a, points);
    auto back = interpolate_status(ring, points, values);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(ring.eq(a, back.value()));
  }
}

TEST(InterpTest, KnownQuadratic) {
  RationalField q;
  PolyRing<RationalField> ring(q);
  // Through (0,1), (1,3), (2,7): 1 + x + x^2.
  std::vector<field::Rational> pts{0, 1, 2};
  std::vector<field::Rational> vals{1, 3, 7};
  auto r = interpolate_status(ring, pts, vals);
  ASSERT_TRUE(r.ok());
  const auto& p = r.value();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_TRUE(q.eq(p[0], q.one()));
  EXPECT_TRUE(q.eq(p[1], q.one()));
  EXPECT_TRUE(q.eq(p[2], q.one()));
}

// ---------------------------------------------------------------------------
// Truncated series ring (the section-3 coefficient ring).

TEST(TruncSeriesTest, TruncationIsARingCongruence) {
  TruncSeriesRing<F101> ring(F101{}, 6);
  util::Prng prng(131);
  PolyRing<F101> full(F101{});
  for (int trial = 0; trial < 30; ++trial) {
    auto a = ring.random(prng);
    auto b = ring.random(prng);
    // mul in the quotient == full product truncated.
    EXPECT_TRUE(ring.eq(ring.mul(a, b), full.truncate(full.mul(a, b), 6)));
  }
}

TEST(TruncSeriesTest, UnitInverse) {
  TruncSeriesRing<F101> ring(F101{}, 10);
  util::Prng prng(141);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = ring.random(prng);
    if (!ring.is_unit(a)) a = ring.add(a, ring.one());
    if (!ring.is_unit(a)) continue;  // constant term was -1
    auto g = ring.inv_unit(a);
    EXPECT_TRUE(ring.eq(ring.mul(a, g), ring.one()));
  }
}

TEST(TruncSeriesTest, PolynomialsOverSeriesCompose) {
  // Bivariate sanity: (1 + lambda*x) * (1 - lambda*x) = 1 - lambda^2 x^2
  // in (K[[lambda]]/lambda^3)[x].
  using SR = TruncSeriesRing<F101>;
  SR sr(F101{}, 3);
  PolyRing<SR> biv(sr);
  [[maybe_unused]] F101 f;
  PolyRing<SR>::Element a{sr.one(), sr.lambda()};
  PolyRing<SR>::Element b{sr.one(), sr.neg(sr.lambda())};
  auto prod = biv.mul(a, b);
  ASSERT_EQ(prod.size(), 3u);
  EXPECT_TRUE(sr.eq(prod[0], sr.one()));
  EXPECT_TRUE(sr.is_zero(prod[1]));
  // -lambda^2
  SR::Element ml2{f.zero(), f.zero(), f.from_int(-1)};
  EXPECT_TRUE(sr.eq(prod[2], ml2));
}

}  // namespace
}  // namespace kp
