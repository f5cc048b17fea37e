// binary16 / bfloat16 emulation: rounding, special values, overflow
// accounting (the §3.3 mechanism).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "numeric/bfloat16.hpp"
#include "numeric/half.hpp"
#include "numeric/precision.hpp"

namespace {

using et::numeric::bfloat16;
using et::numeric::half;
using et::numeric::overflow_count;
using et::numeric::Precision;
using et::numeric::reset_overflow_count;

TEST(Half, ExactSmallIntegersRoundTrip) {
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(static_cast<float>(half(static_cast<float>(i))),
              static_cast<float>(i))
        << "integer " << i;
  }
}

TEST(Half, PowersOfTwoRoundTrip) {
  for (int e = -14; e <= 15; ++e) {
    const float v = std::ldexp(1.0f, e);
    EXPECT_EQ(static_cast<float>(half(v)), v) << "2^" << e;
  }
}

TEST(Half, MaxFiniteIs65504) {
  EXPECT_EQ(static_cast<float>(half(65504.0f)), 65504.0f);
  EXPECT_TRUE(half(65504.0f).is_finite());
}

TEST(Half, OverflowProducesInfAndCounts) {
  reset_overflow_count();
  const half h(70000.0f);
  EXPECT_TRUE(h.is_inf());
  EXPECT_FALSE(h.signbit());
  EXPECT_EQ(overflow_count(), 1u);

  const half hneg(-1.0e6f);
  EXPECT_TRUE(hneg.is_inf());
  EXPECT_TRUE(hneg.signbit());
  EXPECT_EQ(overflow_count(), 2u);
  reset_overflow_count();
  EXPECT_EQ(overflow_count(), 0u);
}

TEST(Half, RoundingBoundaryAt65520) {
  // 65519.99 rounds down to 65504; 65520 is the tie that rounds to inf.
  reset_overflow_count();
  EXPECT_TRUE(half(65519.0f).is_finite());
  EXPECT_EQ(overflow_count(), 0u);
  EXPECT_TRUE(half(65520.0f).is_inf());
  EXPECT_EQ(overflow_count(), 1u);
  reset_overflow_count();
}

TEST(Half, InfAndNanPropagateWithoutCounting) {
  reset_overflow_count();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(half(inf).is_inf());
  EXPECT_TRUE(half(-inf).is_inf());
  EXPECT_TRUE(half(std::nanf("")).is_nan());
  EXPECT_EQ(overflow_count(), 0u) << "inf/NaN inputs are not overflows";
}

TEST(Half, SubnormalsRepresentable) {
  // Smallest positive subnormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(static_cast<float>(half(tiny)), tiny);
  // Below half of it rounds to zero.
  EXPECT_EQ(static_cast<float>(half(std::ldexp(1.0f, -26))), 0.0f);
}

TEST(Half, SignedZero) {
  EXPECT_EQ(half(0.0f).bits(), 0u);
  EXPECT_EQ(half(-0.0f).bits(), 0x8000u);
}

TEST(Half, RoundToNearestEvenTies) {
  // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: ties to even (1).
  const float tie = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(static_cast<float>(half(tie)), 1.0f);
  // 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even
  // (1+2^-9, whose mantissa LSB is 0).
  const float tie2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(static_cast<float>(half(tie2)), 1.0f + std::ldexp(1.0f, -9));
}

#ifdef __FLT16_MAX__
TEST(Half, MatchesHardwareFloat16OnRandomValues) {
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<float> dist(-70000.0f, 70000.0f);
  for (int i = 0; i < 20000; ++i) {
    const float v = dist(rng);
    const float ours = static_cast<float>(half(v));
    const float theirs = static_cast<float>(static_cast<_Float16>(v));
    EXPECT_EQ(ours, theirs) << "value " << v;
  }
  reset_overflow_count();
}
#endif

TEST(Half, ArithmeticRoundsPerOperation) {
  // 2048 + 1 is not representable (spacing is 2 at that magnitude).
  const half a(2048.0f);
  const half b(1.0f);
  EXPECT_EQ(static_cast<float>(a + b), 2048.0f);
  const half c(2.0f);
  EXPECT_EQ(static_cast<float>(a + c), 2050.0f);
}

TEST(Bfloat16, WiderRangeNoOverflowWhereHalfOverflows) {
  reset_overflow_count();
  const bfloat16 big(1.0e20f);
  EXPECT_TRUE(big.is_finite());
  EXPECT_EQ(overflow_count(), 0u);
  EXPECT_NEAR(static_cast<float>(big), 1.0e20f, 1.0e18f);
}

TEST(Bfloat16, LowerPrecisionThanHalfNearOne) {
  // bf16 has 8 candidate mantissa bits vs half's 10.
  const float v = 1.0f + std::ldexp(1.0f, -9);  // representable in half
  EXPECT_EQ(static_cast<float>(half(v)), v);
  EXPECT_NE(static_cast<float>(bfloat16(v)), v);
}

TEST(PrecisionPolicy, AccumulatorBytes) {
  EXPECT_EQ(et::numeric::accumulator_bytes(Precision::kPureFp16), 2u);
  EXPECT_EQ(et::numeric::accumulator_bytes(Precision::kMixed), 4u);
  EXPECT_EQ(et::numeric::accumulator_bytes(Precision::kFp32), 4u);
  EXPECT_EQ(et::numeric::storage_bytes(Precision::kMixed), 2u);
}

TEST(PrecisionPolicy, PureFp16FmaOverflows) {
  reset_overflow_count();
  float acc = 0.0f;
  for (int i = 0; i < 16; ++i) {
    acc = et::numeric::fma_step(Precision::kPureFp16, 250.0f, 250.0f, acc);
  }
  EXPECT_TRUE(std::isinf(acc)) << "16 × 62500 overflows binary16";
  EXPECT_GT(overflow_count(), 0u);
  reset_overflow_count();
}

TEST(PrecisionPolicy, MixedFmaDoesNotOverflow) {
  reset_overflow_count();
  float acc = 0.0f;
  for (int i = 0; i < 16; ++i) {
    acc = et::numeric::fma_step(Precision::kMixed, 250.0f, 250.0f, acc);
  }
  EXPECT_FALSE(std::isinf(acc));
  EXPECT_NEAR(acc, 16.0f * 62500.0f, 200.0f);
  EXPECT_EQ(overflow_count(), 0u);
  reset_overflow_count();
}

// ------------------------------------------------ policy inner loop ----
// numeric::dot and numeric::axpy are defined as the left fold of fma_step;
// every GEMM and attention accumulate loop is one of those calls, so these
// tests pin that definition bit for bit (and overflow event for overflow
// event) under each policy.

constexpr Precision kAllPolicies[] = {Precision::kFp32, Precision::kPureFp16,
                                      Precision::kMixed, Precision::kBf16Mixed};

float fold(Precision p, const float* a, std::size_t stride_a, const float* b,
           std::size_t stride_b, std::size_t n, float acc) {
  for (std::size_t i = 0; i < n; ++i) {
    acc = et::numeric::fma_step(p, a[i * stride_a], b[i * stride_b], acc);
  }
  return acc;
}

/// Bit equality, except that any NaN matches any NaN: IEEE-754 leaves the
/// payload an operation propagates unspecified.
bool same_bits(float x, float y) {
  if (std::isnan(x)) return std::isnan(y);
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

/// Run `f` from a zeroed overflow counter; returns the events it raised.
template <typename F>
std::uint64_t overflows_of(F&& f) {
  reset_overflow_count();
  f();
  const std::uint64_t n = overflow_count();
  reset_overflow_count();
  return n;
}

std::vector<float> random_values(std::size_t n, float amp, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, amp);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(PolicyLoop, DotIsTheLeftFoldOfFmaStep) {
  constexpr std::size_t kN = 37;
  for (const float amp : {1.0f, 300.0f}) {
    const auto a = random_values(3 * kN, amp, 1);
    const auto b = random_values(2 * kN, amp, 2);
    for (const Precision p : kAllPolicies) {
      for (const std::size_t sa : {1u, 3u}) {
        for (const std::size_t sb : {1u, 2u}) {
          for (const float acc0 : {0.0f, 1.75f, -4000.5f}) {
            for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kN}) {
              float want = 0.0f;
              float got = 0.0f;
              const auto want_ovf = overflows_of(
                  [&] { want = fold(p, a.data(), sa, b.data(), sb, n, acc0); });
              const auto got_ovf = overflows_of([&] {
                got = et::numeric::dot(p, a.data(), sa, b.data(), sb, n, acc0);
              });
              EXPECT_TRUE(same_bits(got, want))
                  << to_string(p) << " amp " << amp << " strides " << sa << ","
                  << sb << " acc0 " << acc0 << " n " << n << ": " << got
                  << " vs " << want;
              EXPECT_EQ(got_ovf, want_ovf) << to_string(p) << " amp " << amp;
            }
          }
        }
      }
    }
  }
}

TEST(PolicyLoop, AxpyIsTheLeftFoldOfFmaStep) {
  constexpr std::size_t kN = 29;
  for (const float amp : {1.0f, 300.0f}) {
    const auto x = random_values(4 * kN, amp, 3);
    const auto y0 = random_values(kN, amp * 100.0f, 4);
    for (const Precision p : kAllPolicies) {
      for (const std::size_t sx : {1u, 4u}) {
        for (const float alpha : {0.0f, -0.37f, 251.0f}) {
          std::vector<float> want = y0;
          std::vector<float> got = y0;
          const auto want_ovf = overflows_of([&] {
            for (std::size_t i = 0; i < kN; ++i) {
              want[i] = et::numeric::fma_step(p, alpha, x[i * sx], want[i]);
            }
          });
          const auto got_ovf = overflows_of([&] {
            et::numeric::axpy(p, alpha, x.data(), sx, got.data(), kN);
          });
          for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_TRUE(same_bits(got[i], want[i]))
                << to_string(p) << " amp " << amp << " stride " << sx
                << " alpha " << alpha << " i " << i;
          }
          EXPECT_EQ(got_ovf, want_ovf) << to_string(p) << " amp " << amp;
        }
      }
    }
  }
}

TEST(PolicyLoop, DotReproducesThePureFp16Overflow) {
  // The PureFp16FmaOverflows run above as one dot call: 16 × 250·250.
  const std::vector<float> v(16, 250.0f);
  for (const Precision p : kAllPolicies) {
    float want = 0.0f;
    float got = 0.0f;
    const auto want_ovf = overflows_of(
        [&] { want = fold(p, v.data(), 1, v.data(), 1, v.size(), 0.0f); });
    const auto got_ovf = overflows_of([&] {
      got = et::numeric::dot(p, v.data(), 1, v.data(), 1, v.size(), 0.0f);
    });
    EXPECT_TRUE(same_bits(got, want)) << to_string(p);
    EXPECT_EQ(got_ovf, want_ovf) << to_string(p);
    EXPECT_EQ(std::isinf(got), p == Precision::kPureFp16) << to_string(p);
    EXPECT_EQ(got_ovf > 0, p == Precision::kPureFp16) << to_string(p);
  }
}

TEST(PolicyLoop, SignedZerosAndNaNFollowTheFold) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> as = {
      {-0.0f, 0.0f, -0.0f}, {-0.0f, -0.0f}, {1.0f, nan, 2.0f}, {inf, 1.0f}};
  const std::vector<std::vector<float>> bs = {
      {0.0f, -0.0f, 0.0f}, {0.0f, 0.0f}, {3.0f, 4.0f, 5.0f}, {0.0f, 1.0f}};
  for (const Precision p : kAllPolicies) {
    for (std::size_t t = 0; t < as.size(); ++t) {
      for (const float acc0 : {-0.0f, 0.0f}) {
        const float want = fold(p, as[t].data(), 1, bs[t].data(), 1,
                                as[t].size(), acc0);
        const float got = et::numeric::dot(p, as[t].data(), 1, bs[t].data(),
                                           1, as[t].size(), acc0);
        EXPECT_TRUE(same_bits(got, want))
            << to_string(p) << " case " << t << " acc0 " << acc0;
      }
      std::vector<float> want(as[t].size(), -0.0f);
      std::vector<float> got = want;
      for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] = et::numeric::fma_step(p, -0.0f, as[t][i], want[i]);
      }
      et::numeric::axpy(p, -0.0f, as[t].data(), 1, got.data(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(same_bits(got[i], want[i]))
            << to_string(p) << " axpy case " << t << " i " << i;
      }
    }
  }
  // A sum of -0 terms stays -0 under every policy: -0·0 + -0 = -0.
  const float neg_zero = -0.0f;
  const float zero = 0.0f;
  for (const Precision p : kAllPolicies) {
    EXPECT_TRUE(std::signbit(
        et::numeric::dot(p, &neg_zero, 1, &zero, 1, 1, -0.0f)))
        << to_string(p);
  }
}

TEST(PolicyLoop, OpChargeSplitsMatmulFromPointwise) {
  const auto fp32 = et::numeric::op_charge(Precision::kFp32, 100, 7);
  EXPECT_EQ(fp32.tensor_ops, 0u);
  EXPECT_EQ(fp32.fp_ops, 107u);
  for (const Precision p :
       {Precision::kPureFp16, Precision::kMixed, Precision::kBf16Mixed}) {
    const auto ops = et::numeric::op_charge(p, 100, 7);
    EXPECT_EQ(ops.tensor_ops, 100u) << to_string(p);
    EXPECT_EQ(ops.fp_ops, 7u) << to_string(p);
  }
}

class HalfSweep : public ::testing::TestWithParam<float> {};

TEST_P(HalfSweep, RoundTripWithinHalfUlp) {
  const float v = GetParam();
  const float r = static_cast<float>(half(v));
  // |v - round(v)| must be at most half the spacing at v's magnitude.
  const float spacing = std::ldexp(
      1.0f, std::max(-24, std::ilogb(std::abs(v) > 0 ? v : 1.0f) - 10));
  EXPECT_LE(std::abs(v - r), spacing * 0.5f + 1e-12f) << v;
}

INSTANTIATE_TEST_SUITE_P(Values, HalfSweep,
                         ::testing::Values(0.1f, -0.1f, 3.14159f, 1e-3f,
                                           -2.71828f, 123.456f, -999.9f,
                                           6e-5f, 1e-7f, 40000.0f));

}  // namespace
